"""The feature-serving daemon: a :class:`FeatureService` behind an op table.

:class:`ServeDaemon` runs on the shared op-table server of
:mod:`repro.net.server` (framing, dispatch, typed errors, the built-in
``shutdown`` op and the ``serve/requests|errors|latency_s`` telemetry
live there), on a unix socket or a TCP ``host:port``.  What it adds is
its op table (:mod:`repro.serve.protocol`) and its execution policy.
Handlers execute in a thread pool so the census work of one request
never stalls the loop, and a writer-preferring async reader/writer lock
serialises mutations against reads: any number of read requests run
concurrently, while an ``add_edge``/``remove_edge`` waits for in-flight
reads to drain, then runs alone — so no read ever observes a
half-mutated graph or a census keyed under a superseded fingerprint.

Graceful degradation, in order of application:

* **Shedding** — when ``max_inflight`` requests are already executing,
  new ones are answered immediately with the typed ``overloaded`` error
  (counted as ``serve/shed_requests``) instead of queueing without bound.
* **Timeouts** — a request that exceeds ``request_timeout`` is answered
  with the ``timeout`` error, but its worker thread cannot be killed:
  the daemon keeps the request's lock slot held until the orphaned
  thread actually finishes (a background drain task releases it), so a
  timed-out mutation can never overlap with subsequent requests.
  Live orphans are tracked in ``daemon.orphaned`` and the
  ``serve/orphaned`` peak gauge; when they exceed half of
  ``max_inflight`` the daemon logs a warning — that many stuck slots
  means shedding is imminent.
"""

from __future__ import annotations

import asyncio
from functools import partial
from pathlib import Path

from repro.exceptions import GraphError
from repro.net.protocol import MAX_LINE_BYTES, NetError
from repro.net.server import OpServer
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.serve.protocol import READ_OPS, WRITE_OPS
from repro.serve.service import FeatureService

logger = get_logger(__name__)

__all__ = ["MAX_LINE_BYTES", "ServeDaemon"]


class _RWLock:
    """Writer-preferring reader/writer lock for one asyncio loop.

    Readers share; a waiting writer blocks new readers so mutations are
    not starved under sustained read load.  Not thread-safe — acquire
    and release only from loop coroutines (worker threads never touch
    it; the loop holds slots on their behalf, including past a timeout).
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    async def acquire_read(self) -> None:
        async with self._cond:
            while self._writer or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writer = False
            self._cond.notify_all()


class ServeDaemon(OpServer):
    """Serve a :class:`FeatureService` over a unix socket or TCP endpoint."""

    family = "serve"
    domain_error = (GraphError, "graph_error")

    def __init__(
        self,
        service: FeatureService,
        endpoint,
        *,
        request_timeout: float = 30.0,
        max_inflight: int = 64,
        workers: int | None = None,
    ) -> None:
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        # Threads beyond the shed limit would only ever idle.
        super().__init__(endpoint, threads=workers or min(32, max_inflight))
        self.service = service
        self.request_timeout = float(request_timeout)
        self.max_inflight = int(max_inflight)
        self._inflight = 0
        self._lock: _RWLock | None = None
        self.shed_requests = 0
        self.timeouts = 0
        #: Timed-out requests whose worker thread is still running (each
        #: holds an inflight slot + lock side until its drain completes).
        self.orphaned = 0

    @property
    def socket_path(self) -> Path | None:
        """The unix socket path (``None`` on a TCP endpoint)."""
        return Path(self.endpoint.path) if self.endpoint.kind == "unix" else None

    def op_table(self) -> dict:
        read = partial(self._execute, write=False)
        write = partial(self._execute, write=True)
        return {
            **dict.fromkeys(READ_OPS, read),
            **dict.fromkeys(WRITE_OPS, write),
        }

    async def run(self, ready: asyncio.Event | None = None) -> None:
        self._lock = _RWLock()
        # Pre-register degradation counters so run manifests always carry
        # them, even for runs that never shed or timed out.
        telemetry = get_telemetry()
        telemetry.count("serve/shed_requests", 0)
        telemetry.count("serve/timeouts", 0)
        await super().run(ready)

    async def _execute(self, request: dict, *, write: bool) -> dict:
        """Run one service call in the thread pool under the proper lock.

        Sheds when ``max_inflight`` requests already execute.  On timeout
        the future is shielded (the thread keeps running) and a drain
        task holds the lock slot until it finishes, so a straggling
        handler can never overlap a later mutation.
        """
        if self._inflight >= self.max_inflight:
            self.shed_requests += 1
            get_telemetry().count("serve/shed_requests")
            raise NetError(
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(max {self.max_inflight}); retry later",
            )
        lock = self._lock
        await (lock.acquire_write() if write else lock.acquire_read())
        self._inflight += 1
        # Looked up per call: the service's handler may be swapped live.
        future = self.run_in_thread(self.service.handle, request)
        handed_off = False
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            # Hand this request's inflight slot and lock side to a drain
            # task that waits out the still-running worker thread.
            handed_off = True
            self.timeouts += 1
            self.orphaned += 1
            telemetry = get_telemetry()
            telemetry.count("serve/timeouts")
            telemetry.gauge_max("serve/orphaned", self.orphaned)
            if self.orphaned > self.max_inflight / 2:
                logger.warning(
                    "%d orphaned request threads hold inflight slots "
                    "(max_inflight=%d); shedding is imminent",
                    self.orphaned,
                    self.max_inflight,
                )
            self.track(asyncio.ensure_future(self._drain(future, write)))
            raise NetError(
                "timeout",
                f"request exceeded {self.request_timeout:g}s "
                f"(op {request.get('op')!r})",
            )
        finally:
            if not handed_off:
                await self._release(write)

    async def _drain(self, future: asyncio.Future, write: bool) -> None:
        try:
            await future
        except Exception:  # noqa: BLE001 - the client already got a timeout
            logger.debug("timed-out request failed after deadline", exc_info=True)
        finally:
            self.orphaned -= 1
            await self._release(write)

    async def _release(self, write: bool) -> None:
        self._inflight -= 1
        lock = self._lock
        await (lock.release_write() if write else lock.release_read())
