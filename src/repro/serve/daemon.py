"""The feature-serving daemon: a :class:`FeatureService` behind an op table.

:class:`ServeDaemon` runs on the shared op-table server of
:mod:`repro.net.server` (framing, dispatch, typed errors, the built-in
``shutdown`` op and the ``serve/requests|errors|latency_s`` telemetry
live there), on a unix socket or a TCP ``host:port``.  What it adds is
its op table (:mod:`repro.serve.protocol`) and its execution policy:

* Reads whose root is tracked (:meth:`FeatureService.answerable`) answer
  on the event loop from the service's published version, with no lock
  and no thread hop.  A write never shows half done in them: it publishes
  its version in one assignment.  Caveat: the interpreter lock still makes
  a read that lands during a write wait up to a thread switch interval.
* Everything else changes state and runs on one writer thread, in arrival
  order: edge writes, and reads that must first track their root or build
  the label centroids.

Graceful degradation applies to writer-thread jobs:

* **Shedding** — when ``max_inflight`` jobs are queued or running, new
  ones are answered at once with the typed ``overloaded`` error (counted
  as ``serve/shed_requests``) instead of queueing without bound.
* **Timeouts** — a job past ``request_timeout`` is answered with the
  ``timeout`` error, but the thread cannot be killed: the job keeps its
  inflight slot, and the one writer thread, until it finishes, so a
  timed-out write never overlaps a later one.  Live orphans are counted in
  ``daemon.orphaned`` and the ``serve/orphaned`` peak gauge; past half of
  ``max_inflight`` the daemon warns that shedding is imminent.
"""

from __future__ import annotations

import asyncio
import time
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
    ) -> None:
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        super().__init__(endpoint)  # one thread: the writer
        self.service = service
        self.request_timeout = float(request_timeout)
        self.max_inflight = int(max_inflight)
        self._inflight = 0
        self.shed_requests = 0
        self.timeouts = 0
        #: Timed-out writer jobs still running (each holds an inflight
        #: slot until it completes).
        self.orphaned = 0

    @property
    def socket_path(self) -> Path | None:
        """The unix socket path (``None`` on a TCP endpoint)."""
        return Path(self.endpoint.path) if self.endpoint.kind == "unix" else None

    def op_table(self) -> dict:
        return {**dict.fromkeys(READ_OPS, self._read), **dict.fromkeys(WRITE_OPS, self._write)}

    async def run(self, ready: asyncio.Event | None = None) -> None:
        # Pre-register degradation counters so run manifests always carry
        # them, even for runs that never shed or timed out.
        telemetry = get_telemetry()
        telemetry.count("serve/shed_requests", 0)
        telemetry.count("serve/timeouts", 0)
        await super().run(ready)

    async def _read(self, request: dict) -> dict:
        """Answer on the loop, unless the read must change state first."""
        if self.service.answerable(request):
            return self.service.handle(request)
        return await self._write(request)

    async def _write(self, request: dict) -> dict:
        """Run one service call on the writer thread: shed past
        ``max_inflight`` jobs; on timeout the job runs on, shielded, and a
        drain task holds its inflight slot until it finishes."""
        if self._inflight >= self.max_inflight:
            self.shed_requests += 1
            get_telemetry().count("serve/shed_requests")
            raise NetError(
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(max {self.max_inflight}); retry later",
            )
        self._inflight += 1
        submitted = time.perf_counter()

        def job():
            get_telemetry().observe("serve/writer_wait_s", time.perf_counter() - submitted)
            # Looked up per call: the service's handler may be swapped live.
            return self.service.handle(request)

        future = self.run_in_thread(job)
        try:
            return await asyncio.wait_for(asyncio.shield(future), self.request_timeout)
        except asyncio.TimeoutError:
            self.timeouts += 1
            self.orphaned += 1
            telemetry = get_telemetry()
            telemetry.count("serve/timeouts")
            telemetry.gauge_max("serve/orphaned", self.orphaned)
            if self.orphaned > self.max_inflight / 2:
                logger.warning(
                    "%d orphaned writer jobs hold inflight slots (max_inflight=%d); "
                    "shedding is imminent", self.orphaned, self.max_inflight,
                )
            # The drain task takes this job's inflight slot over.
            self.track(asyncio.ensure_future(self._drain(future)))
            future = None
            raise NetError(
                "timeout",
                f"request exceeded {self.request_timeout:g}s "
                f"(op {request.get('op')!r})",
            )
        finally:
            if future is not None:
                self._inflight -= 1

    async def _drain(self, future: asyncio.Future) -> None:
        try:
            await future
        except Exception:  # noqa: BLE001 - the client already got a timeout
            logger.debug("timed-out request failed after deadline", exc_info=True)
        finally:
            self.orphaned -= 1
            self._inflight -= 1
