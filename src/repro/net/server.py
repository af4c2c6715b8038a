"""One asyncio op-table server over either transport.

:class:`OpServer` is the server both daemons run on — the feature-serving
:class:`~repro.serve.daemon.ServeDaemon` and the census
:class:`~repro.dist.worker.CensusWorker`.  It owns everything but the
operations themselves: bind, ready, stop and teardown; the decode → op
lookup → handler → typed-response loop; mapping failures to
:data:`~repro.net.protocol.ERROR_CODES`; the built-in ``shutdown`` op;
and the ``{family}/requests|errors|errors/<code>|latency_s`` telemetry,
with ``{family}/latency_s/<op>`` per known op beside the overall one.
A subclass supplies its op table and the execution policy around it.

:func:`start_listener` binds an :class:`~repro.net.endpoint.Endpoint`
(unix socket or TCP) and returns a :class:`Listener` that normalises the
differences: stale unix socket files are unlinked before binding and
after closing, a TCP bind to port ``0`` reports the kernel-assigned
port back through ``listener.endpoint``, and the per-line read limit is
:data:`~repro.net.protocol.MAX_LINE_BYTES` for both.

:func:`serve_lines` is the per-connection loop (read a framed line,
hand it to the handler, write the response) — an oversized or
mid-frame-truncated line drops the connection rather than buffering
without bound, blank lines are skipped, and a handler cancelled by loop
teardown completes quietly (a cancelled streams task makes 3.11's
connection callback log a spurious traceback).
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Awaitable, Callable

from repro.net.endpoint import Endpoint, parse_endpoint
from repro.net.protocol import (
    MAX_LINE_BYTES,
    NetError,
    decode_message,
    error_response,
    ok_response,
)
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry

logger = get_logger(__name__)

#: An op handler: takes the decoded request, returns the JSON result.
Handler = Callable[[dict], Awaitable]


class Listener:
    """A bound server plus its (resolved) endpoint; closes transport-aware."""

    def __init__(self, server: asyncio.AbstractServer, endpoint: Endpoint) -> None:
        self.server = server
        self.endpoint = endpoint

    def close(self) -> None:
        self.server.close()

    async def wait_closed(self) -> None:
        await self.server.wait_closed()
        if self.endpoint.kind == "unix":
            path = Path(self.endpoint.path)
            if path.exists():
                path.unlink()


async def start_listener(
    endpoint,
    client_connected_cb,
    *,
    limit: int = MAX_LINE_BYTES,
) -> Listener:
    """Bind ``endpoint`` and serve connections through ``client_connected_cb``.

    Returns a :class:`Listener` whose ``endpoint`` is fully resolved —
    after a TCP bind to port ``0`` it carries the real port, so callers
    can advertise where they actually listen.
    """
    endpoint = parse_endpoint(endpoint)
    if endpoint.kind == "unix":
        path = Path(endpoint.path)
        if path.exists():
            path.unlink()
        server = await asyncio.start_unix_server(
            client_connected_cb, path=str(path), limit=limit
        )
        return Listener(server, endpoint)
    server = await asyncio.start_server(
        client_connected_cb, host=endpoint.host, port=endpoint.port, limit=limit
    )
    host, port = server.sockets[0].getsockname()[:2]
    if endpoint.port == 0:
        endpoint = Endpoint("tcp", host=endpoint.host, port=int(port))
    return Listener(server, endpoint)


async def serve_lines(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handle_line: Callable[[bytes], Awaitable[bytes]],
) -> None:
    """Run one connection's read-handle-respond loop until it ends.

    ``handle_line`` receives each non-blank framed line and returns the
    response bytes to write back (already newline-terminated).  It must
    not raise: protocol servers map their failures to typed error
    responses before returning.
    """
    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionResetError):
                # Oversized line or peer reset: drop the connection.
                break
            if not line:
                break
            if not line.strip():
                continue
            response = await handle_line(line)
            writer.write(response)
            try:
                await writer.drain()
            except ConnectionResetError:
                break
    except asyncio.CancelledError:
        # Loop teardown cancelled this handler (connection still open at
        # shutdown); complete normally rather than ending cancelled.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):  # pragma: no cover - close handshake already torn down
            pass


class OpServer:
    """A framed-protocol server dispatching each request through an op table.

    Subclasses implement :meth:`op_table` and set the class attributes
    below; handlers raise :class:`~repro.net.protocol.NetError` (or the
    :attr:`domain_error`) to answer with a typed error.  Handlers that
    block run their work through :meth:`run_in_thread`, on a pool of
    ``threads`` threads, so the loop stays free for other requests.
    """

    #: Telemetry prefix of the request counters and latency distribution.
    family = "server"
    #: ``(exception type, code)``: a domain failure answered with a typed
    #: code instead of ``internal``.
    domain_error: tuple[type[Exception], str] | None = None

    def __init__(self, endpoint, *, threads: int = 1) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self.requests = 0
        self._threads = threads
        self._ops: dict[str, Handler] = {}
        self._stop: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._background: set[asyncio.Task] = set()

    def op_table(self) -> dict[str, Handler]:
        """Map each op name (``shutdown`` aside) to its handler."""
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------
    async def run(self, ready: asyncio.Event | None = None) -> None:
        """Accept connections until :meth:`stop` (or a ``shutdown`` op).

        ``ready`` (if given) is set once the listener is bound —
        orchestrators start their clients on it.  A TCP bind to port
        ``0`` resolves ``self.endpoint`` to the real port first.
        """
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._threads, thread_name_prefix=f"repro-{self.family}"
        )
        self._ops = self.op_table()
        listener = await start_listener(self.endpoint, self._handle_connection)
        self.endpoint = listener.endpoint
        logger.info(
            "%s serving on %s (pid %d)", self.family, self.endpoint, os.getpid()
        )
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            listener.close()
            # Let background work (timed-out stragglers) finish first.
            for task in list(self._background):
                await task
            self._executor.shutdown(wait=True)
            await listener.wait_closed()
            logger.info("%s stopped after %d requests", self.family, self.requests)

    def stop(self) -> None:
        """Wake :meth:`run` to close the server (idempotent)."""
        if self._stop is not None:
            self._stop.set()

    def run_in_thread(self, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on the server's thread pool."""
        return asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    def track(self, task: asyncio.Task) -> None:
        """Keep ``task`` alive, and await it before the thread pool closes."""
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # -- request handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_lines(reader, writer, self._handle_line)

    async def _handle_line(self, line: bytes) -> bytes:
        telemetry = get_telemetry()
        started = time.perf_counter()
        request_id = op = None
        try:
            request = decode_message(line)
            request_id, op = request.get("id"), request["op"]
            response = ok_response(request_id, await self._dispatch(request))
        except Exception as exc:
            code, message = self._error(exc)
            telemetry.count(f"{self.family}/errors")
            telemetry.count(f"{self.family}/errors/{code}")
            response = error_response(request_id, code, message)
        self.requests += 1
        telemetry.count(f"{self.family}/requests")
        elapsed = time.perf_counter() - started
        telemetry.observe(f"{self.family}/latency_s", elapsed)
        if op in self._ops or op == "shutdown":  # known ops only: bounded names
            telemetry.observe(f"{self.family}/latency_s/{op}", elapsed)
        return response

    async def _dispatch(self, request: dict):
        op = request["op"]
        if op == "shutdown":
            self.stop()
            return {"stopping": True}
        handler = self._ops.get(op)
        if handler is None:
            raise NetError("unknown_op", f"unknown op {op!r}")
        if self._stop.is_set():
            raise NetError("shutting_down", f"{self.family} is draining")
        return await handler(request)

    def _error(self, exc: Exception) -> tuple[str, str]:
        if isinstance(exc, NetError):
            return exc.code, exc.message
        if self.domain_error is not None and isinstance(exc, self.domain_error[0]):
            return self.domain_error[1], str(exc)
        logger.exception("internal error handling request")
        return "internal", f"{type(exc).__name__}: {exc}"
