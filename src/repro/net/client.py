"""Connection clients for the framed protocol: async and sync.

:func:`open_connection` is the asyncio side — the replay harness and
other loop-resident clients use it to reach a daemon over either
transport with the same ``(reader, writer)`` contract.

:class:`NetClient` is the synchronous side: one persistent connection
with per-request timeouts and bounded reconnect-and-retry under an
exponential :class:`RetryPolicy`.  The remote census executor
(:mod:`repro.dist.remote`) runs its worker conversations through it
from plain threads — no event loop required.

Failure mapping is part of the client contract: transport errors
surface as :class:`~repro.net.protocol.NetError` with code
``unavailable`` (peer unreachable / connection torn down) or
``timeout`` (deadline elapsed with the connection up), so callers
branch on typed codes whether the failure happened on the wire or in
the server.  A failed request always closes the socket before retrying
— after an error the stream position is unknowable, and resynchronising
a line protocol mid-stream is not worth the ambiguity.

Telemetry: every request lands in ``net/requests`` and the
``net/request_s`` latency distribution; reconnects, retries, and
failures are counted under ``net/*`` so the run manifest carries the
wire-level cost and health of a distributed run.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass

from repro.net.endpoint import Endpoint, parse_endpoint
from repro.net.protocol import MAX_LINE_BYTES, NetError, raise_for_error
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry

logger = get_logger(__name__)


async def open_connection(endpoint, *, limit: int = MAX_LINE_BYTES):
    """Asyncio ``(reader, writer)`` for either transport."""
    endpoint = parse_endpoint(endpoint)
    if endpoint.kind == "unix":
        return await asyncio.open_unix_connection(endpoint.path, limit=limit)
    return await asyncio.open_connection(endpoint.host, endpoint.port, limit=limit)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``retries`` is the number of *re*-attempts after the first try;
    attempt ``i`` (0-based) sleeps ``backoff * 2**i`` seconds first,
    capped at ``max_backoff``.  The defaults ride out a worker restart
    without stretching a genuinely dead peer past a second.
    """

    retries: int = 2
    backoff: float = 0.05
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Sleep before re-attempt ``attempt`` (0-based)."""
        return min(self.backoff * (2.0 ** attempt), self.max_backoff)


class NetClient:
    """One synchronous framed-protocol connection with retry/backoff.

    Usable as a context manager; safe for one thread at a time (the
    remote executor gives each worker thread its own client).
    """

    def __init__(
        self,
        endpoint,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.endpoint: Endpoint = parse_endpoint(endpoint)
        if connect_timeout <= 0:
            raise ValueError(f"connect_timeout must be > 0, got {connect_timeout}")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self._sock: socket.socket | None = None
        self._buffer = b""

    # -- connection lifecycle ---------------------------------------------
    def connect(self) -> None:
        """Ensure the socket is connected (no-op when it already is)."""
        if self._sock is not None:
            return
        if self.endpoint.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.connect_timeout)
                sock.connect(self.endpoint.path)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self.endpoint.host, self.endpoint.port),
                timeout=self.connect_timeout,
            )
        self._sock = sock
        self._buffer = b""
        get_telemetry().count("net/connects")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None
        self._buffer = b""

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framed round-trips ------------------------------------------------
    def _read_line(self, deadline: float) -> bytes:
        sock = self._sock
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise NetError(
                    "internal",
                    f"peer response exceeds {MAX_LINE_BYTES} bytes unframed",
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("request deadline elapsed")
            sock.settimeout(remaining)
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the connection mid-request")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def request(
        self, payload: dict, *, timeout: float | None = None, retry: bool = True
    ) -> dict:
        """One request/response round-trip; returns the decoded response.

        Transport failures reconnect and retry under the client's
        :class:`RetryPolicy` (``retry=False`` limits to a single
        attempt — for callers whose operation is not idempotent).
        Exhausted retries raise :class:`NetError` — ``timeout`` when the
        deadline elapsed, ``unavailable`` otherwise.
        """
        telemetry = get_telemetry()
        data = (json.dumps(payload) + "\n").encode("utf-8")
        budget = self.request_timeout if timeout is None else float(timeout)
        attempts = (self.retry.retries + 1) if retry else 1
        failure: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                telemetry.count("net/retries")
                time.sleep(self.retry.delay(attempt - 1))
            started = time.perf_counter()
            try:
                if self._sock is None and attempt:
                    telemetry.count("net/reconnects")
                self.connect()
                deadline = time.monotonic() + budget
                self._sock.settimeout(budget)
                self._sock.sendall(data)
                line = self._read_line(deadline)
            except (OSError, ConnectionError) as exc:
                # socket.timeout is an OSError; anything here leaves the
                # stream position unknowable — drop the connection.
                failure = exc
                self.close()
                telemetry.count("net/request_errors")
                logger.debug(
                    "request to %s failed (attempt %d/%d): %s",
                    self.endpoint, attempt + 1, attempts, exc,
                )
                continue
            telemetry.count("net/requests")
            telemetry.observe("net/request_s", time.perf_counter() - started)
            try:
                return json.loads(line)
            except json.JSONDecodeError as exc:
                self.close()
                raise NetError(
                    "internal", f"peer sent undecodable response: {exc}"
                )
        telemetry.count("net/unavailable")
        if isinstance(failure, socket.timeout):
            raise NetError(
                "timeout",
                f"request to {self.endpoint} exceeded {budget:g}s "
                f"({attempts} attempts)",
            )
        raise NetError(
            "unavailable",
            f"{self.endpoint} unreachable after {attempts} attempts: {failure}",
        )

    def call(
        self, payload: dict, *, timeout: float | None = None, retry: bool = True
    ):
        """Request + unwrap: returns the ``result`` payload or raises the
        peer's typed error as :class:`NetError`."""
        return raise_for_error(self.request(payload, timeout=timeout, retry=retry))

    def ping(self, *, timeout: float | None = None) -> dict:
        """Liveness probe; raises :class:`NetError` when the peer is down."""
        return self.call({"op": "ping"}, timeout=timeout)
