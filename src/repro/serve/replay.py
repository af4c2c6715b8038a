"""Replay harness: drive a serving daemon with a mixed read/update trace.

The perf gate (``benchmarks/test_perf_serve.py``) and the CLI's
``repro serve --replay N`` mode both use this module: generate a
deterministic trace of feature/rank/label reads interleaved with edge
mutations, fire it at a live daemon over several connections — unix
socket or TCP, whatever endpoint the daemon is bound to (connections go
through :func:`repro.net.open_connection`) — and report client-side
throughput and latency percentiles.

Correctness under concurrency: every *write* executes in trace order on
one dedicated connection (the daemon handles a connection's requests
sequentially), so each mutation is valid against the graph state the
trace generator simulated.  Reads race freely on the remaining
connections; each answers from one published version of the service.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import HeteroGraph
from repro.net.client import open_connection
from repro.net.endpoint import Endpoint, parse_endpoint
from repro.obs.log import get_logger
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import WRITE_OPS
from repro.serve.service import FeatureService, ServeConfig

logger = get_logger(__name__)


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of a generated trace.

    ``write_fraction`` of the requests are edge mutations (half
    insertions of fresh edges, half deletions — deletions prefer edges
    the trace itself added).  Reads split between ``features`` (the
    cheap, dominant op), ``rank``, and ``label`` according to
    ``read_mix``.
    """

    requests: int = 2000
    connections: int = 8
    write_fraction: float = 0.1
    read_mix: tuple = (("features", 0.8), ("rank", 0.1), ("label", 0.1))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.connections < 2:
            raise ValueError(
                f"connections must be >= 2 (one is the writer), "
                f"got {self.connections}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )


def generate_trace(graph: HeteroGraph, config: ReplayConfig) -> list[dict]:
    """A deterministic request list simulating the graph's edge evolution.

    Mutations are generated against a simulated edge set that tracks the
    trace's own effects, so replaying the writes *in order* never trips
    a duplicate-edge or no-such-edge error.
    """
    rng = np.random.default_rng(config.seed)
    ids = graph.node_ids
    num_nodes = graph.num_nodes
    if num_nodes < 2:
        raise ValueError("replay needs a graph with at least two nodes")
    edges = {(u, v) for u, v in graph.edges()}
    added: list[tuple[int, int]] = []
    read_ops = [op for op, _weight in config.read_mix]
    read_weights = np.asarray([w for _op, w in config.read_mix], dtype=float)
    read_weights /= read_weights.sum()
    trace: list[dict] = []
    for i in range(config.requests):
        if rng.random() < config.write_fraction:
            if added and rng.random() < 0.5:
                u, v = added.pop(int(rng.integers(len(added))))
                edges.discard((u, v))
                trace.append(
                    {"id": i, "op": "remove_edge", "u": ids[u], "v": ids[v]}
                )
                continue
            # Insert a fresh edge; fall back to a read on dense graphs.
            for _attempt in range(32):
                u, v = (int(x) for x in rng.integers(num_nodes, size=2))
                if u == v:
                    continue
                key = (u, v) if u < v else (v, u)
                if key not in edges:
                    edges.add(key)
                    added.append(key)
                    trace.append(
                        {"id": i, "op": "add_edge", "u": ids[key[0]], "v": ids[key[1]]}
                    )
                    break
            else:
                trace.append({"id": i, "op": "ping"})
            continue
        op = read_ops[int(rng.choice(len(read_ops), p=read_weights))]
        node = ids[int(rng.integers(num_nodes))]
        request = {"id": i, "op": op, "node": node}
        if op == "rank":
            request["k"] = 5
        trace.append(request)
    return trace


@dataclass
class ReplayReport:
    """Client-side measurement of one replay run."""

    requests: int = 0
    duration_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    error_counts: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def errors(self) -> int:
        return sum(self.error_counts.values())

    def summary(self) -> str:
        return (
            f"{self.requests} requests in {self.duration_s:.2f}s "
            f"({self.throughput_rps:.0f} req/s), "
            f"p50 {self.percentile(50) * 1e3:.2f}ms / "
            f"p99 {self.percentile(99) * 1e3:.2f}ms, "
            f"{self.errors} errors"
        )


async def _run_connection(
    endpoint: Endpoint, requests: list[dict], report: ReplayReport
) -> None:
    if not requests:
        return
    reader, writer = await open_connection(endpoint)
    try:
        for request in requests:
            payload = (json.dumps(request) + "\n").encode("utf-8")
            started = time.perf_counter()
            writer.write(payload)
            await writer.drain()
            line = await reader.readline()
            elapsed = time.perf_counter() - started
            if not line:
                raise ConnectionError("daemon closed the connection mid-replay")
            response = json.loads(line)
            report.requests += 1  # no await until done: no other lane interleaves
            report.latencies_s.append(elapsed)
            if not response.get("ok"):
                code = response.get("error", {}).get("code", "unknown")
                report.error_counts[code] = report.error_counts.get(code, 0) + 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def replay(
    endpoint, trace: list[dict], connections: int = 8
) -> ReplayReport:
    """Fire ``trace`` at a live daemon; returns the client-side report.

    ``endpoint`` is anything :func:`repro.net.parse_endpoint` accepts —
    a unix socket path or a TCP ``host:port``.  Connection 0 executes
    every write in trace order; reads are dealt round-robin across the
    remaining connections.
    """
    endpoint = parse_endpoint(endpoint)
    writes = [r for r in trace if r["op"] in WRITE_OPS]
    reads = [r for r in trace if r["op"] not in WRITE_OPS]
    reader_lanes = max(1, connections - 1)
    lanes = [reads[i::reader_lanes] for i in range(reader_lanes)]
    report = ReplayReport()
    started = time.perf_counter()
    await asyncio.gather(
        _run_connection(endpoint, writes, report),
        *(_run_connection(endpoint, lane, report) for lane in lanes),
    )
    report.duration_s = time.perf_counter() - started
    return report


async def serve_and_replay(
    daemon: ServeDaemon, trace: list[dict], connections: int = 8
) -> ReplayReport:
    """Run ``daemon`` and ``trace`` on one event loop; stops the daemon after."""
    ready = asyncio.Event()
    server_task = asyncio.create_task(daemon.run(ready))
    await ready.wait()
    try:
        # daemon.endpoint is resolved by run() (real port after a :0 bind).
        return await replay(daemon.endpoint, trace, connections=connections)
    finally:
        daemon.stop()
        await server_task


def run_in_process(
    graph: HeteroGraph,
    endpoint,
    *,
    serve_config: ServeConfig | None = None,
    replay_config: ReplayConfig | None = None,
    warm: bool = True,
    request_timeout: float = 30.0,
    max_inflight: int = 64,
) -> tuple[ReplayReport, FeatureService]:
    """One-call orchestrator: build service, warm it, serve, replay, stop.

    Used by the perf gate and ``repro serve --replay``; ``endpoint`` is
    a unix socket path or TCP ``host:port``.  Returns the client-side
    report and the (stopped) service for inspection.
    """
    replay_config = replay_config if replay_config is not None else ReplayConfig()
    service = FeatureService(graph, serve_config)
    if warm:
        service.warm()
    trace = generate_trace(service.graph, replay_config)
    daemon = ServeDaemon(
        service,
        endpoint,
        request_timeout=request_timeout,
        max_inflight=max_inflight,
    )
    report = asyncio.run(
        serve_and_replay(daemon, trace, connections=replay_config.connections)
    )
    logger.info("replay: %s", report.summary())
    return report, service
