"""Perf gate: the network substrate under both of its production roles.

Two measurements on one artefact:

* **Remote census** — a 2-worker TCP fleet (in-process threads, so the
  numbers isolate protocol + pickle overhead, not machine count)
  censuses the same root set as a local ``census_many`` (one process),
  five alternating times each; each worker receives the whole graph
  once, then root batches.  The bench records the median seconds of
  both arms and their ratio, and asserts bit-identical results (the
  acceptance criterion that matters at any speed) and exactly one graph
  shipped per worker over all repeats.
* **Serve over TCP** — the replay harness from ``test_perf_serve`` runs
  against ``127.0.0.1`` instead of a unix socket, recording sustained
  req/s with client-side p50/p99.

Gates: remote census overhead ratio and TCP serve throughput both need
real parallelism — the workers and the daemon's thread pool only
overlap past one core — so on a single-core runner both gates are
waived and the JSON records why.  ``--smoke`` shrinks the workload,
skips the gate, and does not write the artefact.

Writes ``BENCH_net.json`` next to the repo root.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from _bench import gate_block, write_bench
from repro.core.census import CensusConfig
from repro.core.features import SubgraphFeatureExtractor
from repro.datasets.synthetic import affinity_graph
from repro.obs import fresh_telemetry
from repro.runtime import RunContext
from repro.serve import ReplayConfig, ServeConfig
from repro.serve.replay import run_in_process
from tests.fleet import WorkerFleet

#: TCP serve must sustain this many mixed requests/s when gated.
MIN_TCP_RPS = 800.0

#: Remote census may cost at most this multiple of local wall time
#: (2 workers on loopback; the budget is protocol + blob overhead).
MAX_REMOTE_OVERHEAD = 3.0

#: Worker fan-out and the daemon's loop+pool both need a second core.
MIN_CORES_FOR_GATE = 2

WORKER_COUNT = 2

#: Alternating local/remote samples per arm (medians are compared).
REPEATS = 5


def _bench_graph(scale: int = 1):
    return affinity_graph(
        label_sizes={"a": 40 * scale, "b": 35 * scale, "c": 25 * scale},
        affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
        mean_degree=3.0,
        rng=np.random.default_rng(0),
    )


def test_net_remote_census_and_tcp_serve(smoke):
    scale = 1 if smoke else 3
    graph = _bench_graph(scale)
    config = CensusConfig(max_edges=3)
    roots = list(range(graph.num_nodes))

    # -- remote census vs local census -------------------------------------
    # One ~0.15 s sample per arm spread 0.96x-1.82x between back-to-back
    # runs on a shared 2-core box, so both arms take REPEATS alternating
    # samples and the ratio is of their medians.  The first remote run
    # ships the graph to each worker; later runs find it in the
    # workers' fingerprint inventory and ship nothing.
    repeats = 1 if smoke else REPEATS
    local_times, remote_times, shipped = [], [], []
    with WorkerFleet(WORKER_COUNT) as fleet:
        ctx = RunContext(workers=fleet.specs)
        for _ in range(repeats):
            with fresh_telemetry():
                started = time.perf_counter()
                local = SubgraphFeatureExtractor(config).census_many(graph, roots)
                local_times.append(time.perf_counter() - started)
            with fresh_telemetry() as telemetry:
                started = time.perf_counter()
                remote = SubgraphFeatureExtractor(config, ctx=ctx).census_many(
                    graph, roots
                )
                remote_times.append(time.perf_counter() - started)
                shipped.append(telemetry.counters.get("net/graphs_shipped", 0))
            assert remote == local, "remote census diverged from the local census"
    assert shipped == [WORKER_COUNT] + [0] * (repeats - 1), shipped
    local_s = statistics.median(local_times)
    remote_s = statistics.median(remote_times)
    overhead = remote_s / local_s if local_s > 0 else float("inf")
    remote_rps = len(roots) / remote_s

    # -- serve over TCP ---------------------------------------------------
    requests = 300 if smoke else 3000
    with fresh_telemetry():
        report, service = run_in_process(
            graph,
            "127.0.0.1:0",
            serve_config=ServeConfig(emax=3, dmax=6),
            replay_config=ReplayConfig(
                requests=requests, connections=8, write_fraction=0.02, seed=1
            ),
        )
    assert report.errors == 0, f"TCP replay saw errors: {report.error_counts}"
    assert report.requests == requests
    tcp_rps = report.throughput_rps

    cores = os.cpu_count() or 1
    gated = cores >= MIN_CORES_FOR_GATE
    print()
    print(
        f"net perf: remote census {remote_rps:.0f} roots/s over "
        f"{WORKER_COUNT} TCP workers ({overhead:.2f}x local), "
        f"serve-over-TCP {report.summary()} "
        f"({cores} cores"
        + ("" if gated else ", waived: needs >= 2 cores")
        + (", smoke: gate+JSON skipped)" if smoke else ")")
    )

    if smoke:
        return

    waiver = None if gated else f"needs >= {MIN_CORES_FOR_GATE} cores, has {cores}"
    write_bench(
        "net",
        workload={
            "graph": "affinity graph (3 labels)",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "num_roots": len(roots),
            "workers": WORKER_COUNT,
            "repeats": repeats,
            "transport": "tcp",
            "serve_requests": requests,
            "e_max": config.max_edges,
        },
        results={
            "local_census_s": local_s,
            "remote_census_s": remote_s,
            "remote_first_s": remote_times[0],
            "remote_overhead": overhead,
            "remote_roots_per_s": remote_rps,
            "graphs_shipped": sum(shipped),
            "tcp_throughput_rps": tcp_rps,
            "tcp_p50_ms": report.percentile(50) * 1e3,
            "tcp_p99_ms": report.percentile(99) * 1e3,
        },
        # min_speedup records the overhead ceiling's reciprocal role:
        # the shared field stays the 1.0 identity and the real
        # thresholds ride next to it.
        gate=gate_block(1.0, applied=gated, waiver=waiver)
        | {"max_remote_overhead": MAX_REMOTE_OVERHEAD, "min_tcp_rps": MIN_TCP_RPS},
    )
    if gated:
        assert overhead <= MAX_REMOTE_OVERHEAD, (
            f"remote census cost {overhead:.2f}x local, "
            f"budget is {MAX_REMOTE_OVERHEAD}x"
        )
        assert tcp_rps >= MIN_TCP_RPS, (
            f"TCP serve sustained {tcp_rps:.0f} req/s, gate is {MIN_TCP_RPS:.0f}"
        )
