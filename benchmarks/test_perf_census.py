"""Perf gate: the fast census engine vs. the reference implementation.

Times the library census and the reference oracle of
``tests/oracles/census.py`` over the same roots on the MAG label graph — the
Table-3-style workload (``e_max = 3``, ``d_max`` at the 90th degree
percentile, masked root) — and writes ``BENCH_census.json`` next to the
repo root so future PRs have a perf trajectory to compare against.

The gate asserts the fast engine is at least 3x faster in aggregate; the
engines' exact-equality parity is covered by tier-1 tests, but we
re-assert it here on the bench workload because a perf number for a
wrong answer is worthless.
"""

from __future__ import annotations

import time

import numpy as np

from _bench import bench_path, gate_block, write_bench
from repro.core.census import CensusConfig, subgraph_census
from repro.datasets import sample_nodes_per_label
from repro.experiments.common import percentile_degree
from tests.oracles import reference_census

RESULT_PATH = bench_path("census")

#: The acceptance gate: aggregate fast-engine speedup on this workload.
MIN_SPEEDUP = 3.0


def _time_roots(graph, nodes, config, census) -> np.ndarray:
    times = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        started = time.perf_counter()
        census(graph, node, config)
        times[i] = time.perf_counter() - started
    return times


def _summary(times: np.ndarray) -> dict:
    return {
        "mean_s": float(times.mean()),
        "p95_s": float(np.percentile(times, 95)),
        "max_s": float(times.max()),
        "total_s": float(times.sum()),
    }


def test_fast_engine_speedup(benchmark, mag_label_graph):
    graph = mag_label_graph
    dmax = percentile_degree(graph, 90.0)
    config = CensusConfig(max_edges=3, max_degree=dmax, mask_start_label=True)
    nodes, _ = sample_nodes_per_label(graph, 10, rng=0)
    nodes = [int(n) for n in nodes]
    graph.flat()  # build the adjacency snapshot outside the timed region

    fast = benchmark.pedantic(
        lambda: _time_roots(graph, nodes, config, subgraph_census),
        rounds=1,
        iterations=1,
    )
    reference = _time_roots(graph, nodes, config, reference_census)
    speedup = float(reference.sum() / fast.sum())

    # Parity on the bench workload itself.
    for node in nodes[:5]:
        assert subgraph_census(graph, node, config, engine="fast") == (
            reference_census(graph, node, config)
        )

    write_bench(
        "census",
        workload={
            "graph": "MAG label graph (3 years)",
            "num_nodes": graph.num_nodes,
            "num_roots": len(nodes),
            "e_max": config.max_edges,
            "d_max": dmax,
            "mask_start_label": True,
            "key": config.key,
        },
        results={
            "fast": _summary(fast),
            "reference": _summary(reference),
            "speedup": speedup,
        },
        gate=gate_block(MIN_SPEEDUP),
    )

    print()
    print(
        f"census perf: fast {fast.sum():.3f}s vs reference "
        f"{reference.sum():.3f}s over {len(nodes)} roots "
        f"-> {speedup:.2f}x (gate {MIN_SPEEDUP}x) -> {RESULT_PATH.name}"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"fast engine speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )
