"""Perf gate: the partitioned census over sharded graphs vs. one shard.

Times the Table-3-style MAG workload (``e_max = 3``, ``d_max`` at the
90th degree percentile, masked root) through
:func:`repro.dist.subgraph_census_sharded` twice: once over a single
shard in-process, and once over 4 halo-complete shards fanned across 4
worker processes.  Partition sets are cut *outside* the timed region
(their cost is reported separately as ``partition_build_s`` — on a warm
artifact store real runs skip it entirely) and the shard results are
asserted bit-identical to the single-shard fast engine before any
number is reported, because a perf figure for a wrong answer is
worthless.

Writes ``BENCH_census_sharded.json`` next to the repo root so future
PRs have a perf trajectory to compare against.  The ≥2.5x wall-clock
gate only applies on boxes with at least 4 CPU cores — sharding buys
wall-clock through process parallelism, and a 1-core runner can only
measure the sharding overhead, not the speedup (the JSON records why
the gate was waived).  ``--smoke`` shrinks the workload to seconds,
skips the gate, and does not write the JSON artefact.
"""

from __future__ import annotations

import os
import time

from _bench import bench_path, gate_block, write_bench
from repro.core.census import CensusConfig, subgraph_census
from repro.datasets import sample_nodes_per_label
from repro.dist import PartitionConfig, partition_graph, subgraph_census_sharded
from repro.experiments.common import percentile_degree
from repro.runtime.context import RunContext

RESULT_PATH = bench_path("census_sharded")

#: The acceptance gate: sharded wall-clock speedup at 4 partitions.
MIN_SPEEDUP = 2.5

#: Shard count (and worker count) of the parallel arm.
NUM_PARTITIONS = 4

#: The parallel gate needs real cores to have anything to measure.
MIN_CORES_FOR_GATE = 4


def _timed_sharded(graph, roots, config, pset, n_jobs):
    started = time.perf_counter()
    results = subgraph_census_sharded(
        graph, roots, config, partitions=pset, ctx=RunContext(n_jobs=n_jobs)
    )
    return time.perf_counter() - started, results


def test_sharded_census_speedup(benchmark, smoke, mag_label_graph):
    graph = mag_label_graph
    dmax = percentile_degree(graph, 90.0)
    emax = 2 if smoke else 3
    config = CensusConfig(max_edges=emax, max_degree=dmax, mask_start_label=True)
    nodes, _ = sample_nodes_per_label(graph, 2 if smoke else 10, rng=0)
    roots = [int(n) for n in nodes]
    graph.flat()  # adjacency snapshot shared by both arms, built once

    # Shards are content-addressed artifacts in real runs; cut them
    # outside the timed region and report the cost separately.
    build_started = time.perf_counter()
    single = partition_graph(graph, PartitionConfig(num_partitions=1), config)
    sharded = partition_graph(
        graph, PartitionConfig(num_partitions=NUM_PARTITIONS), config
    )
    partition_build_s = time.perf_counter() - build_started

    sharded_s, sharded_results = benchmark.pedantic(
        lambda: _timed_sharded(
            graph, roots, config, sharded, n_jobs=NUM_PARTITIONS
        ),
        rounds=1,
        iterations=1,
    )
    single_s, single_results = _timed_sharded(
        graph, roots, config, single, n_jobs=1
    )
    speedup = single_s / sharded_s

    # Bit-identity first: every shard arm must match the plain fast engine.
    expected = [subgraph_census(graph, r, config, engine="fast") for r in roots]
    assert sharded_results == expected, "sharded census diverged from fast engine"
    assert single_results == expected, "single-shard census diverged from fast engine"

    cores = os.cpu_count() or 1
    gated = cores >= MIN_CORES_FOR_GATE
    print()
    print(
        f"sharded census perf: 1 shard {single_s:.3f}s vs {NUM_PARTITIONS} shards "
        f"{sharded_s:.3f}s over {len(roots)} roots -> {speedup:.2f}x "
        f"(gate {MIN_SPEEDUP}x, {cores} cores"
        + ("" if gated else ", waived: needs >= 4 cores")
        + (", smoke: gate+JSON skipped)" if smoke else ")")
    )

    if smoke:
        return

    stats = sharded.aggregate_stats()
    write_bench(
        "census_sharded",
        workload={
            "graph": "MAG label graph (3 years)",
            "num_nodes": graph.num_nodes,
            "num_roots": len(roots),
            "e_max": config.max_edges,
            "d_max": dmax,
            "mask_start_label": True,
        },
        results={
            "partitions": {
                "count": NUM_PARTITIONS,
                "strategy": sharded.config.strategy,
                "halo_depth": sharded.halo_depth,
                "halo_ratio": stats["halo_ratio"],
                "max_partition_nodes": stats["max_partition_nodes"],
                "partition_build_s": partition_build_s,
            },
            "single_shard_s": single_s,
            "sharded_s": sharded_s,
            "speedup": speedup,
            "cpu_cores": cores,
        },
        gate=gate_block(
            MIN_SPEEDUP,
            applied=gated,
            waiver=None
            if gated
            else f"parallel gate needs >= {MIN_CORES_FOR_GATE} cores, "
            f"box has {cores}",
        ),
    )

    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded census speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
        )
