"""Perf gate: the out-of-core mmap graph vs. the in-memory dict graph.

Two claims, one artefact (``BENCH_census_mmap.json``):

1. **Flat peak RSS.**  A synthetic circulant network is generated at a
   scale where neither its ``.hmg`` file nor its dict-backed in-memory
   form fits inside a fixed working-set budget over the interpreter
   baseline (a calibration subprocess measures the dict graph's
   footprint at 1/8 scale; the extrapolation must exceed the cap for
   the workload to count, and the file itself must out-size the budget
   so the run is genuinely out-of-core).  A full rank-prediction-style
   run (``census_stream`` → feature matrix → random-forest regressor →
   NDCG) executes in its own subprocess and its ``ru_maxrss`` is
   asserted under ``baseline + budget`` — the pipeline completes a job
   the dict graph could not, in bounded memory.  Ingestion
   (``build_mmap_graph``) gets a separate, larger budget: its working
   set is O(nodes + sort chunk) rather than O(1) in the graph, but
   still far under the O(edges) dict footprint.

2. **Cheap parallel startup.**  ``census_many`` at ``n_jobs=2`` over a
   *spawned* pool is timed over the mmap graph (workers re-open the
   mapping from its 81-byte pickled path) and over the dict twin
   (workers unpickle the whole graph).  Results are asserted
   bit-identical to the serial dict census before any number is
   reported; the mmap arm must win by ≥ 1.5x.  The gate is waived (with
   the reason recorded in the JSON) on single-core boxes, where a
   process pool can only measure its own overhead.

``--smoke`` shrinks both parts to seconds, skips the gate and the cap
assertions (a tiny graph cannot out-size any honest cap), and writes no
JSON artefact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from _bench import bench_path, gate_block, write_bench
from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.mmap_graph import MmapGraph
from repro.io.edgelist import read_edgelist
from repro.io.stream import write_mmap_graph
from repro.runtime.context import RunContext

RESULT_PATH = bench_path("census_mmap")

#: The acceptance gate: parallel census speedup from not pickling the graph.
MIN_SPEEDUP = 1.5

#: The parallel gate needs a second core to have anything to measure.
MIN_CORES_FOR_GATE = 2

#: Full-scale workload: nodes * strides edges (~120 MiB on disk), sized so
#: both the file and the extrapolated dict-graph footprint overshoot the
#: pipeline's working-set budget severalfold.
FULL_NODES = 240_000
STRIDES = 10

#: Dict-graph calibration runs at 1/8 scale and extrapolates linearly.
CALIBRATION_DIVISOR = 8

#: Working-set budget (over the interpreter baseline) for the streaming
#: rank-prediction run: census rows, feature matrix, forest, artifact
#: store, and whatever mmap pages the censuses actually touch.  Sized
#: for the census engine's per-root temporaries (~19k subgraph rows per
#: root at this workload's degree and ``e_max``) — the same arenas a
#: dict-backed run allocates — with ~20 MiB headroom.
PIPELINE_BUDGET_KB = 64 * 1024

#: Ingestion budget: O(nodes) label/degree/id state plus one sort chunk
#: and the k-way merge blocks — larger than the pipeline's, still a
#: fraction of the dict footprint.
INGEST_BUDGET_KB = 96 * 1024

CHILD = Path(__file__).resolve().parent / "_census_mmap_child.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_child(mode: str, params: dict) -> dict:
    """Run one `_census_mmap_child.py` mode; return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, json.dumps(params)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, (
        f"{mode} child failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_census_many(graph, roots, config, mp_context):
    extractor = SubgraphFeatureExtractor(
        config, ctx=RunContext(n_jobs=2), mp_context=mp_context
    )
    started = time.perf_counter()
    results = extractor.census_many(graph, roots)
    return time.perf_counter() - started, results


def test_out_of_core_census(benchmark, smoke, tmp_path):
    nodes = 2_000 if smoke else FULL_NODES
    strides = 3 if smoke else STRIDES
    num_roots = 12 if smoke else 48
    emax = 2 if smoke else 3
    trees = 5 if smoke else 20
    chunk_edges = 1 << (10 if smoke else 16)

    # -- part 1: bounded-memory ingest + rank-style run ------------------
    baseline_kb = run_child("baseline", {})["peak_rss_kb"]

    edgelist = tmp_path / "full.edges"
    run_child(
        "generate", {"out": str(edgelist), "nodes": nodes, "strides": strides}
    )
    hmg = tmp_path / "full.hmg"
    ingest = run_child(
        "ingest",
        {"edgelist": str(edgelist), "out": str(hmg), "chunk_edges": chunk_edges},
    )
    cap_kb = baseline_kb + PIPELINE_BUDGET_KB
    ingest_cap_kb = baseline_kb + INGEST_BUDGET_KB

    calib_edges = tmp_path / "calib.edges"
    run_child(
        "generate",
        {
            "out": str(calib_edges),
            "nodes": nodes // CALIBRATION_DIVISOR,
            "strides": strides,
        },
    )
    calibration = run_child("dict_rss", {"edgelist": str(calib_edges)})
    per_edge_kb = max(
        0.0, calibration["peak_rss_kb"] - baseline_kb
    ) / calibration["num_edges"]
    dict_extrapolated_kb = baseline_kb + per_edge_kb * nodes * strides

    pipeline = benchmark.pedantic(
        lambda: run_child(
            "pipeline",
            {
                "graph": str(hmg),
                "num_roots": num_roots,
                "emax": emax,
                "batch_size": 16,
                "trees": trees,
            },
        ),
        rounds=1,
        iterations=1,
    )
    assert pipeline["mmap_backed"], "pipeline fell back to buffered reads"
    assert pipeline["num_roots"] == num_roots
    assert 0.0 <= pipeline["ndcg"] <= 1.0

    # -- part 2: parallel census over mmap vs dict, bit-identical --------
    # The calibration-scale graph is the dict arm; its mmap twin differs
    # only in storage, so the wall-clock gap is pure pool-startup cost.
    dict_graph = read_edgelist(calib_edges)
    dict_graph.flat()
    mmap_twin = MmapGraph(write_mmap_graph(dict_graph, tmp_path / "twin.hmg"))
    config = CensusConfig(max_edges=2, mask_start_label=True)
    step = max(1, dict_graph.num_nodes // 24)
    roots = list(range(0, dict_graph.num_nodes, step))[:24]

    expected = [subgraph_census(dict_graph, r, config) for r in roots]
    dict_s, dict_results = _timed_census_many(
        dict_graph, roots, config, mp_context="spawn"
    )
    mmap_s, mmap_results = _timed_census_many(
        mmap_twin, roots, config, mp_context="spawn"
    )
    assert mmap_results == expected, "mmap census diverged from dict engine"
    assert dict_results == expected, "parallel dict census diverged from serial"
    speedup = dict_s / mmap_s

    cores = os.cpu_count() or 1
    gated = cores >= MIN_CORES_FOR_GATE
    print()
    print(
        f"out-of-core census: {nodes * strides} edges, "
        f".hmg {ingest['file_bytes'] / 1e6:.1f} MB, "
        f"ingest {ingest['seconds']:.1f}s @ {ingest['peak_rss_kb'] / 1024:.0f} MB "
        f"(cap {ingest_cap_kb / 1024:.0f} MB), "
        f"pipeline @ {pipeline['peak_rss_kb'] / 1024:.0f} MB "
        f"(cap {cap_kb / 1024:.0f} MB, dict extrapolates to "
        f"{dict_extrapolated_kb / 1024:.0f} MB); "
        f"spawn census_many x2: dict {dict_s:.2f}s vs mmap {mmap_s:.2f}s "
        f"-> {speedup:.2f}x (gate {MIN_SPEEDUP}x, {cores} cores"
        + ("" if gated else ", waived: needs >= 2 cores")
        + (", smoke: gates+JSON skipped)" if smoke else ")")
    )

    if smoke:
        return

    # Recorded before the gates are asserted, so a failing run leaves
    # its numbers behind.
    write_bench(
        "census_mmap",
        workload={
            "graph": f"circulant, {nodes} nodes x {strides} strides",
            "num_nodes": nodes,
            "num_edges": nodes * strides,
            "num_roots": num_roots,
            "e_max": emax,
            "mask_start_label": True,
            "chunk_edges": chunk_edges,
        },
        results={
            "rss": {
                "cap_kb": cap_kb,
                "ingest_cap_kb": ingest_cap_kb,
                "baseline_kb": baseline_kb,
                "pipeline_budget_kb": PIPELINE_BUDGET_KB,
                "ingest_budget_kb": INGEST_BUDGET_KB,
                "file_bytes": ingest["file_bytes"],
                "ingest_peak_kb": ingest["peak_rss_kb"],
                "pipeline_peak_kb": pipeline["peak_rss_kb"],
                "dict_extrapolated_kb": dict_extrapolated_kb,
                "dict_calibration_edges": calibration["num_edges"],
            },
            "ingest_s": ingest["seconds"],
            "pipeline_census_s": pipeline["census_seconds"],
            "pipeline_total_s": pipeline["total_seconds"],
            "pipeline_ndcg": pipeline["ndcg"],
            "parallel": {
                "n_jobs": 2,
                "mp_context": "spawn",
                "num_roots": len(roots),
                "dict_s": dict_s,
                "mmap_s": mmap_s,
                "speedup": speedup,
            },
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

    # The workload only proves anything if the graph out-sizes the very
    # budget the out-of-core pipeline is held to, in both of its other
    # representations: the raw file and the extrapolated dict footprint.
    assert ingest["file_bytes"] / 1024 > PIPELINE_BUDGET_KB, (
        f"workload too small: .hmg file is {ingest['file_bytes']} bytes, "
        f"under the {PIPELINE_BUDGET_KB} KiB working-set budget"
    )
    assert dict_extrapolated_kb > cap_kb, (
        f"workload too small: dict graph extrapolates to "
        f"{dict_extrapolated_kb:.0f} KiB, under the {cap_kb:.0f} KiB cap"
    )
    assert pipeline["peak_rss_kb"] <= cap_kb, (
        f"pipeline peak RSS {pipeline['peak_rss_kb']:.0f} KiB over the "
        f"{cap_kb:.0f} KiB cap"
    )
    assert ingest["peak_rss_kb"] <= ingest_cap_kb, (
        f"ingest peak RSS {ingest['peak_rss_kb']:.0f} KiB over the "
        f"{ingest_cap_kb:.0f} KiB ingest cap"
    )

    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"mmap parallel census speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP}x gate"
        )
