"""Perf gate: the fast embedding pipeline vs. the reference implementation.

Times the three embedding baselines end to end — walk generation, pair
extraction, and SGNS training for DeepWalk and node2vec; edge sampling and
training for LINE — on the Table-3 MAG embedding workload, once with the
library models and once with the reference oracles of ``tests/oracles/``
(per-node walks, per-pair SGNS and per-edge LINE negatives), and writes
``BENCH_embeddings.json`` next to the repo root so future PRs have a perf
trajectory to compare against.

Each arm first fits every model once, untimed, on the smoke-sized
preset, so first-call costs do not land in the timed round.  The gate
asserts the fast pipeline is at least 3x faster in aggregate.
Both pipelines sample the same distributions (tier-1 covers the
distributional parity and the oracles' seeded bit-exactness);
here we only sanity-check that each run produced a finite embedding of
the right shape, because a perf number for a broken answer is worthless.

``--smoke`` shrinks the workload to a few seconds, skips the gate, and
does not write the JSON artefact.
"""

from __future__ import annotations

import time

import numpy as np

from _bench import bench_path, gate_block, write_bench
from repro.embeddings import DeepWalk, LINE, Node2Vec
from repro.experiments.common import EmbeddingParams
from tests.oracles import ReferenceDeepWalk, ReferenceLINE, ReferenceNode2Vec

RESULT_PATH = bench_path("embeddings")

#: The acceptance gate: aggregate fast-pipeline speedup on this workload.
MIN_SPEEDUP = 3.0

#: Smoke-mode preset: same shape as the bench workload, seconds not minutes.
SMOKE_EMBEDDING = EmbeddingParams(
    dim=8, num_walks=2, walk_length=8, window=3, negative=3, line_samples=2_000
)


#: The model classes of each arm: the library, and its oracles.
MODELS = {
    "fast": (DeepWalk, Node2Vec, LINE),
    "reference": (ReferenceDeepWalk, ReferenceNode2Vec, ReferenceLINE),
}


def _models(params: EmbeddingParams, engine: str) -> dict:
    """The three baselines configured for one arm (``fast`` or ``reference``).

    node2vec runs in the biased (p != 1) regime so the bench exercises the
    rejection-sampling path, not the uniform delegation.
    """
    deepwalk, node2vec, line = MODELS[engine]
    return {
        "deepwalk": deepwalk(
            dim=params.dim,
            num_walks=params.num_walks,
            walk_length=params.walk_length,
            window=params.window,
            negative=params.negative,
            seed=0,
        ),
        "node2vec": node2vec(
            dim=params.dim,
            num_walks=params.num_walks,
            walk_length=params.walk_length,
            window=params.window,
            negative=params.negative,
            p=0.5,
            q=2.0,
            seed=0,
        ),
        "line": line(
            dim=params.dim,
            num_samples=params.line_samples,
            negative=params.negative,
            seed=0,
        ),
    }


def _time_pipeline(graph, params: EmbeddingParams, engine: str) -> dict[str, float]:
    seconds = {}
    for name, model in _models(params, engine).items():
        started = time.perf_counter()
        model.fit(graph)
        seconds[name] = time.perf_counter() - started
        embedding = model.embedding_
        assert embedding.shape[0] == graph.num_nodes
        assert np.all(np.isfinite(embedding))
    return seconds


def test_fast_pipeline_speedup(benchmark, mag_label_graph, smoke):
    graph = mag_label_graph
    params = SMOKE_EMBEDDING if smoke else EmbeddingParams.fast()
    graph.flat()  # build the adjacency snapshot outside the timed region
    # One untimed smoke-sized fit per model and arm first, so one-off
    # first-call costs (imports, allocator and cache warm-up) stay out of
    # the timed round.
    for engine in MODELS:
        _time_pipeline(graph, SMOKE_EMBEDDING, engine)

    fast = benchmark.pedantic(
        lambda: _time_pipeline(graph, params, "fast"), rounds=1, iterations=1
    )
    reference = _time_pipeline(graph, params, "reference")
    total_fast = sum(fast.values())
    total_reference = sum(reference.values())
    speedup = total_reference / total_fast

    print()
    for name in fast:
        print(
            f"  {name:<9} fast {fast[name]:7.3f}s vs reference "
            f"{reference[name]:7.3f}s -> {reference[name] / fast[name]:.2f}x"
        )
    print(
        f"embedding perf: fast {total_fast:.3f}s vs reference "
        f"{total_reference:.3f}s -> {speedup:.2f}x (gate {MIN_SPEEDUP}x)"
        + (" [smoke: gate skipped]" if smoke else f" -> {RESULT_PATH.name}")
    )

    if smoke:
        return

    write_bench(
        "embeddings",
        workload={
            "graph": "MAG label graph (3 years)",
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "dim": params.dim,
            "num_walks": params.num_walks,
            "walk_length": params.walk_length,
            "window": params.window,
            "negative": params.negative,
            "line_samples": params.line_samples,
            "node2vec_pq": [0.5, 2.0],
        },
        results={
            "fast": {k: float(v) for k, v in fast.items()},
            "reference": {k: float(v) for k, v in reference.items()},
            "total_fast_s": float(total_fast),
            "total_reference_s": float(total_reference),
            "speedup": float(speedup),
        },
        gate=gate_block(MIN_SPEEDUP),
    )

    assert speedup >= MIN_SPEEDUP, (
        f"fast pipeline speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )
