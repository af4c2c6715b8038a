"""Perf gate: the sparse + parallel experiment pipeline vs. the baseline.

Runs the Table-1 rank-prediction grid end to end on a small MAG world
twice: once on the fast path (the library as it ships: sparse count
matrices, per-year feature reuse across families, batched forest growth,
resolved ``n_jobs``) and once on the baseline path built from the
``tests/oracles/`` reference implementations (dense matrices, an
experiment whose family lookup always rebuilds, per-tree oracle forests,
sequential grid).  Writes ``BENCH_experiments.json`` next to the repo
root so future PRs have a perf trajectory to compare against.

The gate asserts the fast path is at least 2.5x faster end to end AND
that both paths produce the *identical* NDCG grid — the sparse layout,
the feature cache, the batched trees, and the process fan-out are all
bit-exact reformulations, so any drift is a bug, not noise.

``--smoke`` shrinks the workload to seconds, skips the gate, and does
not write the JSON artefact.
"""

from __future__ import annotations

import time
from dataclasses import replace
from unittest import mock

from _bench import bench_path, gate_block, write_bench
from repro.datasets.mag import MagConfig, SyntheticMAG
from repro.experiments import rank_prediction
from repro.experiments.rank_prediction import (
    RankPredictionExperiment,
    RankTaskConfig,
)
from tests.oracles import RebuildingRankExperiment, ReferenceRandomForestRegressor

RESULT_PATH = bench_path("experiments")

#: The acceptance gate: end-to-end fast-path speedup on this workload.
MIN_SPEEDUP = 2.5

#: Families whose Table-1 columns the bench reproduces.  ``combined``
#: matters for the perf story: without feature reuse it recomputes both
#: count families from scratch.
FAMILIES = ("classic", "subgraph", "combined")

REGRESSORS = ("LinRegr", "BayRidge", "RanForest")

#: The fast path under test: the library's experiment and forest.
FAST = dict(
    config=dict(layout="sparse", n_jobs=None),
    experiment=RankPredictionExperiment,
    forest=rank_prediction.RandomForestRegressor,
)

#: The baseline: the pipeline as it stood before the sparse/reuse/batched
#: optimisations, rebuilt from the oracles.
BASELINE = dict(
    config=dict(layout="dense", n_jobs=1),
    experiment=RebuildingRankExperiment,
    forest=ReferenceRandomForestRegressor,
)


def _describe(arm: dict) -> dict:
    return {
        **arm["config"],
        "experiment": arm["experiment"].__name__,
        "forest": arm["forest"].__name__,
    }


def _world(smoke: bool) -> SyntheticMAG:
    if smoke:
        config = MagConfig(
            num_institutions=14,
            authors_per_institution=4,
            papers_per_conference_year=16,
            seed=7,
        )
    else:
        config = MagConfig(
            num_institutions=30,
            authors_per_institution=6,
            papers_per_conference_year=40,
            seed=7,
        )
    return SyntheticMAG(config)


def _task(mag: SyntheticMAG, smoke: bool, **overrides) -> RankTaskConfig:
    base = RankTaskConfig(
        train_years=(2013, 2014) if smoke else (2011, 2012, 2013, 2014),
        test_year=2015,
        conferences=tuple(mag.config.conferences[:2]),
        emax=2 if smoke else 3,
        forest_trees=30 if smoke else 300,
        seed=0,
    )
    return replace(base, **overrides)


def _run_arm(mag: SyntheticMAG, smoke: bool, arm: dict):
    config = _task(mag, smoke, **arm["config"])
    experiment = arm["experiment"](mag, config)
    with mock.patch.object(rank_prediction, "RandomForestRegressor", arm["forest"]):
        started = time.perf_counter()
        result = experiment.run(families=FAMILIES, regressors=REGRESSORS)
        return time.perf_counter() - started, result


def test_experiment_pipeline_speedup(benchmark, smoke):
    mag = _world(smoke)

    # Interleave the arms and keep the fastest round of each: wall-clock
    # noise on a shared box easily reaches +-20%, which would swamp the
    # gate if each arm were timed once.
    rounds = 1 if smoke else 2
    fast_s, fast = benchmark.pedantic(
        lambda: _run_arm(mag, smoke, FAST), rounds=1, iterations=1
    )
    baseline_s, baseline = _run_arm(mag, smoke, BASELINE)
    for _ in range(rounds - 1):
        fast_s = min(fast_s, _run_arm(mag, smoke, FAST)[0])
        baseline_s = min(baseline_s, _run_arm(mag, smoke, BASELINE)[0])
    speedup = baseline_s / fast_s

    # Score parity first: a perf number for a different answer is worthless.
    assert fast.ndcg == baseline.ndcg, (
        "fast-path NDCG grid differs from the baseline grid"
    )

    print()
    print(
        f"experiment perf: fast {fast_s:.2f}s vs baseline {baseline_s:.2f}s "
        f"-> {speedup:.2f}x (gate {MIN_SPEEDUP}x)"
        + (" [smoke: gate skipped]" if smoke else f" -> {RESULT_PATH.name}")
    )

    if smoke:
        return

    write_bench(
        "experiments",
        workload={
            "world": "synthetic MAG, 30 institutions",
            "conferences": list(_task(mag, smoke).conferences),
            "families": list(FAMILIES),
            "regressors": list(REGRESSORS),
            "train_years": list(_task(mag, smoke).train_years),
            "forest_trees": _task(mag, smoke).forest_trees,
            "emax": _task(mag, smoke).emax,
        },
        results={
            "fast": _describe(FAST),
            "baseline": _describe(BASELINE),
            "fast_s": float(fast_s),
            "baseline_s": float(baseline_s),
            "speedup": float(speedup),
            "scores_identical": True,
        },
        gate=gate_block(MIN_SPEEDUP),
    )

    assert speedup >= MIN_SPEEDUP, (
        f"experiment pipeline speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )
