"""Tests for the sampled census engine and its pipeline threading.

Covers the estimator's statistical contract (unbiasedness, convergence
with budget, CI coverage across randomized seeds), the determinism
contract (fixed seed ⇒ bit-identical estimates at any worker count;
the remote case lives in ``test_dist_remote.py``), the cache-key separation between sampled and
exact artifacts, and the cross-cap regression for exact censuses cached
without a ``max_subgraphs`` cap.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.cache import census_config_key, census_store_config, stored_census
from repro.core.census import CensusConfig, census_total, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.sampled import (
    SampledCensus,
    SampledCensusConfig,
    SampledCensusReport,
    run_sampled_census,
    sampled_config_key,
)
from repro.exceptions import CensusError, FeatureError
from repro.runtime import VALID_ENGINES, ArtifactStore, RunContext
from repro.runtime.store import STAGE_CENSUS


@pytest.fixture
def config() -> CensusConfig:
    return CensusConfig(max_edges=3)


# ---------------------------------------------------------------------------
# Statistical contract
# ---------------------------------------------------------------------------
class TestEstimatorStatistics:
    def test_estimates_converge_to_exact_counts(
        self, publication_graph, config
    ):
        """With a generous budget every pattern estimate is near exact."""
        exact = subgraph_census(publication_graph, 0, config, engine="fast")
        sampled = subgraph_census(
            publication_graph,
            0,
            config,
            engine="sampled",
            sampled=SampledCensusConfig(budget=20_000, seed=3),
        )
        assert set(sampled) == set(exact)
        for key, true_count in exact.items():
            assert sampled[key] == pytest.approx(true_count, rel=0.15)
        assert census_total(sampled) == pytest.approx(
            census_total(exact), rel=0.05
        )

    def test_total_estimate_is_unbiased(self, dense_two_label_graph, config):
        """The mean over many independent seeds matches the exact total.

        K4 exercises the exclusion-discipline replay: without banning the
        skipped siblings at every probe choice, overlapping subgraphs are
        over-counted and this mean drifts high.
        """
        exact_total = census_total(
            subgraph_census(dense_two_label_graph, 0, config, engine="fast")
        )
        seeds = 300
        mean = (
            sum(
                census_total(
                    subgraph_census(
                        dense_two_label_graph,
                        0,
                        config,
                        engine="sampled",
                        sampled=SampledCensusConfig(budget=64, seed=seed),
                    )
                )
                for seed in range(seeds)
            )
            / seeds
        )
        assert mean == pytest.approx(exact_total, rel=0.05)

    def test_ci_coverage_meets_contract(self, dense_two_label_graph, config):
        """``estimate ± half_width`` covers the truth at the promised rate.

        The empirical coverage over randomized seeds must reach the
        configured confidence minus three binomial standard errors —
        a deterministic bound that fails with probability ~1e-3 if the
        intervals are honest, and reliably if they are too narrow.
        """
        exact_total = census_total(
            subgraph_census(dense_two_label_graph, 0, config, engine="fast")
        )
        confidence = 0.95
        seeds = 120
        hits = 0
        for seed in range(seeds):
            est = subgraph_census(
                dense_two_label_graph,
                0,
                config,
                engine="sampled",
                sampled=SampledCensusConfig(
                    budget=128, seed=seed, confidence=confidence
                ),
            )
            if abs(census_total(est) - exact_total) <= est.report.half_width:
                hits += 1
        floor = confidence - 3 * (confidence * (1 - confidence) / seeds) ** 0.5
        assert hits / seeds >= floor

    def test_trivial_subgraph_counted_exactly(self, publication_graph, config):
        """The root-only pattern is deterministic, so it is never estimated."""
        from tests.conftest import brute_force_census

        with_trivial = brute_force_census(
            publication_graph, 0, config.max_edges, include_trivial=True
        )
        without = brute_force_census(
            publication_graph, 0, config.max_edges, include_trivial=False
        )
        (trivial_key,) = set(with_trivial) - set(without)
        trivial_config = CensusConfig(max_edges=3, include_trivial=True)
        sampled = subgraph_census(
            publication_graph,
            0,
            trivial_config,
            engine="sampled",
            sampled=SampledCensusConfig(budget=16, seed=0),
        )
        assert sampled[trivial_key] == 1.0
        # And it stays excluded under the default config, like the exact
        # engines.
        default = subgraph_census(
            publication_graph,
            0,
            config,
            engine="sampled",
            sampled=SampledCensusConfig(budget=16, seed=0),
        )
        assert trivial_key not in default

    def test_early_stop_with_rel_err_target(self, publication_graph, config):
        generous = SampledCensusConfig(budget=50_000, seed=0, rel_err=0.2)
        est = run_sampled_census(publication_graph, 0, config, generous)
        assert est.report.early_stopped
        assert est.report.draws < generous.budget
        assert (
            est.report.half_width
            <= generous.rel_err * est.report.total_estimate
        )

    def test_report_fields(self, publication_graph, config):
        cfg = SampledCensusConfig(budget=100, seed=5)
        est = run_sampled_census(publication_graph, 2, config, cfg)
        report = est.report
        assert isinstance(report, SampledCensusReport)
        assert report.root == 2
        assert report.draws == 100
        assert report.budget == 100
        assert report.total_estimate == pytest.approx(census_total(est))
        assert report.half_width >= 0.0
        assert report.confidence == cfg.confidence
        assert not report.early_stopped


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_fixed_seed_is_reproducible(self, publication_graph, config):
        cfg = SampledCensusConfig(budget=200, seed=11)
        first = subgraph_census(
            publication_graph, 1, config, engine="sampled", sampled=cfg
        )
        second = subgraph_census(
            publication_graph, 1, config, engine="sampled", sampled=cfg
        )
        assert first == second
        assert first.report == second.report

    def test_seed_and_budget_change_the_estimate(
        self, dense_two_label_graph, config
    ):
        base = subgraph_census(
            dense_two_label_graph,
            0,
            config,
            engine="sampled",
            sampled=SampledCensusConfig(budget=50, seed=0),
        )
        other_seed = subgraph_census(
            dense_two_label_graph,
            0,
            config,
            engine="sampled",
            sampled=SampledCensusConfig(budget=50, seed=1),
        )
        assert base != other_seed

    def test_extractor_bit_identical_across_n_jobs(
        self, publication_graph, config
    ):
        nodes = list(range(publication_graph.num_nodes))
        results = {}
        for n_jobs in (1, 2):
            extractor = SubgraphFeatureExtractor(
                config,
                sampled=SampledCensusConfig(budget=150, seed=4),
                ctx=RunContext(engine="sampled", n_jobs=n_jobs),
            )
            results[n_jobs] = extractor.census_many(publication_graph, nodes)
        assert results[1] == results[2]
        for a, b in zip(results[1], results[2]):
            assert a.report == b.report

    def test_duplicate_roots_fan_out_with_reports(
        self, publication_graph, config
    ):
        extractor = SubgraphFeatureExtractor(
            config,
            sampled=SampledCensusConfig(budget=60, seed=0),
            ctx=RunContext(engine="sampled"),
        )
        first, second = extractor.census_many(publication_graph, [3, 3])
        assert first == second
        assert first is not second
        assert second.report == first.report


# ---------------------------------------------------------------------------
# Cache keying
# ---------------------------------------------------------------------------
class TestCacheKeys:
    def test_sampled_and_exact_keys_never_collide(self, config):
        sampled = SampledCensusConfig(budget=100, seed=0)
        assert census_config_key(config) != census_config_key(config, sampled)

    def test_exact_keys_unchanged_by_the_sampled_suffix(self, config):
        """``sampled=None`` must keep historical store keys byte-identical."""
        key = census_config_key(config)
        assert "sampled" not in key

    def test_sampled_key_varies_with_each_knob(self, config):
        base = SampledCensusConfig(budget=100, seed=0)
        variants = [
            SampledCensusConfig(budget=200, seed=0),
            SampledCensusConfig(budget=100, seed=1),
            SampledCensusConfig(budget=100, seed=0, rel_err=0.1),
            SampledCensusConfig(budget=100, seed=0, confidence=0.99),
            SampledCensusConfig(budget=100, seed=0, min_draws=8),
        ]
        keys = {sampled_config_key(v) for v in variants}
        keys.add(sampled_config_key(base))
        assert len(keys) == len(variants) + 1

    def test_cache_roundtrips_sampled_census_with_report(
        self, publication_graph, config
    ):
        sampled = SampledCensusConfig(budget=80, seed=2)
        census = subgraph_census(
            publication_graph, 0, config, engine="sampled", sampled=sampled
        )
        store = ArtifactStore()
        store.put(
            publication_graph.fingerprint(),
            STAGE_CENSUS,
            census_store_config(config, 0, sampled),
            census,
        )
        # The exact slot for the same (graph, config, root) stays empty.
        assert stored_census(store, publication_graph, config, 0) is None
        hit = stored_census(store, publication_graph, config, 0, sampled)
        assert hit == census
        assert hit.report == census.report

    def test_extractor_store_separates_sampled_from_exact(
        self, publication_graph, config
    ):
        from repro.runtime import ArtifactStore

        store = ArtifactStore()
        exact_extractor = SubgraphFeatureExtractor(
            config, ctx=RunContext(engine="fast", store=store)
        )
        exact = exact_extractor.census_many(publication_graph, [0])[0]
        sampled_extractor = SubgraphFeatureExtractor(
            config,
            sampled=SampledCensusConfig(budget=40, seed=0),
            ctx=RunContext(engine="sampled", store=store),
        )
        estimate = sampled_extractor.census_many(publication_graph, [0])[0]
        assert isinstance(estimate, SampledCensus)
        assert estimate != exact
        # Warm reruns hit their own artifacts bit-identically.
        assert exact_extractor.census_many(publication_graph, [0])[0] == exact
        rerun = sampled_extractor.census_many(publication_graph, [0])[0]
        assert rerun == estimate
        assert rerun.report == estimate.report


class TestCrossCapCache:
    """An uncapped exact artifact must honour a later call's cap."""

    @staticmethod
    def _uncapped_store(graph, config) -> tuple[ArtifactStore, object]:
        store = ArtifactStore()
        census = SubgraphFeatureExtractor(
            config, ctx=RunContext(store=store)
        ).census_many(graph, [0])[0]
        return store, census

    def test_uncapped_hit_served_when_under_cap(
        self, publication_graph, config
    ):
        store, census = self._uncapped_store(publication_graph, config)
        total = census_total(census)
        capped = CensusConfig(max_edges=3, max_subgraphs=total)
        assert stored_census(store, publication_graph, capped, 0) == census
        extractor = SubgraphFeatureExtractor(capped, ctx=RunContext(store=store))
        assert extractor.census_many(publication_graph, [0]) == [census]

    def test_uncapped_hit_raises_when_over_cap(
        self, publication_graph, config
    ):
        store, census = self._uncapped_store(publication_graph, config)
        cap = census_total(census) - 1
        capped = CensusConfig(max_edges=3, max_subgraphs=cap)
        with pytest.raises(CensusError, match="max_subgraphs"):
            stored_census(store, publication_graph, capped, 0)
        extractor = SubgraphFeatureExtractor(capped, ctx=RunContext(store=store))
        with pytest.raises(CensusError, match="max_subgraphs"):
            extractor.census_many(publication_graph, [0])

    def test_cap_matches_live_behaviour(self, publication_graph, config):
        """The cache raises exactly when an uncached call would have."""
        census = subgraph_census(publication_graph, 0, config)
        cap = census_total(census) - 1
        capped = CensusConfig(max_edges=3, max_subgraphs=cap)
        with pytest.raises(CensusError, match="max_subgraphs"):
            subgraph_census(publication_graph, 0, capped)

    def test_max_subgraphs_ignored_by_sampled_engine(
        self, publication_graph
    ):
        capped = CensusConfig(max_edges=3, max_subgraphs=1)
        est = subgraph_census(
            publication_graph,
            0,
            capped,
            engine="sampled",
            sampled=SampledCensusConfig(budget=50, seed=0),
        )
        assert census_total(est) > 1


# ---------------------------------------------------------------------------
# Validation and plumbing
# ---------------------------------------------------------------------------
class TestValidation:
    def test_invalid_engine_error_names_all_engines(
        self, publication_graph, config
    ):
        with pytest.raises(CensusError) as excinfo:
            subgraph_census(publication_graph, 0, config, engine="bogus")
        message = str(excinfo.value)
        for engine in VALID_ENGINES:
            assert engine in message

    def test_sampled_config_rejected_by_exact_engines(
        self, publication_graph, config
    ):
        with pytest.raises(CensusError, match="sampled"):
            subgraph_census(
                publication_graph,
                0,
                config,
                engine="fast",
                sampled=SampledCensusConfig(),
            )

    def test_extractor_rejects_sampled_with_exact_engine(self, config):
        with pytest.raises(FeatureError, match="sampled"):
            SubgraphFeatureExtractor(
                config,
                sampled=SampledCensusConfig(),
                ctx=RunContext(engine="fast"),
            )

    def test_extractor_defaults_sampled_config(self, config):
        extractor = SubgraphFeatureExtractor(
            config, ctx=RunContext(engine="sampled")
        )
        assert extractor.sampled == SampledCensusConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"rel_err": 0.0},
            {"rel_err": -1.0},
            {"confidence": 1.0},
            {"confidence": 0.0},
            {"min_draws": 1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(CensusError):
            SampledCensusConfig(**kwargs)

    def test_telemetry_counters_recorded(self, publication_graph, config):
        from repro.obs import fresh_telemetry

        with fresh_telemetry() as telemetry:
            subgraph_census(
                publication_graph,
                0,
                config,
                engine="sampled",
                sampled=SampledCensusConfig(budget=40, seed=0),
            )
            snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["census/sampled_roots"] == 1
        assert counters["census/sampled_draws"] == 40


    def test_manifest_half_width_distribution(self, publication_graph, config):
        from repro.obs import fresh_telemetry
        from repro.obs.manifest import build_manifest

        roots = list(range(publication_graph.num_nodes))
        sampled = SampledCensusConfig(budget=30, seed=3)
        with fresh_telemetry() as telemetry:
            SubgraphFeatureExtractor(
                config, sampled=sampled, ctx=RunContext(engine="sampled")
            ).census_many(publication_graph, roots)
            manifest = build_manifest("census", telemetry=telemetry)
        widths = [
            run_sampled_census(publication_graph, root, config, sampled).report.half_width
            for root in roots
        ]
        stats = manifest["distributions"]["census/sampled_half_width"]
        assert stats["count"] == len(roots)
        assert stats["max"] == max(widths) > 0
        assert "census/sampled_half_width" not in manifest["timers"]
        assert "census/sampled_half_width_max" not in manifest["gauges"]


class TestSampledCensusContainer:
    def test_copy_preserves_report(self, publication_graph, config):
        est = run_sampled_census(
            publication_graph, 0, config, SampledCensusConfig(budget=30)
        )
        for clone in (est.copy(), copy.copy(est), copy.deepcopy(est)):
            assert isinstance(clone, SampledCensus)
            assert clone == est
            assert clone.report == est.report

    def test_pickle_roundtrip_preserves_report(
        self, publication_graph, config
    ):
        est = run_sampled_census(
            publication_graph, 0, config, SampledCensusConfig(budget=30)
        )
        clone = pickle.loads(pickle.dumps(est))
        assert isinstance(clone, SampledCensus)
        assert clone == est
        assert clone.report == est.report
