"""Tests for the rank-prediction pipeline (Figure 3 / Table 1)."""

import numpy as np
import pytest

from repro.datasets import MagConfig, SyntheticMAG
from repro.experiments import rank_prediction
from repro.experiments.common import EmbeddingParams
from repro.experiments.rank_prediction import (
    RankPredictionExperiment,
    RankTaskConfig,
)
from tests.oracles import RebuildingRankExperiment, ReferenceRandomForestRegressor


@pytest.fixture(scope="module")
def experiment():
    mag = SyntheticMAG(
        MagConfig(
            num_institutions=12,
            authors_per_institution=3,
            papers_per_conference_year=15,
            conferences=("KDD",),
            years=tuple(range(2011, 2016)),
            seed=5,
        )
    )
    config = RankTaskConfig(
        train_years=(2013, 2014),
        test_year=2015,
        emax=3,
        forest_trees=20,
        select_large=20,
        embedding_params=EmbeddingParams(
            dim=16, num_walks=3, walk_length=10, window=4, line_samples=5_000
        ),
        seed=0,
    )
    return RankPredictionExperiment(mag, config)


@pytest.fixture(scope="module")
def small_result(experiment):
    return experiment.run(
        families=("classic", "subgraph", "combined", "line"),
        regressors=("LinRegr", "RanForest", "BayRidge"),
    )


class TestFeatureFamilies:
    def test_classic_matrices_aligned(self, experiment):
        by_year = experiment.feature_family("KDD", "classic")
        assert set(by_year) == {2013, 2014, 2015}
        widths = {matrix.shape for matrix in by_year.values()}
        assert len(widths) == 1
        assert next(iter(widths))[0] == 12

    def test_subgraph_train_test_same_width(self, experiment):
        by_year = experiment.feature_family("KDD", "subgraph")
        widths = {matrix.shape[1] for matrix in by_year.values()}
        assert len(widths) == 1
        assert next(iter(widths)) > 5

    def test_combined_width_is_sum(self, experiment):
        classic = experiment.feature_family("KDD", "classic")
        subgraph = experiment.feature_family("KDD", "subgraph")
        combined = experiment.feature_family("KDD", "combined")
        assert (
            combined[2015].shape[1]
            == classic[2015].shape[1] + subgraph[2015].shape[1]
        )

    def test_embedding_family_shape(self, experiment):
        by_year = experiment.feature_family("KDD", "line")
        assert by_year[2015].shape == (12, 16)

    def test_unknown_family_raises(self, experiment):
        with pytest.raises(ValueError):
            experiment.feature_family("KDD", "nonsense")

    def test_unknown_regressor_raises(self, experiment):
        with pytest.raises(ValueError):
            experiment._fit_predict("SVM", np.ones((4, 2)), np.ones(4), np.ones((2, 2)))


class TestResults:
    def test_grid_complete(self, small_result):
        assert len(small_result.ndcg) == 4 * 3  # families x regressors, 1 conf

    def test_scores_in_unit_interval(self, small_result):
        for score in small_result.ndcg.values():
            assert 0.0 <= score <= 1.0

    def test_average_table(self, small_result):
        table = small_result.average_table()
        assert ("RanForest", "subgraph") in table
        assert table[("RanForest", "subgraph")] == small_result.average(
            "RanForest", "subgraph"
        )

    def test_average_unknown_raises(self, small_result):
        with pytest.raises(KeyError):
            small_result.average("RanForest", "nope")

    def test_conferences_listed(self, small_result):
        assert small_result.conferences() == ["KDD"]

    def test_feature_timings_recorded(self, small_result):
        assert any(key.startswith("features/subgraph") for key in small_result.timings)

    def test_informative_features_beat_noise(self, small_result):
        """Classic and subgraph features must beat the weakest embedding for
        the strong regressors on this planted-signal world."""
        informative = min(
            small_result.average("RanForest", "classic"),
            small_result.average("RanForest", "subgraph"),
        )
        assert informative > 0.3


class TestImportancePath:
    def test_forest_and_space_returned(self, experiment):
        model, space = experiment.fit_forest_on_family("KDD", "subgraph")
        assert model.feature_importances_.shape[0] == len(space)
        assert len(space) > 0

    def test_non_subgraph_family_has_no_space(self, experiment):
        model, space = experiment.fit_forest_on_family("KDD", "classic")
        assert space is None
        assert model.feature_importances_ is not None


class TestSparseAndParallelParity:
    """The sparse layout, feature reuse, the batched forest engine and the
    process grid fan-out must all reproduce the sequential dense scores."""

    @pytest.fixture(scope="class")
    def two_conference_world(self):
        return SyntheticMAG(
            MagConfig(
                num_institutions=10,
                authors_per_institution=3,
                papers_per_conference_year=12,
                conferences=("KDD", "ICML"),
                years=tuple(range(2012, 2016)),
                seed=5,
            )
        )

    def _run(self, mag, experiment=RankPredictionExperiment, **overrides):
        config = RankTaskConfig(
            train_years=(2013, 2014),
            test_year=2015,
            emax=2,
            forest_trees=10,
            seed=0,
            **overrides,
        )
        return experiment(mag, config).run(
            families=("classic", "subgraph", "combined"),
            regressors=("LinRegr", "RanForest"),
        )

    def test_sparse_layout_scores_identical(self, two_conference_world):
        dense = self._run(two_conference_world, layout="dense")
        sparse = self._run(two_conference_world, layout="sparse")
        assert sparse.ndcg == dense.ndcg

    def test_no_reuse_scores_identical(self, two_conference_world):
        reused = self._run(two_conference_world)
        rebuilt = self._run(two_conference_world, experiment=RebuildingRankExperiment)
        assert rebuilt.ndcg == reused.ndcg

    def test_parallel_grid_scores_and_order_identical(self, two_conference_world):
        serial = self._run(two_conference_world, n_jobs=1)
        parallel = self._run(two_conference_world, n_jobs=2)
        assert parallel.ndcg == serial.ndcg
        assert list(parallel.ndcg) == list(serial.ndcg)

    def test_parallel_grid_keeps_partitions(self, two_conference_world):
        """Grid workers census through the parent's shard count, and a
        parent store draws one warning (workers do not use it)."""
        import logging

        from repro.obs.telemetry import fresh_telemetry
        from repro.runtime import ArtifactStore, RunContext

        config = RankTaskConfig(
            train_years=(2013, 2014), test_year=2015, emax=2, seed=0, n_jobs=2
        )
        experiment = RankPredictionExperiment(
            two_conference_world,
            config,
            RunContext(partitions=2, store=ArtifactStore()),
        )
        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = warnings.append
        logger = logging.getLogger("repro.experiments.rank_prediction")
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            with fresh_telemetry() as telemetry:
                experiment.run(families=("subgraph",), regressors=("LinRegr",))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        assert telemetry.annotations["dist/partitions"] == "2"
        assert len(warnings) == 1
        assert "artifact store" in warnings[0].getMessage()

    def test_forest_engines_scores_identical(self, two_conference_world, monkeypatch):
        fast = self._run(two_conference_world)
        monkeypatch.setattr(
            rank_prediction, "RandomForestRegressor", ReferenceRandomForestRegressor
        )
        reference = self._run(two_conference_world)
        assert reference.ndcg == fast.ndcg

    def test_layout_validation(self, two_conference_world):
        with pytest.raises(ValueError):
            self._run(two_conference_world, layout="csc")
