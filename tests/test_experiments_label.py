"""Tests for the label-prediction pipeline (Figure 5, Table 2 inputs)."""

import numpy as np
import pytest

from repro.core.connectivity import label_connectivity
from repro.datasets import LoadConfig, SyntheticLOAD
from repro.experiments.common import EmbeddingParams
from repro.experiments.label_prediction import (
    LabelPredictionExperiment,
    LabelTaskConfig,
    UNLABELED,
    with_removed_labels,
)
from repro.obs.telemetry import fresh_telemetry


@pytest.fixture(scope="module")
def load_graph():
    return SyntheticLOAD(
        LoadConfig(
            num_locations=50,
            num_organizations=40,
            num_actors=60,
            num_dates=25,
            mean_degree=8,
            seed=6,
        )
    ).graph


@pytest.fixture(scope="module")
def experiment(load_graph):
    config = LabelTaskConfig(
        per_label=12,
        emax=2,
        n_repeats=2,
        train_fractions=(0.5,),
        removal_fractions=(0.0, 0.5),
        embedding_params=EmbeddingParams(
            dim=16, num_walks=2, walk_length=10, window=3, line_samples=4_000
        ),
        logreg_grid=(1.0,),
        seed=0,
    )
    return LabelPredictionExperiment(load_graph, config)


class TestWithRemovedLabels:
    def test_zero_fraction_is_identity(self, load_graph):
        assert with_removed_labels(load_graph, 0.0) is load_graph

    def test_full_removal(self, load_graph):
        relabelled = with_removed_labels(load_graph, 1.0, rng=0)
        unlabeled_index = relabelled.labelset.index(UNLABELED)
        assert np.all(relabelled.labels == unlabeled_index)

    def test_partial_removal_fraction(self, load_graph):
        relabelled = with_removed_labels(load_graph, 0.4, rng=0)
        unlabeled_index = relabelled.labelset.index(UNLABELED)
        removed = np.sum(relabelled.labels == unlabeled_index)
        assert removed == round(0.4 * load_graph.num_nodes)

    def test_structure_preserved(self, load_graph):
        relabelled = with_removed_labels(load_graph, 0.3, rng=1)
        assert relabelled.num_nodes == load_graph.num_nodes
        assert relabelled.num_edges == load_graph.num_edges
        assert relabelled.node_ids == load_graph.node_ids

    def test_original_labels_extended_not_replaced(self, load_graph):
        relabelled = with_removed_labels(load_graph, 0.3, rng=1)
        assert relabelled.labelset.names[:-1] == load_graph.labelset.names

    def test_bad_fraction(self, load_graph):
        with pytest.raises(ValueError):
            with_removed_labels(load_graph, 1.5)


class TestExperiment:
    def test_sampling_balanced(self, experiment):
        counts = np.bincount(experiment.targets)
        assert np.all(counts == 12)

    def test_subgraph_matrix_shape(self, experiment):
        X = experiment.subgraph_matrix()
        assert X.shape[0] == len(experiment.nodes)
        assert X.shape[1] > 0
        assert np.all(X >= 0)

    def test_embedding_cached(self, experiment):
        a = experiment.embedding_features("deepwalk")
        b = experiment.embedding_features("deepwalk")
        assert a is b

    def test_unknown_feature_raises(self, experiment):
        with pytest.raises(ValueError):
            experiment.feature_matrix("bogus")

    def test_training_sweep_structure(self, experiment):
        sweep = experiment.run_training_sweep(features=("subgraph", "deepwalk"))
        assert sweep.xs() == [0.5]
        assert set(sweep.features()) == {"subgraph", "deepwalk"}
        for feature in sweep.features():
            scores = sweep.scores[(feature, 0.5)]
            assert len(scores) == 2
            assert all(0.0 <= s <= 1.0 for s in scores)
        assert sweep.std("subgraph", 0.5) >= 0.0

    def test_label_removal_embeddings_flat(self, experiment):
        sweep = experiment.run_label_removal(features=("subgraph", "deepwalk"))
        flat_a = sweep.scores[("deepwalk", 0.0)]
        flat_b = sweep.scores[("deepwalk", 0.5)]
        assert flat_a == flat_b  # structure-only features ignore labels

    def test_label_removal_subgraph_varies(self, experiment):
        sweep = experiment.run_label_removal(features=("subgraph",))
        assert ("subgraph", 0.0) in sweep.scores
        assert ("subgraph", 0.5) in sweep.scores

    def test_dmax_sweep_returns_all_levels(self, experiment):
        result = experiment.run_dmax_sweep(percentiles=(90, 100))
        assert set(result) == {90.0, 100.0}
        assert all(0.0 <= v <= 1.0 for v in result.values())

    def test_empty_graph_rejected(self):
        from repro.core.graph import HeteroGraph

        graph = HeteroGraph.from_edges({"a": "A", "b": "B"}, [])
        with pytest.raises(ValueError):
            LabelPredictionExperiment(graph, LabelTaskConfig(per_label=5))


class TestSweepParallelParity:
    """Pre-drawn split seeds make the fan-out bit-identical to serial."""

    def _sweep(self, load_graph, **overrides):
        config = LabelTaskConfig(
            per_label=10,
            emax=2,
            n_repeats=2,
            train_fractions=(0.5, 0.9),
            embedding_params=EmbeddingParams(
                dim=8, num_walks=2, walk_length=8, window=3, line_samples=2_000
            ),
            seed=0,
            **overrides,
        )
        experiment = LabelPredictionExperiment(load_graph, config)
        return experiment.run_training_sweep(features=("subgraph", "deepwalk"))

    def test_parallel_sweep_scores_identical(self, load_graph):
        serial = self._sweep(load_graph, n_jobs=1)
        parallel = self._sweep(load_graph, n_jobs=2)
        assert parallel.scores == serial.scores
        assert list(parallel.scores) == list(serial.scores)

    def test_parallel_sweep_solver_counters_identical(self, load_graph):
        """Pooled workers' logistic work counters merge into the manifest."""
        names = ("logreg/problems", "logreg/newton_iters", "logreg/unconverged")
        counters = []
        for n_jobs in (1, 2):
            with fresh_telemetry() as telemetry:
                self._sweep(load_graph, n_jobs=n_jobs)
            manifest = telemetry.as_dict()["counters"]
            counters.append({name: manifest[name] for name in names})
        assert counters[0] == counters[1]
        # 2 features x 2 fractions x 2 repeats tunes, each a (grid x label)
        # batch plus a per-label refit.
        grid, labels = len(LabelTaskConfig().logreg_grid), 4
        assert counters[0]["logreg/problems"] == 8 * (grid + 1) * labels
        assert counters[0]["logreg/newton_iters"] > 0

    def test_sparse_layout_scores_identical(self, load_graph):
        dense = self._sweep(load_graph, layout="dense")
        sparse = self._sweep(load_graph, layout="sparse")
        assert sparse.scores == dense.scores

    def test_layout_validation(self, load_graph):
        with pytest.raises(ValueError):
            LabelPredictionExperiment(
                load_graph, LabelTaskConfig(layout="csc")
            )
