"""Unit tests for random-walk corpora (the batched walkers + the oracle).

Parametrised ``engine`` cases run the library (``"fast"``) and the
per-node oracle of ``tests/oracles/walks.py`` (``"reference"``).
"""

import numpy as np
import pytest

from repro.core.graph import HeteroGraph
from repro.embeddings import walks as walks_module
from repro.embeddings.walks import (
    node2vec_walks,
    uniform_random_walks,
    walk_lengths,
    walk_node_frequencies,
)
from repro.runtime.context import RunContext
from tests.oracles import ENGINES, reference_node2vec_walks, reference_uniform_walks

WALKS = {"fast": uniform_random_walks, "reference": reference_uniform_walks}
NODE2VEC = {"fast": node2vec_walks, "reference": reference_node2vec_walks}


@pytest.fixture
def line_graph():
    """Path a-b-c-d."""
    return HeteroGraph.from_edges(
        {"a": "X", "b": "X", "c": "X", "d": "X"},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )


@pytest.fixture
def path10():
    return HeteroGraph.from_edges(
        {f"v{i}": "X" for i in range(10)},
        [(f"v{i}", f"v{i + 1}") for i in range(9)],
    )


def _assert_walks_follow_edges(graph, walks):
    for row in walks:
        row = row[row >= 0]
        for u, v in zip(row, row[1:]):
            assert graph.has_edge(int(u), int(v))


class TestUniformWalks:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matrix_shape_and_dtype(self, line_graph, engine):
        walks = WALKS[engine](
            line_graph, num_walks=3, walk_length=5, rng=0
        )
        assert walks.shape == (3 * line_graph.num_nodes, 5)
        assert walks.dtype == np.int64

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_padding_on_connected_graph(self, line_graph, engine):
        walks = WALKS[engine](
            line_graph, num_walks=2, walk_length=7, rng=0
        )
        assert (walks >= 0).all()
        assert (walk_lengths(walks) == 7).all()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_steps_follow_edges(self, line_graph, engine):
        walks = WALKS[engine](
            line_graph, num_walks=2, walk_length=10, rng=1
        )
        _assert_walks_follow_edges(line_graph, walks)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_isolated_node_pads_with_sentinel(self, engine):
        graph = HeteroGraph.from_edges({"a": "X", "b": "X", "i": "X"}, [("a", "b")])
        walks = WALKS[engine](
            graph, num_walks=1, walk_length=5, rng=0
        )
        isolated = walks[walks[:, 0] == graph.index("i")]
        assert isolated.shape[0] == 1
        assert (isolated[:, 1:] == -1).all()
        assert walk_lengths(isolated).tolist() == [1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restricted_start_nodes(self, line_graph, engine):
        walks = WALKS[engine](
            line_graph, num_walks=2, walk_length=3, rng=0, nodes=[0]
        )
        assert walks.shape == (2, 3)
        assert (walks[:, 0] == 0).all()

    def test_bad_params(self, line_graph):
        with pytest.raises(ValueError):
            uniform_random_walks(line_graph, num_walks=0)
        with pytest.raises(ValueError):
            uniform_random_walks(line_graph, walk_length=0)
        with pytest.raises(TypeError):
            uniform_random_walks(line_graph, engine="turbo")
        with pytest.raises(ValueError):
            uniform_random_walks(line_graph, ctx=RunContext(n_jobs=-1))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seeded_bit_exactness(self, line_graph, engine):
        a = WALKS[engine](line_graph, num_walks=2, walk_length=5, rng=3)
        b = WALKS[engine](line_graph, num_walks=2, walk_length=5, rng=3)
        assert np.array_equal(a, b)

    def test_reference_engine_pinned_corpus(self, line_graph):
        """The reference walker is the behavioural oracle: its seeded output
        is pinned so accidental stream changes are caught."""
        walks = reference_uniform_walks(
            line_graph, num_walks=1, walk_length=4, rng=42
        )
        again = reference_uniform_walks(
            line_graph, num_walks=1, walk_length=4, rng=42
        )
        assert np.array_equal(walks, again)
        assert sorted(walks[:, 0].tolist()) == [0, 1, 2, 3]

    def test_engines_agree_distributionally(self, line_graph):
        """Both engines sample the same uniform-walk distribution: interior
        transition frequencies match within sampling noise."""
        counts = {}
        for engine in ENGINES:
            walks = WALKS[engine](
                line_graph, num_walks=400, walk_length=5, rng=11
            )
            transitions = np.zeros((4, 4))
            for row in walks:
                for u, v in zip(row, row[1:]):
                    transitions[u, v] += 1
            counts[engine] = transitions / transitions.sum()
        assert np.allclose(counts["fast"], counts["reference"], atol=0.02)

    def test_n_jobs_invariance(self, line_graph):
        base = uniform_random_walks(line_graph, num_walks=4, walk_length=6, rng=5)
        for n_jobs in (2, 4):
            sharded = uniform_random_walks(
                line_graph, num_walks=4, walk_length=6, rng=5,
                ctx=RunContext(n_jobs=n_jobs),
            )
            assert np.array_equal(base, sharded)

    def test_generator_rng_accepted(self, line_graph):
        rng = np.random.default_rng(9)
        walks = uniform_random_walks(line_graph, num_walks=2, walk_length=5, rng=rng)
        assert walks.shape == (8, 5)


class TestNode2VecWalks:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_default_params_match_uniform(self, line_graph, engine):
        """p = q = 1 short-circuits to the uniform walker (same stream)."""
        uniform = WALKS[engine](
            line_graph, num_walks=2, walk_length=5, rng=9
        )
        biased = NODE2VEC[engine](
            line_graph, num_walks=2, walk_length=5, p=1, q=1, rng=9
        )
        assert np.array_equal(uniform, biased)

    def test_degenerate_delegation_fires(self, line_graph, monkeypatch):
        """The p == q == 1 fast path really does call uniform_random_walks."""
        calls = []
        real = walks_module.uniform_random_walks

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(walks_module, "uniform_random_walks", spy)
        node2vec_walks(line_graph, num_walks=2, walk_length=5, p=1.0, q=1.0, rng=0)
        assert len(calls) == 1
        node2vec_walks(line_graph, num_walks=2, walk_length=5, p=0.5, q=1.0, rng=0)
        assert len(calls) == 1  # biased regime does NOT delegate

    @pytest.mark.parametrize("engine", ENGINES)
    def test_steps_follow_edges(self, line_graph, engine):
        walks = NODE2VEC[engine](
            line_graph, num_walks=2, walk_length=8, p=0.5, q=2.0, rng=2
        )
        _assert_walks_follow_edges(line_graph, walks)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_high_p_discourages_backtracking(self, path10, engine):
        """On a path graph a huge p makes immediate returns rare."""
        returns = total = 0
        walks = NODE2VEC[engine](
            path10, num_walks=20, walk_length=10, p=1000.0, q=1.0, rng=0
        )
        for walk in walks:
            walk = walk[walk >= 0]
            for i in range(2, len(walk)):
                total += 1
                if walk[i] == walk[i - 2]:
                    returns += 1
        # interior path nodes only return when forced (dead ends aside)
        assert returns / total < 0.2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_low_p_encourages_backtracking(self, path10, engine):
        """p -> 0 forces returns; for the fast engine this regime also
        exercises the exact per-node fallback after rejection rounds."""
        returns = total = 0
        walks = NODE2VEC[engine](
            path10, num_walks=20, walk_length=10, p=0.001, q=1.0, rng=0
        )
        for walk in walks:
            walk = walk[walk >= 0]
            for i in range(2, len(walk)):
                total += 1
                if walk[i] == walk[i - 2]:
                    returns += 1
        assert returns / total > 0.8

    def test_engines_agree_distributionally_biased(self):
        """Fast rejection sampling and the reference exact draw sample the
        same second-order distribution (triangle + pendant graph)."""
        graph = HeteroGraph.from_edges(
            {"a": "X", "b": "X", "c": "X", "d": "X"},
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
        )
        counts = {}
        for engine in ENGINES:
            walks = NODE2VEC[engine](
                graph, num_walks=600, walk_length=4, p=0.5, q=2.0, rng=21
            )
            transitions = np.zeros((4, 4, 4))
            for row in walks:
                row = row[row >= 0]
                for i in range(2, len(row)):
                    transitions[row[i - 2], row[i - 1], row[i]] += 1
            counts[engine] = transitions / transitions.sum()
        assert np.allclose(counts["fast"], counts["reference"], atol=0.02)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seeded_bit_exactness(self, path10, engine):
        a = NODE2VEC[engine](path10, 2, 6, p=0.5, q=2.0, rng=4)
        b = NODE2VEC[engine](path10, 2, 6, p=0.5, q=2.0, rng=4)
        assert np.array_equal(a, b)

    def test_n_jobs_invariance_biased(self, path10):
        base = node2vec_walks(path10, num_walks=4, walk_length=6, p=0.5, q=2.0, rng=8)
        sharded = node2vec_walks(
            path10, num_walks=4, walk_length=6, p=0.5, q=2.0, rng=8,
            ctx=RunContext(n_jobs=4),
        )
        assert np.array_equal(base, sharded)

    def test_isolated_start_biased(self):
        graph = HeteroGraph.from_edges(
            {"a": "X", "b": "X", "c": "X", "i": "X"},
            [("a", "b"), ("b", "c")],
        )
        walks = node2vec_walks(graph, 2, 6, p=0.5, q=2.0, rng=0)
        isolated = walks[walks[:, 0] == graph.index("i")]
        assert (isolated[:, 1:] == -1).all()

    def test_bad_pq(self, line_graph):
        with pytest.raises(ValueError):
            node2vec_walks(line_graph, p=0.0)
        with pytest.raises(ValueError):
            node2vec_walks(line_graph, q=-1.0)


class TestFrequencies:
    def test_counts_matrix_corpus(self):
        walks = np.array([[0, 1, 0, -1], [2, 1, -1, -1]], dtype=np.int64)
        frequencies = walk_node_frequencies(walks, 4)
        assert frequencies.tolist() == [2.0, 2.0, 1.0, 0.0]

    def test_counts_legacy_list_corpus(self):
        walks = [np.array([0, 1, 0]), np.array([2])]
        frequencies = walk_node_frequencies(walks, 4)
        assert frequencies.tolist() == [2.0, 1.0, 1.0, 0.0]

    def test_matches_between_forms(self, line_graph):
        matrix = uniform_random_walks(line_graph, num_walks=3, walk_length=5, rng=0)
        rows = [row[row >= 0] for row in matrix]
        assert np.array_equal(
            walk_node_frequencies(matrix, 4), walk_node_frequencies(rows, 4)
        )


class TestWalkLengths:
    def test_lengths(self):
        walks = np.array([[3, 2, 1], [4, -1, -1]], dtype=np.int64)
        assert walk_lengths(walks).tolist() == [3, 1]
