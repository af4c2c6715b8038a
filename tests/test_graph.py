"""Unit tests for the HeteroGraph data structure."""

import numpy as np
import pytest

from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet
from repro.exceptions import GraphError


class TestConstruction:
    def test_basic_counts(self, publication_graph):
        assert publication_graph.num_nodes == 7
        assert publication_graph.num_edges == 8

    def test_isolated_nodes_allowed(self):
        g = HeteroGraph.from_edges({"a": "A", "b": "B"}, [])
        assert g.num_nodes == 2
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self loop"):
            HeteroGraph.from_edges({"a": "A"}, [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            HeteroGraph.from_edges(
                {"a": "A", "b": "B"}, [("a", "b"), ("b", "a")]
            )

    def test_unknown_node_in_edge_rejected(self):
        with pytest.raises(GraphError, match="unknown node"):
            HeteroGraph.from_edges({"a": "A"}, [("a", "ghost")])

    def test_explicit_labelset(self):
        ls = LabelSet(("X", "Y", "Z"))
        g = HeteroGraph.from_edges({"a": "Y"}, [], labelset=ls)
        assert g.labelset is ls
        assert g.label_of(0) == 1


class TestAccessors:
    def test_index_id_roundtrip(self, publication_graph):
        for node_id in publication_graph.node_ids:
            assert publication_graph.node_id(publication_graph.index(node_id)) == node_id

    def test_unknown_id_raises(self, publication_graph):
        with pytest.raises(GraphError):
            publication_graph.index("ghost")

    def test_node_id_out_of_range_raises(self, publication_graph):
        with pytest.raises(GraphError):
            publication_graph.node_id(99)

    def test_label_name_of(self, publication_graph):
        assert publication_graph.label_name_of("i1") == "I"
        assert publication_graph.label_name_of("p2") == "P"

    def test_degrees(self, publication_graph):
        degrees = publication_graph.degrees()
        p1 = publication_graph.index("p1")
        assert degrees[p1] == 4
        assert degrees.sum() == 2 * publication_graph.num_edges

    def test_labels_readonly(self, publication_graph):
        labels = publication_graph.labels
        with pytest.raises(ValueError):
            labels[0] = 2

    def test_label_counts(self, publication_graph):
        counts = publication_graph.label_counts()
        ls = publication_graph.labelset
        assert counts[ls.index("I")] == 2
        assert counts[ls.index("A")] == 3
        assert counts[ls.index("P")] == 2

    def test_nodes_with_label(self, publication_graph):
        ls = publication_graph.labelset
        papers = publication_graph.nodes_with_label(ls.index("P"))
        names = {publication_graph.node_id(int(i)) for i in papers}
        assert names == {"p1", "p2"}


class TestAdjacency:
    def test_neighbors_sorted_by_label(self, publication_graph):
        g = publication_graph
        p1 = g.index("p1")
        labels = [g.label_of(int(v)) for v in g.neighbors(p1)]
        assert labels == sorted(labels)

    def test_neighbors_with_label(self, publication_graph):
        g = publication_graph
        p1 = g.index("p1")
        authors = g.neighbors_with_label(p1, g.labelset.index("A"))
        assert {g.node_id(int(a)) for a in authors} == {"a1", "a2", "a3"}

    def test_label_degree(self, publication_graph):
        g = publication_graph
        a3 = g.index("a3")
        assert g.label_degree(a3, g.labelset.index("P")) == 2
        assert g.label_degree(a3, g.labelset.index("I")) == 1
        assert g.label_degree(a3, g.labelset.index("A")) == 0

    def test_label_runs_cover_all(self, publication_graph):
        g = publication_graph
        for v in range(g.num_nodes):
            runs = [g.neighbors_with_label(v, label) for label in range(len(g.labelset))]
            assert np.array_equal(np.concatenate(runs), g.neighbors(v))

    def test_has_edge_symmetric(self, publication_graph):
        g = publication_graph
        for u, v in g.edges():
            assert g.has_edge(u, v)
            assert g.has_edge(v, u)

    def test_has_edge_negative(self, publication_graph):
        g = publication_graph
        assert not g.has_edge(g.index("i1"), g.index("p1"))

    def test_edges_each_once(self, publication_graph):
        edges = list(publication_graph.edges())
        assert len(edges) == publication_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)


def _per_node_pack(neighbour_sets, labels, num_labels):
    """One (label, index) sort and one label count per node."""
    adjacency, label_starts = [], []
    for neighbours in neighbour_sets:
        row = np.array(sorted(neighbours, key=lambda w: (labels[w], w)), dtype=np.int64)
        starts = np.zeros(num_labels + 1, dtype=np.int64)
        np.cumsum(np.bincount(labels[row], minlength=num_labels), out=starts[1:])
        adjacency.append(row)
        label_starts.append(starts)
    return adjacency, label_starts


class TestPackAdjacency:
    """The one-lexsort packing equals a per-node sort, and graph
    fingerprints (census store keys) did not move with it."""

    @pytest.mark.parametrize("num_labels", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_per_node_sort(self, num_labels, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, num_labels, size=n)
        neighbour_sets = [set() for _ in range(n)]
        for u, v in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist():
            if u != v:
                neighbour_sets[u].add(v)
                neighbour_sets[v].add(u)
        isolated = [v for v in range(n) if not neighbour_sets[v]]
        packed = HeteroGraph._pack_adjacency(neighbour_sets, labels, num_labels)
        expected = _per_node_pack(neighbour_sets, labels, num_labels)
        for got, want in zip(packed, expected):
            assert len(got) == len(want) == n
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert all(packed[0][v].size == 0 for v in isolated)

    def test_graph_without_edges(self):
        adjacency, label_starts = HeteroGraph._pack_adjacency(
            [set(), set()], np.array([0, 1]), 2
        )
        assert [row.size for row in adjacency] == [0, 0]
        assert all(np.array_equal(s, [0, 0, 0]) for s in label_starts)

    def test_fingerprints_recorded_before_vectorising(self, publication_graph):
        from repro.datasets import MagConfig, SyntheticMAG

        assert publication_graph.fingerprint() == "c41f6311816a07d5e5483e16fe6e09c2"
        config = MagConfig(
            num_institutions=14, authors_per_institution=4, papers_per_conference_year=16
        )
        mag = SyntheticMAG(config)
        graph = mag.build_label_graph(years=mag.config.years[-2:])
        assert graph.fingerprint() == "2c51cbd1dd80e0bfb4b9bdbe69a78332"


class TestMutableHeteroGraph:
    def _graph(self):
        from repro.core.graph import MutableHeteroGraph

        base = HeteroGraph.from_edges(
            {"a": "A", "b": "B", "c": "C", "d": "A"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        return base, MutableHeteroGraph.from_graph(base)

    def test_from_graph_leaves_source_untouched(self):
        base, mutable = self._graph()
        fp = base.fingerprint()
        mutable.add_edge("a", "c")
        assert base.num_edges == 3
        assert not base.has_edge(base.index("a"), base.index("c"))
        assert base.fingerprint() == fp

    def test_no_stale_flat_after_mutation(self):
        # The regression this guards: flat() and fingerprint() are
        # cached, and a mutation must invalidate both — a stale flat
        # adjacency would hand the census a pre-mutation graph.
        _, mutable = self._graph()
        flat_before = mutable.flat()
        fp_before = mutable.fingerprint()
        mutable.add_edge("a", "c")
        flat_after = mutable.flat()
        fp_after = mutable.fingerprint()
        assert fp_after != fp_before
        assert flat_after is not flat_before
        assert len(flat_after.neighbors) == len(flat_before.neighbors) + 2
        mutable.remove_edge("a", "c")
        assert mutable.fingerprint() == fp_before

    def test_add_remove_round_trip_is_identity(self):
        base, mutable = self._graph()
        mutable.add_edge("a", "d")
        mutable.remove_edge("a", "d")
        assert mutable.num_edges == base.num_edges
        for node in range(base.num_nodes):
            assert np.array_equal(mutable.neighbors(node), base.neighbors(node))
            for label in range(len(base.labelset)):
                assert np.array_equal(
                    mutable.neighbors_with_label(node, label),
                    base.neighbors_with_label(node, label),
                )

    def test_neighbor_runs_stay_label_sorted(self):
        _, mutable = self._graph()
        mutable.add_edge("a", "c")
        mutable.add_edge("a", "d")
        a = mutable.index("a")
        neighbors = mutable.neighbors(a)
        labels = [int(mutable.labels[v]) for v in neighbors]
        assert labels == sorted(labels)
        for label in range(len(mutable.labelset)):
            run = mutable.neighbors_with_label(a, label)
            assert np.array_equal(run, np.sort(run))

    def test_validation_errors(self):
        _, mutable = self._graph()
        with pytest.raises(GraphError):
            mutable.add_edge("a", "a")  # self loop
        with pytest.raises(GraphError):
            mutable.add_edge("a", "b")  # duplicate
        with pytest.raises(GraphError):
            mutable.add_edge("a", "nope")  # unknown node
        with pytest.raises(GraphError):
            mutable.remove_edge("a", "c")  # no such edge
        with pytest.raises(GraphError):
            mutable.remove_edge("a", "a")

    def test_snapshot_is_immutable_copy(self):
        from repro.core.graph import MutableHeteroGraph

        _, mutable = self._graph()
        mutable.add_edge("a", "c")
        frozen = mutable.snapshot()
        assert type(frozen) is HeteroGraph
        assert frozen.fingerprint() == mutable.fingerprint()
        mutable.remove_edge("a", "c")
        assert frozen.has_edge(frozen.index("a"), frozen.index("c"))
        assert isinstance(mutable, MutableHeteroGraph)

    def test_pickle_round_trip(self):
        import pickle

        from repro.core.graph import MutableHeteroGraph

        _, mutable = self._graph()
        mutable.add_edge("a", "c")
        clone = pickle.loads(pickle.dumps(mutable))
        assert type(clone) is MutableHeteroGraph
        assert clone.fingerprint() == mutable.fingerprint()
        clone.add_edge("a", "d")  # still mutable after the round trip
        assert clone.num_edges == mutable.num_edges + 1
