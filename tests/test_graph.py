"""Unit tests for the HeteroGraph data structure."""

import hashlib
from itertools import accumulate

import numpy as np
import pytest

from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet
from repro.exceptions import GraphError


def fingerprint_adjacency(labelset: LabelSet, labels, rows) -> str:
    """The graph content hash in row form: alphabet, labels, then each
    row's int64 bytes followed by ``b"|"`` (a reference for
    :meth:`FlatGraph.fingerprint`, which hashes the rows as one buffer)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(tuple(labelset.names)).encode())
    digest.update(np.asarray(labels, dtype=np.int64).tobytes())
    for row in rows:
        digest.update(np.asarray(row, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


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

    def test_label_degree(self, publication_graph):
        g = publication_graph
        a3 = g.index("a3")
        degrees = dict(g.flat().label_degrees_of(a3))
        assert degrees == {g.labelset.index("P"): 2, g.labelset.index("I"): 1}

    def test_label_runs_cover_all(self, publication_graph):
        g = publication_graph
        for v in range(g.num_nodes):
            row = list(g.neighbors(v))
            assert row == sorted(row, key=lambda w: (g.label_of(w), w))
            assert sorted(row) == sorted(
                w for w in range(g.num_nodes) if w != v and g.has_edge(v, w)
            )

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


def _per_node_rows(neighbour_sets, labels):
    """One (label, index) sort per node."""
    return [sorted(neighbours, key=lambda w: (labels[w], w)) for neighbours in neighbour_sets]


class TestPackAdjacency:
    """The one-lexsort snapshot of ``from_edges`` equals a per-node sort,
    and graph fingerprints (census store keys) did not move with it."""

    @pytest.mark.parametrize("num_labels", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_per_node_sort(self, num_labels, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, num_labels, size=n).tolist()
        neighbour_sets = [set() for _ in range(n)]
        edges = []
        for u, v in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist():
            if u != v and v not in neighbour_sets[u]:
                neighbour_sets[u].add(v)
                neighbour_sets[v].add(u)
                edges.append((u, v))
        graph = HeteroGraph.from_edges(
            {v: str(labels[v]) for v in range(n)},
            edges,
            labelset=LabelSet(tuple(map(str, range(num_labels)))),
        )
        flat = graph.flat()
        expected = _per_node_rows(neighbour_sets, labels)
        assert flat.degrees == [len(row) for row in expected]
        assert flat.indptr == [0, *accumulate(flat.degrees)]
        assert [list(graph.neighbors(v)) for v in range(n)] == expected
        # Edge ids: rank among the entries with node < neighbour, row order.
        forward = [(u, v) for u in range(n) for v in expected[u] if u < v]
        assert list(zip(flat.edge_u, flat.edge_v)) == forward
        ids = {edge: eid for eid, edge in enumerate(forward)}
        assert flat.edge_ids == [
            ids[min(u, v), max(u, v)] for u in range(n) for v in expected[u]
        ]

    def test_graph_without_edges(self):
        flat = HeteroGraph.from_edges({"a": "A", "b": "B"}, []).flat()
        assert flat.degrees == [0, 0] and flat.indptr == [0, 0, 0]
        assert flat.neighbors == flat.edge_ids == flat.edge_u == flat.edge_v == []

    def test_empty_row_fingerprints_recorded_before_one_buffer(self):
        # Rows are hashed as one buffer with b"|" after each row; a graph
        # with no rows, and one whose rows are all empty, are where building
        # that buffer can drop or misplace a separator.
        empty = HeteroGraph.from_edges({}, [], labelset=LabelSet(("A", "B")))
        assert empty.fingerprint() == "a494e21b2f9097e79f0864e5d9c4c953"
        edgeless = HeteroGraph.from_edges({"a": "A", "b": "B", "c": "A"}, [])
        assert edgeless.fingerprint() == "b90249c88983047cfcadfe2a8d85105e"

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
        assert mutable.flat() == base.flat()
        assert mutable.fingerprint() == base.fingerprint()

    def test_neighbor_runs_stay_label_sorted(self):
        _, mutable = self._graph()
        mutable.add_edge("a", "c")
        mutable.add_edge("a", "d")
        a = mutable.index("a")
        neighbors = list(mutable.neighbors(a))
        assert neighbors == sorted(neighbors, key=lambda w: (mutable.label_of(w), w))

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


class TestPatchedSnapshots:
    """A mutation patches the previous ``flat()`` snapshot instead of
    rebuilding it; the patch must equal a fresh build, keep edge ids
    dense, carry only valid label degrees, and leave held snapshots
    alone.  The bytes ``fingerprint()`` hashes are patched too; the hash
    must equal a fresh build's and ``fingerprint_adjacency`` over the rows."""

    @staticmethod
    def _fresh(mutable) -> HeteroGraph:
        ids = mutable.node_ids
        return HeteroGraph.from_edges(
            {node: mutable.labelset.name(mutable.label_of(i)) for i, node in enumerate(ids)},
            [(ids[u], ids[v]) for u, v in mutable.edges()],
            labelset=mutable.labelset,
        )

    def _assert_matches_fresh(self, mutable) -> None:
        fresh = self._fresh(mutable).flat()
        flat = mutable.flat()
        for name in ("indptr", "neighbors", "labels", "degrees"):
            assert getattr(flat, name) == getattr(fresh, name), name
        # Dense ids: exactly one id per live edge, each naming its endpoints.
        assert len(flat.edge_u) == len(flat.edge_v) == mutable.num_edges
        assert sorted(flat.edge_ids) == sorted(2 * list(range(mutable.num_edges)))
        for node in range(mutable.num_nodes):
            for pos in range(flat.indptr[node], flat.indptr[node + 1]):
                eid = flat.edge_ids[pos]
                other = flat.neighbors[pos]
                assert (flat.edge_u[eid], flat.edge_v[eid]) == (
                    min(node, other), max(node, other)
                )
        for node, pairs in flat.label_degrees.items():
            assert pairs == fresh.label_degrees_of(node), node
        self._assert_fingerprint_is_fresh(mutable)

    def _assert_fingerprint_is_fresh(self, mutable) -> None:
        rows = (mutable.neighbors(node) for node in range(mutable.num_nodes))
        fingerprint = mutable.fingerprint()
        assert fingerprint == self._fresh(mutable).fingerprint()
        assert fingerprint == fingerprint_adjacency(mutable.labelset, mutable.flat().labels, rows)

    @staticmethod
    def _mutable(seed: int):
        from repro.core.graph import MutableHeteroGraph
        from repro.datasets.synthetic import affinity_graph

        return MutableHeteroGraph.from_graph(affinity_graph(
            label_sizes={"a": 12, "b": 10, "c": 8},
            affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
            mean_degree=3.0,
            rng=np.random.default_rng(seed),
        ))

    def test_remove_passing_the_last_id_keeps_the_fingerprint_fresh(self):
        mutable = self._mutable(6)
        mutable.fingerprint()  # the body is built, then patched
        flat, ids = mutable.flat(), mutable.node_ids
        last = len(flat.edge_u) - 1
        u, v = flat.edge_u[0], flat.edge_v[0]
        moved = (flat.edge_u[last], flat.edge_v[last])
        mutable.remove_edge(ids[u], ids[v])
        flat = mutable.flat()
        assert (flat.edge_u[0], flat.edge_v[0]) == moved  # id 0 passed on
        self._assert_matches_fresh(mutable)
        mutable.add_edge(ids[v], ids[u])
        self._assert_matches_fresh(mutable)

    def test_unpickled_graph_fingerprints_after_a_write(self):
        import pickle

        mutable = self._mutable(7)
        ids = mutable.node_ids
        u, v = next(iter(mutable.edges()))
        mutable.remove_edge(ids[u], ids[v])
        fingerprint = mutable.fingerprint()
        clone = pickle.loads(pickle.dumps(mutable))
        assert getattr(clone, "_bytes", None) is None  # the body is not pickled
        assert clone.fingerprint() == fingerprint
        for graph in (mutable, clone):
            graph.add_edge(ids[u], ids[v])
            self._assert_fingerprint_is_fresh(graph)
        assert clone.fingerprint() == mutable.fingerprint() != fingerprint

    def test_random_mutations_match_a_fresh_build(self):
        import copy
        import random

        from repro.core.census import CensusConfig, subgraph_census
        from repro.core.graph import MutableHeteroGraph
        from repro.datasets.synthetic import affinity_graph

        base = affinity_graph(
            label_sizes={"a": 12, "b": 10, "c": 8},
            affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
            mean_degree=3.0,
            rng=np.random.default_rng(4),
        )
        mutable = MutableHeteroGraph.from_graph(base)
        ids = mutable.node_ids
        rng = random.Random(4)
        edges = set(mutable.edges())
        config = CensusConfig(max_edges=3, max_degree=5)
        held = mutable.flat()
        held_lists = copy.deepcopy(vars(held))
        # Add, remove and re-add one pair first: its id is retired, then
        # reissued, while the other ids stay dense.
        u, v = next((u, v) for u in range(mutable.num_nodes) for v in range(u + 1, mutable.num_nodes)
                    if (u, v) not in edges)
        for step in (mutable.add_edge, mutable.remove_edge, mutable.add_edge):
            step(ids[u], ids[v])
            self._assert_matches_fresh(mutable)
        edges.add((u, v))
        for cycle in range(1000):
            if edges and rng.random() < 0.5:
                u, v = rng.choice(sorted(edges))
                mutable.remove_edge(ids[u], ids[v])
                edges.discard((u, v))
            else:
                while True:
                    u, v = sorted(rng.sample(range(mutable.num_nodes), 2))
                    if (u, v) not in edges:
                        break
                mutable.add_edge(ids[u], ids[v])
                edges.add((u, v))
            for root in (u, v, rng.randrange(mutable.num_nodes)):
                subgraph_census(mutable, root, config)  # fills label degrees
            self._assert_matches_fresh(mutable)
            if cycle % 100 == 0:
                cold = self._fresh(mutable)
                for root in range(mutable.num_nodes):
                    assert list(subgraph_census(mutable, root, config).items()) == list(
                        subgraph_census(cold, root, config).items()
                    )
        # The snapshot held across every mutation was never edited.
        assert {
            name: value for name, value in vars(held).items() if name != "label_degrees"
        } == {name: value for name, value in held_lists.items() if name != "label_degrees"}

    def test_edges_follow_rows_not_edge_ids(self):
        import random

        from repro.core.graph import MutableHeteroGraph
        from repro.datasets.synthetic import affinity_graph

        base = affinity_graph(
            label_sizes={"a": 12, "b": 10, "c": 8},
            affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
            mean_degree=3.0,
            rng=np.random.default_rng(5),
        )
        mutable = MutableHeteroGraph.from_graph(base)
        ids = mutable.node_ids
        rng = random.Random(5)
        edges = set(base.edges())
        for u, v in rng.sample(sorted(edges), 10):
            mutable.remove_edge(ids[u], ids[v])
            edges.discard((u, v))
        while len(edges) < base.num_edges:
            u, v = sorted(rng.sample(range(base.num_nodes), 2))
            if (u, v) not in edges:
                mutable.add_edge(ids[v], ids[u])
                edges.add((u, v))
        rebuilt = HeteroGraph.from_edges(
            {node: base.labelset.name(base.label_of(i)) for i, node in enumerate(ids)},
            [(ids[u], ids[v]) for u, v in sorted(edges)],
            labelset=base.labelset,
        )
        flat = mutable.flat()
        assert list(zip(flat.edge_u, flat.edge_v)) != list(rebuilt.edges())
        assert list(mutable.edges()) == list(rebuilt.edges())

    def test_label_degree_memo_is_not_pickled(self):
        import pickle

        flat = HeteroGraph.from_edges(
            {"a": "A", "b": "B", "c": "A"}, [("a", "b"), ("b", "c")]
        ).flat()
        assert flat.label_degrees_of(1) == ((0, 2),)
        clone = pickle.loads(pickle.dumps(flat))
        assert clone == flat and clone.label_degrees == {}
