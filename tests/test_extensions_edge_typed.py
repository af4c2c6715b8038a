"""Tests for the edge-typed (directed / edge-heterogeneous) extension."""

import hashlib
import pickle
import random
from collections import Counter
from itertools import combinations

import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import FeatureSpace
from repro.core.graph import HeteroGraph
from repro.exceptions import CensusError, EncodingError, GraphError
from repro.extensions.edge_typed import (
    EdgeTypedGraph,
    encode_typed_subgraph,
    typed_subgraph_census,
)


@pytest.fixture
def citation_digraph():
    """Small citation digraph: papers cite older papers."""
    return EdgeTypedGraph.from_directed(
        {"p1": "P", "p2": "P", "p3": "P", "a": "A"},
        [("p2", "p1"), ("p3", "p1"), ("p3", "p2"), ("a", "p3")],
    )


@pytest.fixture
def multiplex_graph():
    """Edge-heterogeneous graph with two relation types."""
    return EdgeTypedGraph.from_edge_labels(
        {"u": "U", "v": "U", "w": "U"},
        [("u", "v", "friend"), ("v", "w", "colleague"), ("u", "w", "friend")],
    )


class TestConstruction:
    def test_directed_roles(self, citation_digraph):
        g = citation_digraph
        assert set(g.roleset.names) == {"out", "in"}
        assert g.num_nodes == 4
        assert g.num_edges == 4

    def test_edge_labels_roles(self, multiplex_graph):
        assert set(multiplex_graph.roleset.names) == {"friend", "colleague"}

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            EdgeTypedGraph.from_directed({"a": "A"}, [("a", "a")])

    def test_duplicate_or_antiparallel_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            EdgeTypedGraph.from_directed(
                {"a": "A", "b": "B"}, [("a", "b"), ("b", "a")]
            )

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError):
            EdgeTypedGraph.from_directed({"a": "A"}, [("a", "ghost")])

    def test_incident_edges_cover_degree(self, citation_digraph):
        g = citation_digraph
        total = sum(g.degree(i) for i in range(g.num_nodes))
        assert total == 2 * g.num_edges

    def test_roles_follow_edge_ids(self, citation_digraph):
        """``roles[e]`` is (role at edge_u[e], role at edge_v[e])."""
        g = citation_digraph
        flat = g.flat()
        out_role, in_role = g.roleset.index("out"), g.roleset.index("in")
        directed = {("p2", "p1"), ("p3", "p1"), ("p3", "p2"), ("a", "p3")}
        assert len(g.roles) == g.num_edges
        for eid, (role_u, role_v) in enumerate(g.roles):
            u, v = g.node_id(flat.edge_u[eid]), g.node_id(flat.edge_v[eid])
            if (u, v) in directed:
                assert (role_u, role_v) == (out_role, in_role)
            else:
                assert (v, u) in directed and (role_u, role_v) == (in_role, out_role)

    def test_pickle_round_trip_keeps_roles(self, multiplex_graph):
        copy = pickle.loads(pickle.dumps(multiplex_graph))
        assert copy.roles == multiplex_graph.roles
        assert copy.roleset == multiplex_graph.roleset
        assert copy.node_ids == multiplex_graph.node_ids
        assert copy.fingerprint() == multiplex_graph.fingerprint()
        for root in range(copy.num_nodes):
            assert typed_subgraph_census(copy, root, 3) == typed_subgraph_census(
                multiplex_graph, root, 3
            )

    def test_typed_graph_is_its_undirected_shadow(self, citation_digraph):
        """Roles do not change the structure: the fingerprint and the plain
        census equal those of ``from_edges`` over the same pairs."""
        g = citation_digraph
        shadow = HeteroGraph.from_edges(
            {"p1": "P", "p2": "P", "p3": "P", "a": "A"},
            [("p2", "p1"), ("p3", "p1"), ("p3", "p2"), ("a", "p3")],
        )
        assert g.fingerprint() == shadow.fingerprint()
        config = CensusConfig(max_edges=3)
        for root in range(g.num_nodes):
            assert subgraph_census(g, root, config) == subgraph_census(
                shadow, root, config
            )


class TestTypedEncoding:
    def test_direction_distinguishes(self):
        """u->v and v->u produce different codes for same node labels."""
        forward = encode_typed_subgraph([0, 1], [(0, 1, 0, 1)], 2, 2)
        backward = encode_typed_subgraph([0, 1], [(0, 1, 1, 0)], 2, 2)
        assert forward != backward

    def test_symmetric_roles_reduce_to_undirected(self):
        """With one role the code carries exactly the undirected info."""
        from repro.core.encoding import encode_subgraph

        labels = [0, 1, 0]
        undirected = encode_subgraph(labels, [(0, 1), (1, 2)], 2)
        typed = encode_typed_subgraph(
            labels, [(0, 1, 0, 0), (1, 2, 0, 0)], 2, 1
        )
        assert [seq[0] for seq in typed] == [seq[0] for seq in undirected]
        assert [sum(seq[1:]) for seq in typed] == [sum(seq[1:]) for seq in undirected]

    def test_order_invariance(self):
        a = encode_typed_subgraph([0, 1, 2], [(0, 1, 0, 1), (1, 2, 1, 0)], 3, 2)
        b = encode_typed_subgraph([2, 1, 0], [(2, 1, 0, 1), (1, 0, 1, 0)], 3, 2)
        assert a == b

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            encode_typed_subgraph([0], [(0, 1, 0, 0)], 1, 1)
        with pytest.raises(EncodingError):
            encode_typed_subgraph([0, 0], [(0, 1, 5, 0)], 1, 1)
        with pytest.raises(EncodingError):
            encode_typed_subgraph([5], [], 1, 1)
        with pytest.raises(EncodingError):
            encode_typed_subgraph([0, 3], [(0, 1, 0, 0)], 2, 1)

    def test_star_in_vs_out(self):
        """A node with 2 outgoing edges differs from one with 2 incoming."""
        out_star = encode_typed_subgraph(
            [0, 0, 0], [(0, 1, 0, 1), (0, 2, 0, 1)], 1, 2
        )
        in_star = encode_typed_subgraph(
            [0, 0, 0], [(0, 1, 1, 0), (0, 2, 1, 0)], 1, 2
        )
        assert out_star != in_star


def brute_force_typed(graph: EdgeTypedGraph, root: int, max_edges: int) -> Counter:
    """Exhaustive reference census over all connected typed edge subsets."""
    flat = graph.flat()
    edges = [
        (u, v, *roles) for u, v, roles in zip(flat.edge_u, flat.edge_v, graph.roles)
    ]
    counts: Counter = Counter()
    for size in range(1, max_edges + 1):
        for subset in combinations(edges, size):
            nodes = sorted({n for e in subset for n in e[:2]})
            if root not in nodes:
                continue
            adjacency = {n: set() for n in nodes}
            for u, v, _, _ in subset:
                adjacency[u].add(v)
                adjacency[v].add(u)
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                current = stack.pop()
                for neighbour in adjacency[current]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            if len(seen) != len(nodes):
                continue
            local = {n: i for i, n in enumerate(nodes)}
            code = encode_typed_subgraph(
                [graph.label_of(n) for n in nodes],
                [(local[u], local[v], role_u, role_v) for u, v, role_u, role_v in subset],
                len(graph.labelset),
                len(graph.roleset),
            )
            counts[code] += 1
    return counts


class TestTypedCensus:
    @pytest.mark.parametrize("max_edges", [1, 2, 3, 4])
    def test_matches_brute_force_digraph(self, citation_digraph, max_edges):
        for root in range(citation_digraph.num_nodes):
            expected = brute_force_typed(citation_digraph, root, max_edges)
            actual = typed_subgraph_census(citation_digraph, root, max_edges)
            assert actual == expected

    @pytest.mark.parametrize("max_edges", [1, 2, 3])
    def test_matches_brute_force_multiplex(self, multiplex_graph, max_edges):
        for root in range(multiplex_graph.num_nodes):
            expected = brute_force_typed(multiplex_graph, root, max_edges)
            actual = typed_subgraph_census(multiplex_graph, root, max_edges)
            assert actual == expected

    def test_direction_matters_in_census(self):
        """Two digraphs with the same undirected shadow but different
        directions yield different censuses."""
        chain_fwd = EdgeTypedGraph.from_directed(
            {"a": "X", "b": "X", "c": "X"}, [("a", "b"), ("b", "c")]
        )
        chain_mix = EdgeTypedGraph.from_directed(
            {"a": "X", "b": "X", "c": "X"}, [("a", "b"), ("c", "b")]
        )
        fwd = typed_subgraph_census(chain_fwd, 0, max_edges=2)
        mix = typed_subgraph_census(chain_mix, 0, max_edges=2)
        assert sum(fwd.values()) == sum(mix.values())
        assert fwd != mix

    def test_max_degree_heuristic(self, citation_digraph):
        full = typed_subgraph_census(citation_digraph, 3, max_edges=3)
        capped = typed_subgraph_census(
            citation_digraph, 3, max_edges=3, max_degree=1
        )
        assert sum(capped.values()) <= sum(full.values())

    def test_bad_root(self, citation_digraph):
        with pytest.raises(CensusError):
            typed_subgraph_census(citation_digraph, 99)

    def test_bad_max_edges(self, citation_digraph):
        with pytest.raises(CensusError):
            typed_subgraph_census(citation_digraph, 0, max_edges=0)


class TestMatrix:
    def test_aligned_matrix(self, citation_digraph):
        censuses = [typed_subgraph_census(citation_digraph, root, 2) for root in [0, 1, 2]]
        space = FeatureSpace().fit(censuses)
        matrix = space.to_matrix(censuses)
        codes = space.keys
        assert matrix.shape == (3, len(codes))
        for row, root in enumerate([0, 1, 2]):
            census = typed_subgraph_census(citation_digraph, root, 2)
            assert matrix[row].sum() == sum(census.values())


class TestTypedMasking:
    def test_masked_roots_with_same_neighbourhood_agree(self):
        """Directed parity with Section 4.3.2: after masking, two roots of
        different labels but identical typed neighbourhoods share counts."""
        graph = EdgeTypedGraph.from_directed(
            {"x": "A", "y": "B", "t": "C"},
            [("x", "t"), ("y", "t")],
        )
        cx = typed_subgraph_census(graph, graph.index("x"), 1, mask_start_label=True)
        cy = typed_subgraph_census(graph, graph.index("y"), 1, mask_start_label=True)
        assert cx == cy

    def test_unmasked_roots_differ(self):
        graph = EdgeTypedGraph.from_directed(
            {"x": "A", "y": "B", "t": "C"},
            [("x", "t"), ("y", "t")],
        )
        cx = typed_subgraph_census(graph, graph.index("x"), 1)
        cy = typed_subgraph_census(graph, graph.index("y"), 1)
        assert cx != cy

    def test_masking_preserves_totals(self, citation_digraph):
        for root in range(citation_digraph.num_nodes):
            masked = typed_subgraph_census(
                citation_digraph, root, 3, mask_start_label=True
            )
            plain = typed_subgraph_census(citation_digraph, root, 3)
            assert sum(masked.values()) == sum(plain.values())


def _digest(censuses) -> str:
    return hashlib.sha256(
        repr([sorted(c.items()) for c in censuses]).encode()
    ).hexdigest()[:16]


def _random_edge_labelled_graph() -> EdgeTypedGraph:
    """40 nodes labelled A/B, 100 unique pairs, one of x/y/z per pair."""
    rng = random.Random(1)
    labels = {i: "AB"[rng.randrange(2)] for i in range(40)}
    pairs = set()
    while len(pairs) < 100:
        a, b = rng.randrange(40), rng.randrange(40)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [(a, b, rng.choice("xyz")) for a, b in sorted(pairs)]
    return EdgeTypedGraph.from_edge_labels(labels, edges)


class TestTypedCensusDigests:
    """Typed census contents, pinned when the census ran on its own
    set-based graph; the shared-run-state census must reproduce them."""

    @pytest.fixture(scope="class")
    def mag_digraph(self):
        from repro.datasets import MagConfig, SyntheticMAG

        world = SyntheticMAG(MagConfig())
        digraph = world.build_rank_digraph("KDD", 2013)
        return digraph, [digraph.index(i) for i in world.institutions]

    def test_directed_mag(self, mag_digraph):
        digraph, roots = mag_digraph
        censuses = [typed_subgraph_census(digraph, root, 3) for root in roots]
        assert _digest(censuses) == "4afb7eb4695d0d09"

    def test_directed_mag_capped_and_masked(self, mag_digraph):
        digraph, roots = mag_digraph
        censuses = [
            typed_subgraph_census(
                digraph, root, 3, max_degree=10, mask_start_label=True
            )
            for root in roots
        ]
        assert _digest(censuses) == "af049278eafd6e93"

    def test_random_edge_labelled(self):
        graph = _random_edge_labelled_graph()
        censuses = [typed_subgraph_census(graph, root, 3, max_degree=4) for root in range(40)]
        assert _digest(censuses) == "97b60942af6c7308"
