"""Property-based tests for the edge-typed extension and walk corpora."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import HeteroGraph
from repro.extensions.edge_typed import (
    EdgeTypedGraph,
    encode_typed_subgraph,
    typed_subgraph_census,
)
from tests.test_extensions_edge_typed import brute_force_typed


@st.composite
def small_digraphs(draw, max_nodes=5):
    """Connected labelled digraphs as (node_labels, directed_edges)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = {f"v{i}": draw(st.sampled_from("AB")) for i in range(n)}
    # Spanning tree for connectivity, random orientations.
    edges = []
    for j in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=j - 1))
        if draw(st.booleans()):
            edges.append((f"v{parent}", f"v{j}"))
        else:
            edges.append((f"v{j}", f"v{parent}"))
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    extras = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3))
    present = {tuple(sorted((int(u[1:]), int(v[1:])))) for u, v in edges}
    for i, j in extras:
        if (i, j) not in present:
            present.add((i, j))
            if draw(st.booleans()):
                edges.append((f"v{i}", f"v{j}"))
            else:
                edges.append((f"v{j}", f"v{i}"))
    return labels, edges


class TestTypedCensusProperties:
    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, digraph):
        labels, edges = digraph
        graph = EdgeTypedGraph.from_directed(labels, edges)
        for root in range(graph.num_nodes):
            expected = brute_force_typed(graph, root, 3)
            assert typed_subgraph_census(graph, root, 3) == expected

    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_total_matches_undirected_census(self, digraph):
        """Directions refine classes but never change the subgraph count."""
        from repro.core.census import CensusConfig, census_total, subgraph_census

        labels, edges = digraph
        typed = EdgeTypedGraph.from_directed(labels, edges)
        shadow = HeteroGraph.from_edges(labels, edges)
        for root in range(typed.num_nodes):
            typed_counts = typed_subgraph_census(typed, root, 3)
            shadow_counts = subgraph_census(
                shadow, shadow.index(f"v{root}"), CensusConfig(max_edges=3)
            )
            assert sum(typed_counts.values()) == census_total(shadow_counts)
            assert len(typed_counts) >= len(shadow_counts)

    @given(small_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_reversing_all_edges_is_a_bijection_of_codes(self, digraph):
        """Reversing every edge maps the census to an equal-size census with
        identical counts (swap the out/in roles in each code)."""
        labels, edges = digraph
        forward = EdgeTypedGraph.from_directed(labels, edges)
        backward = EdgeTypedGraph.from_directed(
            labels, [(v, u) for u, v in edges]
        )
        for root in range(forward.num_nodes):
            f = typed_subgraph_census(forward, root, 3)
            b = typed_subgraph_census(backward, root, 3)
            assert sorted(f.values()) == sorted(b.values())


class TestWalkProperties:
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_walks_on_cycles_never_stop_early(self, n, seed):
        from repro.embeddings.walks import uniform_random_walks

        labels = {f"v{i}": "X" for i in range(n)}
        edges = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        graph = HeteroGraph.from_edges(labels, edges)
        walks = uniform_random_walks(graph, num_walks=1, walk_length=6, rng=seed)
        assert walks.shape == (n, 6)
        assert (walks >= 0).all()  # every node has degree 2: no -1 padding

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_alias_table_preserves_support(self, seed):
        from repro.embeddings.alias import AliasTable

        rng = np.random.default_rng(seed)
        weights = rng.random(6)
        weights[rng.integers(0, 6)] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        table = AliasTable(weights)
        draws = table.sample(np.random.default_rng(seed + 1), 2000)
        support = set(np.flatnonzero(weights > 0).tolist())
        assert set(draws.tolist()) <= support
