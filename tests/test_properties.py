"""Property-based tests (hypothesis) for the core invariants.

Random labelled graphs are generated as (labels, edges) pairs; the
strategies keep sizes small so the brute-force reference census stays fast.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.census import CensusConfig, census_total, subgraph_census
from repro.core.encoding import (
    code_num_edges,
    code_num_nodes,
    code_to_string,
    encode_subgraph,
    string_to_code,
)
from repro.core.graph import HeteroGraph
from repro.core.hashing import RollingSubgraphHash
from repro.core.isomorphism import SmallGraph, are_isomorphic
from repro.core.labels import LabelSet
from repro.ml.metrics import macro_f1, ndcg_at
from tests.conftest import brute_force_census


@st.composite
def small_labelled_graphs(draw, max_nodes=6, num_labels=3, connected=False):
    """(labels, edges) with optional connectivity via a random spanning tree."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = tuple(
        draw(st.integers(min_value=0, max_value=num_labels - 1)) for _ in range(n)
    )
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if connected and n > 1:
        tree_edges = []
        for j in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=j - 1))
            tree_edges.append((parent, j))
        extra = draw(st.lists(st.sampled_from(possible), unique=True, max_size=4))
        edges = sorted(set(tree_edges) | set(extra))
    else:
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=8)) if possible else []
    return labels, tuple(edges)


def _graph_from(labels, edges) -> HeteroGraph:
    node_labels = {f"n{i}": str(label) for i, label in enumerate(labels)}
    named = [(f"n{u}", f"n{v}") for u, v in edges]
    labelset = LabelSet(tuple(str(i) for i in range(max(labels) + 1)))
    return HeteroGraph.from_edges(node_labels, named, labelset=labelset)


class TestEncodingProperties:
    @given(small_labelled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_encoding_invariant_under_permutation(self, graph):
        labels, edges = graph
        n = len(labels)
        rng = np.random.default_rng(sum(labels) + len(edges))
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        permuted_labels = [labels[int(perm[i])] for i in range(n)]
        permuted_edges = [(int(inverse[u]), int(inverse[v])) for u, v in edges]
        a = encode_subgraph(labels, edges, 3)
        b = encode_subgraph(permuted_labels, permuted_edges, 3)
        assert a == b

    @given(small_labelled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_encoding_counts_nodes_and_edges(self, graph):
        labels, edges = graph
        code = encode_subgraph(labels, edges, 3)
        assert code_num_nodes(code) == len(labels)
        assert code_num_edges(code) == len(edges)

    @given(small_labelled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_string_roundtrip(self, graph):
        labels, edges = graph
        labelset = LabelSet(("a", "b", "c"))
        code = encode_subgraph(labels, edges, 3)
        assert string_to_code(code_to_string(code, labelset), labelset) == code

    @given(small_labelled_graphs(max_nodes=5), small_labelled_graphs(max_nodes=5))
    @settings(max_examples=100, deadline=None)
    def test_isomorphic_implies_equal_codes(self, g1, g2):
        """Soundness direction of the pseudo-canonical encoding: isomorphic
        graphs always share a code (collisions only go the other way)."""
        a = SmallGraph(g1[0], g1[1])
        b = SmallGraph(g2[0], g2[1])
        if are_isomorphic(a, b):
            assert a.encode(3) == b.encode(3)


class TestHashProperties:
    @given(small_labelled_graphs())
    @settings(max_examples=100, deadline=None)
    def test_hash_consistent_between_formulations(self, graph):
        labels, edges = graph
        hasher = RollingSubgraphHash(3)
        code = encode_subgraph(labels, edges, 3)
        assert hasher.hash_edges(labels, edges) == hasher.hash_code(code)

    @given(small_labelled_graphs(connected=True))
    @settings(max_examples=100, deadline=None)
    def test_incremental_removal_returns_to_start(self, graph):
        labels, edges = graph
        hasher = RollingSubgraphHash(3)
        value = 0
        for u, v in edges:
            value = hasher.add_edge(value, labels[u], labels[v])
        for u, v in reversed(edges):
            value = hasher.remove_edge(value, labels[u], labels[v])
        assert value == 0


class TestCensusProperties:
    @given(small_labelled_graphs(max_nodes=6, connected=True))
    @settings(max_examples=60, deadline=None)
    def test_census_matches_brute_force(self, graph):
        labels, edges = graph
        hetero = _graph_from(labels, edges)
        config = CensusConfig(max_edges=3)
        expected = brute_force_census(hetero, 0, 3)
        assert subgraph_census(hetero, 0, config) == expected

    @given(small_labelled_graphs(max_nodes=6, connected=True))
    @settings(max_examples=40, deadline=None)
    def test_census_monotone_in_emax(self, graph):
        labels, edges = graph
        hetero = _graph_from(labels, edges)
        small = subgraph_census(hetero, 0, CensusConfig(max_edges=2))
        large = subgraph_census(hetero, 0, CensusConfig(max_edges=4))
        assert census_total(large) >= census_total(small)
        for key, count in small.items():
            assert large[key] == count  # adding size never changes small counts

    @given(small_labelled_graphs(max_nodes=6, connected=True))
    @settings(max_examples=40, deadline=None)
    def test_census_key_modes_consistent_totals(self, graph):
        labels, edges = graph
        hetero = _graph_from(labels, edges)
        canonical = subgraph_census(hetero, 0, CensusConfig(max_edges=3))
        hashed = subgraph_census(hetero, 0, CensusConfig(max_edges=3, key="hash"))
        strings = subgraph_census(hetero, 0, CensusConfig(max_edges=3, key="string"))
        assert census_total(canonical) == census_total(hashed) == census_total(strings)
        assert len(strings) == len(canonical)

    @given(small_labelled_graphs(max_nodes=6, connected=True))
    @settings(max_examples=40, deadline=None)
    def test_grouping_heuristic_no_effect_on_counts(self, graph):
        labels, edges = graph
        hetero = _graph_from(labels, edges)
        on = subgraph_census(hetero, 0, CensusConfig(max_edges=3, group_by_label=True))
        off = subgraph_census(hetero, 0, CensusConfig(max_edges=3, group_by_label=False))
        assert on == off


class TestMetricProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=30),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_ndcg_bounded_and_perfect_on_truth(self, relevances, seed):
        rel = np.asarray(relevances)
        rng = np.random.default_rng(seed)
        scores = rng.random(rel.size)
        value = ndcg_at(rel, scores, n=10)
        assert 0.0 <= value <= 1.0
        assert ndcg_at(rel, rel, n=10) == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_macro_f1_bounded_and_perfect_on_truth(self, y, seed):
        y_true = np.asarray(y)
        rng = np.random.default_rng(seed)
        y_pred = rng.permutation(y_true)
        value = macro_f1(y_true, y_pred)
        assert 0.0 <= value <= 1.0
        assert macro_f1(y_true, y_true) == 1.0
