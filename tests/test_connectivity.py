"""Unit tests for label connectivity graphs (Figure 1A / Figure 2)."""

import numpy as np

from repro.core.connectivity import label_connectivity
from repro.core.graph import HeteroGraph


class TestLabelConnectivity:
    def test_counts_symmetric(self, publication_graph):
        lc = label_connectivity(publication_graph)
        assert np.array_equal(lc.edge_counts, lc.edge_counts.T)

    def test_publication_counts(self, publication_graph):
        lc = label_connectivity(publication_graph)
        ls = publication_graph.labelset
        i, a, p = ls.index("I"), ls.index("A"), ls.index("P")
        assert lc.edge_counts[i, a] == 3
        assert lc.edge_counts[a, p] == 4
        assert lc.edge_counts[p, p] == 1  # the citation edge
        assert lc.edge_counts[i, p] == 0

    def test_loop_detection(self, publication_graph, triangle_graph):
        assert label_connectivity(publication_graph).has_loops  # P-P citation
        assert not label_connectivity(triangle_graph).has_loops

    def test_collision_free_emax_bounds(self, publication_graph, triangle_graph):
        """The Section 3.1 bounds: 4 with label loops, 5 without."""
        assert label_connectivity(publication_graph).collision_free_emax() == 4
        assert label_connectivity(triangle_graph).collision_free_emax() == 5

    def test_label_pairs_sorted_and_counted(self, publication_graph):
        lc = label_connectivity(publication_graph)
        pairs = {(a, b): c for a, b, c in lc.label_pairs()}
        assert pairs[("I", "A")] == 3
        assert pairs[("P", "P")] == 1
        total = sum(pairs.values())
        assert total == publication_graph.num_edges

    def test_empty_graph(self):
        g = HeteroGraph.from_edges({"a": "A", "b": "B"}, [])
        lc = label_connectivity(g)
        assert not lc.has_loops
        assert lc.label_pairs() == []

    def test_render_mentions_loop(self, publication_graph):
        text = label_connectivity(publication_graph).render()
        assert "(loop)" in text
        assert "I -- A" in text
