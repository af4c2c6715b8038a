"""Census correctness tests, anchored on the brute-force reference."""

import pytest

from repro.core.census import (
    CensusConfig,
    census_total,
    subgraph_census,
)
from repro.core.graph import HeteroGraph
from repro.exceptions import CensusError
from tests.conftest import brute_force_census


class TestConfigValidation:
    def test_defaults(self):
        config = CensusConfig()
        assert config.max_edges == 5
        assert config.max_degree is None

    def test_bad_max_edges(self):
        with pytest.raises(CensusError):
            CensusConfig(max_edges=0)

    def test_bad_max_degree(self):
        with pytest.raises(CensusError):
            CensusConfig(max_degree=-1)

    def test_bad_key(self):
        with pytest.raises(CensusError):
            CensusConfig(key="nonsense")

    def test_bad_cap(self):
        with pytest.raises(CensusError):
            CensusConfig(max_subgraphs=0)

    def test_bad_root_raises(self, triangle_graph):
        with pytest.raises(CensusError):
            subgraph_census(triangle_graph, 99)


class TestAgainstBruteForce:
    """The real census must match exhaustive enumeration exactly."""

    @pytest.mark.parametrize("max_edges", [1, 2, 3, 4, 5])
    def test_triangle_all_roots(self, triangle_graph, max_edges):
        for root in range(triangle_graph.num_nodes):
            expected = brute_force_census(triangle_graph, root, max_edges)
            actual = subgraph_census(
                triangle_graph, root, CensusConfig(max_edges=max_edges)
            )
            assert actual == expected

    @pytest.mark.parametrize("max_edges", [1, 2, 3, 4])
    def test_publication_graph_all_roots(self, publication_graph, max_edges):
        for root in range(publication_graph.num_nodes):
            expected = brute_force_census(publication_graph, root, max_edges)
            actual = subgraph_census(
                publication_graph, root, CensusConfig(max_edges=max_edges)
            )
            assert actual == expected

    @pytest.mark.parametrize("max_edges", [1, 2, 3, 4, 5, 6])
    def test_dense_k4(self, dense_two_label_graph, max_edges):
        expected = brute_force_census(dense_two_label_graph, 0, max_edges)
        actual = subgraph_census(
            dense_two_label_graph, 0, CensusConfig(max_edges=max_edges)
        )
        assert actual == expected

    def test_masked_root(self, publication_graph):
        for root in (0, 3, 5):
            expected = brute_force_census(
                publication_graph, root, 3, mask_start_label=True
            )
            actual = subgraph_census(
                publication_graph,
                root,
                CensusConfig(max_edges=3, mask_start_label=True),
            )
            assert actual == expected

    def test_include_trivial(self, triangle_graph):
        expected = brute_force_census(triangle_graph, 0, 2, include_trivial=True)
        actual = subgraph_census(
            triangle_graph, 0, CensusConfig(max_edges=2, include_trivial=True)
        )
        assert actual == expected

    def test_random_graph_matches(self):
        """Randomised cross-check on a slightly larger graph."""
        import numpy as np

        rng = np.random.default_rng(42)
        labels = {f"v{i}": "XYZ"[rng.integers(3)] for i in range(12)}
        edges = set()
        while len(edges) < 18:
            u, v = rng.integers(0, 12, 2)
            if u != v:
                edges.add((f"v{min(u, v)}", f"v{max(u, v)}"))
        graph = HeteroGraph.from_edges(labels, edges)
        for root in range(0, 12, 3):
            expected = brute_force_census(graph, root, 3)
            actual = subgraph_census(graph, root, CensusConfig(max_edges=3))
            assert actual == expected


class TestPaperExamples:
    def test_figure_1b_path(self, paper_path_graph):
        """Rooted at an end of the z-y-z path: the 1-edge zy subgraph and
        the full path."""
        counts = subgraph_census(
            paper_path_graph, paper_path_graph.index("n1"), CensusConfig(max_edges=5)
        )
        assert census_total(counts) == 2

    def test_figure_1b_center(self, paper_path_graph):
        """Rooted at the centre y: two zy edges plus the full path."""
        counts = subgraph_census(
            paper_path_graph, paper_path_graph.index("n2"), CensusConfig(max_edges=5)
        )
        assert census_total(counts) == 3
        # Both single edges are the same class.
        assert max(counts.values()) == 2

    def test_star_counts(self):
        graph = HeteroGraph.from_edges(
            {"r": "A", "b1": "B", "b2": "B", "b3": "B"},
            [("r", "b1"), ("r", "b2"), ("r", "b3")],
        )
        counts = subgraph_census(graph, 0, CensusConfig(max_edges=3))
        # 3 single edges (one class), 3 two-edge stars, 1 three-edge star.
        assert sorted(counts.values()) == [1, 3, 3]
        assert census_total(counts) == 7

    def test_isolated_root_yields_nothing(self):
        graph = HeteroGraph.from_edges({"a": "A", "b": "B"}, [("a", "b")])
        isolated = HeteroGraph.from_edges({"a": "A", "b": "B", "c": "A"}, [("a", "b")])
        counts = subgraph_census(isolated, isolated.index("c"), CensusConfig())
        assert census_total(counts) == 0

    def test_isolated_root_trivial_only(self):
        graph = HeteroGraph.from_edges({"a": "A", "b": "B", "c": "A"}, [("a", "b")])
        counts = subgraph_census(
            graph, graph.index("c"), CensusConfig(include_trivial=True)
        )
        assert census_total(counts) == 1


class TestKeyModes:
    def test_string_keys_bijective_with_canonical(self, publication_graph):
        canonical = subgraph_census(publication_graph, 0, CensusConfig(max_edges=3))
        strings = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=3, key="string")
        )
        assert len(canonical) == len(strings)
        assert sorted(canonical.values()) == sorted(strings.values())

    def test_hash_keys_preserve_total(self, publication_graph):
        canonical = subgraph_census(publication_graph, 0, CensusConfig(max_edges=3))
        hashed = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=3, key="hash")
        )
        assert census_total(hashed) == census_total(canonical)
        # Hash keys may merge classes but never split them.
        assert len(hashed) <= len(canonical)

    def test_hash_matches_canonical_class_count_small(self, triangle_graph):
        canonical = subgraph_census(triangle_graph, 0, CensusConfig(max_edges=3))
        hashed = subgraph_census(
            triangle_graph, 0, CensusConfig(max_edges=3, key="hash")
        )
        assert sorted(hashed.values()) == sorted(canonical.values())


class TestHeuristics:
    def test_grouping_does_not_change_counts(self, publication_graph):
        on = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=4, group_by_label=True)
        )
        off = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=4, group_by_label=False)
        )
        assert on == off

    def test_dmax_infinite_equals_unbounded(self, publication_graph):
        unbounded = subgraph_census(publication_graph, 0, CensusConfig(max_edges=3))
        high = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=3, max_degree=100)
        )
        assert unbounded == high

    def test_dmax_produces_subset(self, publication_graph):
        """Capped census counts are pointwise <= the uncapped counts."""
        full = subgraph_census(publication_graph, 0, CensusConfig(max_edges=3))
        capped = subgraph_census(
            publication_graph, 0, CensusConfig(max_edges=3, max_degree=2)
        )
        assert census_total(capped) <= census_total(full)
        for key, count in capped.items():
            assert count <= full[key]

    def test_dmax_keeps_hub_edge_itself(self):
        """A hub neighbour is still recorded, just not expanded through."""
        # root - hub(degree 4) - three more leaves
        graph = HeteroGraph.from_edges(
            {"r": "A", "h": "B", "x": "C", "y": "C", "z": "C"},
            [("r", "h"), ("h", "x"), ("h", "y"), ("h", "z")],
        )
        counts = subgraph_census(
            graph, graph.index("r"), CensusConfig(max_edges=3, max_degree=2)
        )
        # Only the r-h edge is reachable: the hub is not expanded.
        assert census_total(counts) == 1

    def test_dmax_does_not_apply_to_root(self):
        """A high-degree start node is still fully explored (Section 4.3.5:
        outliers occur when a hub is the starting node)."""
        graph = HeteroGraph.from_edges(
            {"r": "A", "a": "B", "b": "B", "c": "B", "d": "B"},
            [("r", "a"), ("r", "b"), ("r", "c"), ("r", "d")],
        )
        counts = subgraph_census(
            graph, graph.index("r"), CensusConfig(max_edges=2, max_degree=1)
        )
        # 4 single edges (one class, count 4) + C(4,2)=6 two-edge stars.
        assert census_total(counts) == 10

    def test_max_subgraphs_cap(self, dense_two_label_graph):
        with pytest.raises(CensusError, match="max_subgraphs"):
            subgraph_census(
                dense_two_label_graph, 0, CensusConfig(max_edges=6, max_subgraphs=3)
            )
