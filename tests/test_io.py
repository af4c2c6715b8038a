"""Tests for edge-list and JSON serialisation."""

import numpy as np
import pytest

from repro.core.census import CensusConfig
from repro.core.features import SubgraphFeatureExtractor
from repro.exceptions import FeatureError, GraphError
from repro.io import (
    features_from_dict,
    features_to_dict,
    graph_from_dict,
    graph_to_dict,
    read_edgelist,
    read_features_json,
    read_graph_json,
    write_edgelist,
    write_features_json,
    write_graph_json,
)


def _graphs_equal(a, b) -> bool:
    if a.labelset != b.labelset or a.num_nodes != b.num_nodes:
        return False
    a_edges = {
        frozenset((a.node_id(u), a.node_id(v))) for u, v in a.edges()
    }
    b_edges = {
        frozenset((b.node_id(u), b.node_id(v))) for u, v in b.edges()
    }
    labels_a = {nid: a.label_name_of(nid) for nid in a.node_ids}
    labels_b = {nid: b.label_name_of(nid) for nid in b.node_ids}
    return a_edges == b_edges and labels_a == labels_b


class TestEdgelist:
    def test_roundtrip(self, publication_graph, tmp_path):
        target = tmp_path / "graph.hel"
        write_edgelist(publication_graph, target)
        back = read_edgelist(target, labelset=publication_graph.labelset)
        assert _graphs_equal(publication_graph, back)

    def test_ids_with_spaces_roundtrip(self, tmp_path):
        from repro.core.graph import HeteroGraph

        graph = HeteroGraph.from_edges(
            {"node one": "A", "node|two": "B"}, [("node one", "node|two")]
        )
        target = tmp_path / "weird.hel"
        write_edgelist(graph, target)
        back = read_edgelist(target)
        assert _graphs_equal(graph, back)

    def test_comments_and_blanks_ignored(self, tmp_path):
        target = tmp_path / "g.hel"
        target.write_text("# comment\n\nv a A\nv b B\ne a b\n")
        graph = read_edgelist(target)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1

    def test_edge_before_node_rejected(self, tmp_path):
        target = tmp_path / "bad.hel"
        target.write_text("e a b\nv a A\nv b B\n")
        with pytest.raises(GraphError, match="undeclared"):
            read_edgelist(target)

    def test_duplicate_node_rejected(self, tmp_path):
        target = tmp_path / "dup.hel"
        target.write_text("v a A\nv a B\n")
        with pytest.raises(GraphError, match="duplicate node"):
            read_edgelist(target)

    def test_malformed_line_rejected(self, tmp_path):
        target = tmp_path / "mal.hel"
        target.write_text("x something\n")
        with pytest.raises(GraphError, match="malformed"):
            read_edgelist(target)


class TestGraphJson:
    def test_dict_roundtrip(self, publication_graph):
        back = graph_from_dict(graph_to_dict(publication_graph))
        assert _graphs_equal(publication_graph, back)

    def test_file_roundtrip(self, publication_graph, tmp_path):
        target = tmp_path / "graph.json"
        write_graph_json(publication_graph, target)
        back = read_graph_json(target)
        assert _graphs_equal(publication_graph, back)

    def test_labelset_order_preserved(self, publication_graph):
        document = graph_to_dict(publication_graph)
        assert document["labels"] == list(publication_graph.labelset.names)
        back = graph_from_dict(document)
        assert back.labelset == publication_graph.labelset


class TestFeaturesJson:
    def _extract(self, graph):
        extractor = SubgraphFeatureExtractor(CensusConfig(max_edges=3))
        return extractor.fit_transform(graph, [0, 1, 2])

    def test_dict_roundtrip(self, publication_graph):
        features = self._extract(publication_graph)
        document = features_to_dict(features, publication_graph.labelset)
        back = features_from_dict(document)
        assert np.array_equal(back.matrix, features.matrix)
        assert back.nodes == features.nodes
        assert back.space.keys == features.space.keys

    def test_file_roundtrip(self, publication_graph, tmp_path):
        features = self._extract(publication_graph)
        target = tmp_path / "features.json"
        write_features_json(features, publication_graph.labelset, target)
        back = read_features_json(target)
        assert np.array_equal(back.matrix, features.matrix)

    def test_non_canonical_keys_rejected(self, publication_graph):
        from repro.core.features import FeatureSpace, SubgraphFeatures

        bogus = SubgraphFeatures(
            np.zeros((1, 1)), FeatureSpace(["string-key"]), (0,)
        )
        with pytest.raises(FeatureError, match="canonical"):
            features_to_dict(bogus, publication_graph.labelset)

    def test_corrupt_matrix_rejected(self, publication_graph):
        features = self._extract(publication_graph)
        document = features_to_dict(features, publication_graph.labelset)
        document["matrix"] = [[1.0]]
        with pytest.raises(FeatureError, match="shape"):
            features_from_dict(document)
