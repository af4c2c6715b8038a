"""Unit tests for the characteristic-sequence encoding."""

import pytest

from repro.core.encoding import (
    canonical_code,
    code_num_edges,
    code_num_nodes,
    code_to_string,
    encode_subgraph,
    node_sequence,
    string_to_code,
)
from repro.core.labels import LabelSet
from repro.exceptions import EncodingError


class TestNodeSequence:
    def test_counts_by_label(self):
        # node labelled 0 with neighbours labelled 1, 1, 2 in a 3-alphabet
        assert node_sequence(0, [1, 1, 2], 3) == (0, 0, 2, 1)

    def test_no_neighbours(self):
        assert node_sequence(2, [], 3) == (2, 0, 0, 0)


class TestCanonicalCode:
    def test_descending_sort(self):
        seqs = [(0, 1), (2, 0), (1, 1)]
        assert canonical_code(seqs) == ((2, 0), (1, 1), (0, 1))

    def test_paper_example_figure_1b(self):
        """The z-y-z path of Fig. 1B: encoding z010 z010 y002."""
        ls = LabelSet(("x", "y", "z"))  # fixed ordering x, y, z
        z, y = ls.index("z"), ls.index("y")
        code = encode_subgraph([z, y, z], [(0, 1), (1, 2)], 3)
        # Two z nodes each with one y neighbour, one y node with two z's.
        assert code == ((z, 0, 1, 0), (z, 0, 1, 0), (y, 0, 0, 2))


class TestEncodeSubgraph:
    def test_order_invariance(self):
        """Visiting nodes in any order yields the same code."""
        labels = [0, 1, 2]
        edges = [(0, 1), (1, 2)]
        base = encode_subgraph(labels, edges, 3)
        permuted = encode_subgraph([2, 1, 0], [(2, 1), (1, 0)], 3)
        assert base == permuted

    def test_single_node(self):
        assert encode_subgraph([1], [], 2) == ((1, 0, 0),)

    def test_bad_edge_raises(self):
        with pytest.raises(EncodingError, match="outside the subgraph"):
            encode_subgraph([0], [(0, 1)], 1)

    def test_bad_label_raises(self):
        with pytest.raises(EncodingError, match="outside alphabet"):
            encode_subgraph([5], [], 2)

    def test_distinguishes_star_from_path(self):
        """A 3-edge star and a 3-edge path over one label differ."""
        star = encode_subgraph([0, 0, 0, 0], [(0, 1), (0, 2), (0, 3)], 1)
        path = encode_subgraph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)], 1)
        assert star != path

    def test_label_sensitivity(self):
        """Same topology, different labelling -> different codes."""
        a = encode_subgraph([0, 1], [(0, 1)], 2)
        b = encode_subgraph([0, 0], [(0, 1)], 2)
        assert a != b


class TestStringRoundtrip:
    def test_roundtrip(self):
        ls = LabelSet(("x", "y", "z"))
        code = encode_subgraph([2, 1, 2], [(0, 1), (1, 2)], 3)
        text = code_to_string(code, ls)
        assert string_to_code(text, ls) == code

    def test_string_format(self):
        ls = LabelSet(("x", "y"))
        code = encode_subgraph([0, 1], [(0, 1)], 2)
        text = code_to_string(code, ls)
        assert text == "y1.0|x0.1"

    def test_multidigit_counts_roundtrip(self):
        ls = LabelSet(("a", "b"))
        # hub with 12 leaves
        labels = [0] + [1] * 12
        edges = [(0, i) for i in range(1, 13)]
        code = encode_subgraph(labels, edges, 2)
        assert string_to_code(code_to_string(code, ls), ls) == code

    def test_prefix_label_names_roundtrip(self):
        """A label that is a prefix of another must parse correctly."""
        ls = LabelSet(("A", "AB"))
        code = encode_subgraph([0, 1], [(0, 1)], 2)
        assert string_to_code(code_to_string(code, ls), ls) == code

    def test_empty_string_raises(self):
        with pytest.raises(EncodingError):
            string_to_code("", LabelSet(("a",)))

    def test_unknown_prefix_raises(self):
        with pytest.raises(EncodingError, match="no known label"):
            string_to_code("q1.0", LabelSet(("a", "b")))

    def test_wrong_arity_raises(self):
        with pytest.raises(EncodingError, match="counts"):
            string_to_code("a1", LabelSet(("a", "b")))

    def test_non_numeric_raises(self):
        with pytest.raises(EncodingError, match="non-numeric"):
            string_to_code("ax.y", LabelSet(("a", "b")))


class TestCodeProperties:
    def test_num_nodes(self):
        code = encode_subgraph([0, 1, 0], [(0, 1), (1, 2)], 2)
        assert code_num_nodes(code) == 3

    def test_num_edges_handshake(self):
        code = encode_subgraph([0, 1, 0], [(0, 1), (1, 2)], 2)
        assert code_num_edges(code) == 2

    def test_odd_degree_sum_raises(self):
        with pytest.raises(EncodingError, match="odd"):
            code_num_edges(((0, 1),))
