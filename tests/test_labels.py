"""Unit tests for the label alphabet."""

import pytest

from repro.core.labels import MASK_LABEL, LabelSet
from repro.exceptions import LabelError


class TestConstruction:
    def test_preserves_order(self):
        ls = LabelSet(("P", "A", "I"))
        assert ls.names == ("P", "A", "I")

    def test_empty_rejected(self):
        with pytest.raises(LabelError):
            LabelSet(())

    def test_duplicates_rejected(self):
        with pytest.raises(LabelError):
            LabelSet(("A", "B", "A"))

    def test_names_coerced_to_str(self):
        ls = LabelSet((1, 2))
        assert ls.names == ("1", "2")

    def test_from_labelling_first_occurrence_order(self):
        ls = LabelSet.from_labelling(["z", "y", "z", "x", "y"])
        assert ls.names == ("z", "y", "x")


class TestLookup:
    def test_index_roundtrip(self):
        ls = LabelSet(("L", "O", "A", "D"))
        for i, name in enumerate(ls.names):
            assert ls.index(name) == i
            assert ls.name(i) == name

    def test_unknown_label_raises(self):
        ls = LabelSet(("A",))
        with pytest.raises(LabelError, match="unknown label"):
            ls.index("B")

    def test_index_out_of_range_raises(self):
        ls = LabelSet(("A",))
        with pytest.raises(LabelError):
            ls.name(1)
        with pytest.raises(LabelError):
            ls.name(-1)

    def test_contains(self):
        ls = LabelSet(("A", "B"))
        assert "A" in ls
        assert "C" not in ls

    def test_encode_sequence(self):
        ls = LabelSet(("x", "y"))
        assert ls.encode(["y", "x", "y"]) == [1, 0, 1]

    def test_len_and_iter(self):
        ls = LabelSet(("a", "b", "c"))
        assert len(ls) == 3
        assert list(ls) == ["a", "b", "c"]


class TestEquality:
    def test_equal_same_names(self):
        assert LabelSet(("A", "B")) == LabelSet(("A", "B"))

    def test_order_matters(self):
        assert LabelSet(("A", "B")) != LabelSet(("B", "A"))

    def test_hashable(self):
        assert hash(LabelSet(("A",))) == hash(LabelSet(("A",)))

    def test_not_equal_other_type(self):
        assert LabelSet(("A",)) != ("A",)


class TestMask:
    def test_with_mask_appends(self):
        ls = LabelSet(("A", "B")).with_mask()
        assert ls.names == ("A", "B", MASK_LABEL)
        assert ls.mask_index == 2

    def test_with_mask_idempotent(self):
        ls = LabelSet(("A",)).with_mask()
        assert ls.with_mask() is ls

    def test_original_indices_preserved(self):
        base = LabelSet(("A", "B"))
        masked = base.with_mask()
        for name in base.names:
            assert masked.index(name) == base.index(name)

    def test_mask_index_without_mask_raises(self):
        with pytest.raises(LabelError):
            LabelSet(("A",)).mask_index
