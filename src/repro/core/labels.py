"""Label alphabets for heterogeneous graphs.

The paper models a heterogeneous network as a labelled graph ``G = (V, E, L)``
with a labelling function ``lambda: V -> L``.  The characteristic-sequence
encoding of Section 3.1 depends on a *fixed ordering* of the labels
``l = 1, ..., |L|``; this module owns that ordering.

A :class:`LabelSet` maps user-facing label names (strings) to contiguous
integer indices.  Everything downstream (graphs, encodings, hashes) works on
the integer indices, which keeps the hot census loop free of string handling.

The evaluation in Section 4.3.2 masks the label of the start node with an
artificial label so that rooted counts do not leak the target label into the
feature.  :meth:`LabelSet.with_mask` returns an extended alphabet containing
that extra mask label.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import LabelError

#: Name used for the artificial start-node label of Section 4.3.2.
MASK_LABEL = "__mask__"


class LabelSet:
    """An ordered, immutable alphabet of node labels.

    Parameters
    ----------
    names:
        The label names in their fixed order.  Order matters: it defines the
        positions ``t_1 .. t_k`` inside every characteristic sequence, so two
        graphs can only share a feature space if they share a ``LabelSet``.

    Raises
    ------
    LabelError
        If ``names`` is empty or contains duplicates.
    """

    __slots__ = ("_names", "_index")

    def __init__(self, names: Sequence[str]) -> None:
        names = tuple(str(n) for n in names)
        if not names:
            raise LabelError("a LabelSet needs at least one label")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise LabelError(f"duplicate label names in {names!r}")
        self._names = names
        self._index = index

    @classmethod
    def from_labelling(cls, labels: Iterable[str]) -> "LabelSet":
        """Build an alphabet from an iterable of observed node labels.

        Labels are ordered by first occurrence, which gives a deterministic
        alphabet for deterministic input order.
        """
        seen: dict[str, None] = {}
        for label in labels:
            seen.setdefault(str(label), None)
        return cls(tuple(seen))

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"LabelSet({list(self._names)!r})"

    @property
    def names(self) -> tuple[str, ...]:
        """The label names in alphabet order."""
        return self._names

    def index(self, name: str) -> int:
        """Return the integer index of ``name``.

        Raises
        ------
        LabelError
            If the label is not part of this alphabet.
        """
        try:
            return self._index[name]
        except KeyError:
            raise LabelError(
                f"unknown label {name!r}; alphabet is {list(self._names)!r}"
            ) from None

    def name(self, index: int) -> str:
        """Return the label name at ``index``.

        Raises
        ------
        LabelError
            If the index is out of range.
        """
        if not 0 <= index < len(self._names):
            raise LabelError(
                f"label index {index} out of range for {len(self._names)} labels"
            )
        return self._names[index]

    def encode(self, labels: Iterable[str]) -> list[int]:
        """Encode an iterable of label names to integer indices."""
        return [self.index(name) for name in labels]

    def with_mask(self) -> "LabelSet":
        """Return an alphabet extended by the artificial mask label.

        The mask label is appended *after* the real labels so the indices of
        real labels are unchanged, which lets masked and unmasked encodings
        share per-label positions.
        """
        if MASK_LABEL in self._index:
            return self
        return LabelSet(self._names + (MASK_LABEL,))

    @property
    def mask_index(self) -> int:
        """Index of the mask label.

        Raises
        ------
        LabelError
            If this alphabet was not created via :meth:`with_mask`.
        """
        return self.index(MASK_LABEL)
