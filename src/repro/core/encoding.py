"""Characteristic-sequence encoding of labelled subgraphs (Section 3.1).

Given a subgraph ``H`` over a label alphabet of size ``k``, every node ``v``
contributes the sequence ``s_v = (t_0, t_1, ..., t_k)`` where ``t_0`` is the
integer label of ``v`` and ``t_l`` counts the neighbours of ``v`` *inside H*
that carry label ``l`` (Eq. 1).  The characteristic sequence of ``H`` is the
concatenation of all node sequences sorted in decreasing lexicographic order
(Eq. 2).  Two small subgraphs are isomorphic iff their characteristic
sequences are equal; collisions only appear beyond the ``e_max`` bounds
analysed in :mod:`repro.core.collisions`.

This module represents codes in two interchangeable forms:

* the *canonical tuple*: a tuple of per-node tuples, sorted descending —
  hashable, compact, and the census's dictionary key;
* the *code string*: a human-readable rendering such as ``"z0.1.0|y0.0.2"``
  used in reports and for (de)serialisation.  It deviates from the paper's
  compact ``z010`` notation by separating counts, so multi-digit degrees and
  multi-character label names round-trip safely.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.labels import LabelSet
from repro.exceptions import EncodingError

#: A per-node sequence ``(t_0, t_1, ..., t_k)``.
NodeSequence = tuple[int, ...]
#: The canonical code of a subgraph: node sequences sorted descending.
CanonicalCode = tuple[NodeSequence, ...]

_NODE_SEPARATOR = "|"
_COUNT_SEPARATOR = "."


def node_sequence(label: int, neighbour_labels: Iterable[int], num_labels: int) -> NodeSequence:
    """Build the sequence ``s_v`` for one node from its in-subgraph neighbours."""
    counts = [0] * num_labels
    for neighbour_label in neighbour_labels:
        counts[neighbour_label] += 1
    return (label, *counts)


def canonical_code(node_sequences: Iterable[NodeSequence]) -> CanonicalCode:
    """Sort node sequences into the canonical (descending) order of Eq. 2."""
    return tuple(sorted(node_sequences, reverse=True))


def encode_subgraph(
    labels: Sequence[int],
    edges: Iterable[tuple[int, int]],
    num_labels: int,
) -> CanonicalCode:
    """Encode an explicit subgraph given node labels and its edge list.

    Parameters
    ----------
    labels:
        Integer label of each subgraph node; node ``i`` of the subgraph is
        position ``i`` here.
    edges:
        Edges as index pairs into ``labels``.
    num_labels:
        Size of the label alphabet (defines sequence width).

    Raises
    ------
    EncodingError
        If an edge references a node outside ``labels`` or a label is out of
        the alphabet's range.
    """
    n = len(labels)
    for label in labels:
        if not 0 <= label < num_labels:
            raise EncodingError(f"label {label} outside alphabet of size {num_labels}")
    counts = [[0] * num_labels for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EncodingError(f"edge ({u}, {v}) references a node outside the subgraph")
        counts[u][labels[v]] += 1
        counts[v][labels[u]] += 1
    return canonical_code((labels[i], *counts[i]) for i in range(n))


def code_to_string(code: CanonicalCode, labelset: LabelSet) -> str:
    """Render a canonical code as a readable string.

    Each node becomes ``<label name><t_1>.<t_2>...<t_k>`` and nodes are
    joined with ``|``, e.g. ``"z0.1.0|z0.1.0|y0.0.2"`` for the paper's
    ``z010 z010 y002`` example.
    """
    parts = []
    for seq in code:
        label, *counts = seq
        name = labelset.name(label)
        parts.append(name + _COUNT_SEPARATOR.join(str(c) for c in counts))
    return _NODE_SEPARATOR.join(parts)


def string_to_code(text: str, labelset: LabelSet) -> CanonicalCode:
    """Parse a string produced by :func:`code_to_string` back to a code.

    Raises
    ------
    EncodingError
        If the string does not round-trip: unknown label prefix, wrong count
        arity, or non-numeric counts.
    """
    if not text:
        raise EncodingError("empty code string")
    sequences: list[NodeSequence] = []
    # Longest-first so a label name that prefixes another resolves correctly.
    names_by_length = sorted(labelset.names, key=len, reverse=True)
    for part in text.split(_NODE_SEPARATOR):
        name = next((n for n in names_by_length if part.startswith(n)), None)
        if name is None:
            raise EncodingError(f"no known label prefixes code part {part!r}")
        rest = part[len(name):]
        try:
            counts = [int(c) for c in rest.split(_COUNT_SEPARATOR)]
        except ValueError:
            raise EncodingError(f"non-numeric counts in code part {part!r}") from None
        if len(counts) != len(labelset):
            raise EncodingError(
                f"code part {part!r} has {len(counts)} counts, expected {len(labelset)}"
            )
        sequences.append((labelset.index(name), *counts))
    return canonical_code(sequences)


def code_num_nodes(code: CanonicalCode) -> int:
    """Number of nodes in the subgraph a code describes."""
    return len(code)


def code_num_edges(code: CanonicalCode) -> int:
    """Number of edges, via the handshake lemma over in-subgraph degrees.

    Raises
    ------
    EncodingError
        If the total label-degree sum is odd, which no valid code can have.
    """
    total = sum(sum(seq[1:]) for seq in code)
    if total % 2:
        raise EncodingError(f"degree sum {total} is odd; corrupted code {code!r}")
    return total // 2
