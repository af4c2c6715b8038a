"""Edge-typed subgraph features — the paper's future-work directions.

Section 5 leaves two extensions open: *directed* subgraph features and an
adaptation to *edge-heterogeneous* graphs.  Both reduce to one
generalisation: give every edge a **role at each endpoint**.

* An edge-labelled graph assigns the same role (the edge's label) at both
  endpoints.
* A directed edge ``u -> v`` assigns role ``out`` at ``u`` and ``in`` at
  ``v``.

The characteristic sequence generalises accordingly: node ``v`` inside a
subgraph contributes ``(label(v), t[l][r] ...)`` where ``t[l][r]`` counts
in-subgraph neighbours with node label ``l`` reached over an edge whose
role at ``v`` is ``r``.  Sorting node sequences in descending order keeps
the code order-invariant exactly as in the undirected case.

The census reuses the same enumeration discipline as
:mod:`repro.core.census` (connected edge-set growth with exclusion), over
the underlying undirected structure, while encodings carry the roles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.labels import LabelSet
from repro.exceptions import CensusError, EncodingError, GraphError

NodeId = Hashable

#: Role alphabet used by directed graphs.
OUT, IN = "out", "in"


@dataclass(frozen=True)
class TypedEdge:
    """One undirected edge with a role at each endpoint (internal form).

    ``u < v`` by internal index; ``role_u``/``role_v`` are role indices.
    """

    u: int
    v: int
    role_u: int
    role_v: int

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node} is not an endpoint of {self}")


class EdgeTypedGraph:
    """An undirected node-labelled graph whose edges carry endpoint roles.

    Use :meth:`from_directed` for digraphs or :meth:`from_edge_labels` for
    edge-heterogeneous networks; the constructor takes pre-encoded data.
    """

    def __init__(
        self,
        labelset: LabelSet,
        roleset: LabelSet,
        ids: Sequence[NodeId],
        labels: Sequence[int],
        edges: Sequence[TypedEdge],
    ) -> None:
        self.labelset = labelset
        self.roleset = roleset
        self._ids = tuple(ids)
        self._index_of = {node_id: i for i, node_id in enumerate(self._ids)}
        self._labels = tuple(labels)
        self._edges = tuple(edges)
        incident: list[list[TypedEdge]] = [[] for _ in self._ids]
        seen: set[tuple[int, int]] = set()
        for edge in self._edges:
            if edge.u == edge.v:
                raise GraphError("self loops are not allowed")
            if (edge.u, edge.v) in seen:
                raise GraphError(f"duplicate edge ({edge.u}, {edge.v})")
            seen.add((edge.u, edge.v))
            incident[edge.u].append(edge)
            incident[edge.v].append(edge)
        self._incident = [tuple(edges) for edges in incident]

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_directed(
        cls,
        node_labels: Mapping[NodeId, str],
        directed_edges: Iterable[tuple[NodeId, NodeId]],
        labelset: LabelSet | None = None,
    ) -> "EdgeTypedGraph":
        """Build from a digraph: role ``out`` at the source, ``in`` at the
        target.  Antiparallel pairs ``u->v`` and ``v->u`` are rejected —
        they would need a third role and the evaluation networks have none.
        """
        ids = tuple(node_labels)
        index_of = {node_id: i for i, node_id in enumerate(ids)}
        if labelset is None:
            labelset = LabelSet.from_labelling(node_labels[i] for i in ids)
        roleset = LabelSet((OUT, IN))
        labels = [labelset.index(node_labels[i]) for i in ids]
        out_role, in_role = roleset.index(OUT), roleset.index(IN)
        edges = []
        for source, target in directed_edges:
            try:
                s, t = index_of[source], index_of[target]
            except KeyError as exc:
                raise GraphError(f"edge names unknown node {exc}") from None
            if s < t:
                edges.append(TypedEdge(s, t, out_role, in_role))
            else:
                edges.append(TypedEdge(t, s, in_role, out_role))
        return cls(labelset, roleset, ids, labels, edges)

    @classmethod
    def from_edge_labels(
        cls,
        node_labels: Mapping[NodeId, str],
        labelled_edges: Iterable[tuple[NodeId, NodeId, str]],
        labelset: LabelSet | None = None,
        roleset: LabelSet | None = None,
    ) -> "EdgeTypedGraph":
        """Build from an edge-heterogeneous network: each edge carries one
        symmetric edge label (the same role at both endpoints)."""
        ids = tuple(node_labels)
        index_of = {node_id: i for i, node_id in enumerate(ids)}
        if labelset is None:
            labelset = LabelSet.from_labelling(node_labels[i] for i in ids)
        labelled_edges = list(labelled_edges)
        if roleset is None:
            roleset = LabelSet.from_labelling(label for _u, _v, label in labelled_edges)
        labels = [labelset.index(node_labels[i]) for i in ids]
        edges = []
        for a, b, edge_label in labelled_edges:
            try:
                u, v = index_of[a], index_of[b]
            except KeyError as exc:
                raise GraphError(f"edge names unknown node {exc}") from None
            role = roleset.index(edge_label)
            if u > v:
                u, v = v, u
            edges.append(TypedEdge(u, v, role, role))
        return cls(labelset, roleset, ids, labels, edges)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def index(self, node_id: NodeId) -> int:
        try:
            return self._index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def label_of(self, index: int) -> int:
        return self._labels[index]

    def degree(self, index: int) -> int:
        return len(self._incident[index])

    def incident_edges(self, index: int) -> tuple[TypedEdge, ...]:
        return self._incident[index]

    def edges(self) -> tuple[TypedEdge, ...]:
        return self._edges


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
def encode_typed_subgraph(
    labels: Sequence[int],
    edges: Iterable[tuple[int, int, int, int]],
    num_labels: int,
    num_roles: int,
):
    """Canonical code of an edge-typed subgraph.

    ``edges`` are ``(u, v, role_u, role_v)`` tuples over subgraph-local
    indices.  Node ``v``'s sequence is ``(label, t[0][0], t[0][1], ...)``
    flattened row-major over (neighbour label, role at v).
    """
    n = len(labels)
    width = num_labels * num_roles
    counts = [[0] * width for _ in range(n)]
    for u, v, role_u, role_v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EncodingError(f"edge ({u}, {v}) outside the subgraph")
        if not (0 <= role_u < num_roles and 0 <= role_v < num_roles):
            raise EncodingError(f"roles ({role_u}, {role_v}) outside the alphabet")
        counts[u][labels[v] * num_roles + role_u] += 1
        counts[v][labels[u] * num_roles + role_v] += 1
    return tuple(sorted(((labels[i], *counts[i]) for i in range(n)), reverse=True))


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------
def typed_subgraph_census(
    graph: EdgeTypedGraph,
    root: int,
    max_edges: int = 4,
    max_degree: int | None = None,
    mask_start_label: bool = False,
) -> Counter:
    """Rooted census over an edge-typed graph.

    Same enumeration as :func:`repro.core.census.subgraph_census` —
    connected edge-set growth with the exclusion discipline and the
    ``d_max`` hub cut-off — with edge-typed encodings as keys.
    ``mask_start_label`` replaces the root's node label with an artificial
    mask label in every encoding, for label-prediction parity with
    Section 4.3.2.
    """
    if not 0 <= root < graph.num_nodes:
        raise CensusError(f"root index {root} out of range")
    if max_edges < 1:
        raise CensusError(f"max_edges must be >= 1, got {max_edges}")

    num_labels = len(graph.labelset) + (1 if mask_start_label else 0)
    mask_label = num_labels - 1 if mask_start_label else None
    num_roles = len(graph.roleset)
    counts: Counter = Counter()
    members: dict[int, None] = {root: None}
    sub_edges: list[TypedEdge] = []
    in_sub: set[TypedEdge] = set()
    banned: set[TypedEdge] = set()

    def expansion(node: int) -> list[TypedEdge]:
        if (
            max_degree is not None
            and node != root
            and graph.degree(node) > max_degree
        ):
            return []
        return [
            e
            for e in graph.incident_edges(node)
            if e not in in_sub and e not in banned
        ]

    def effective_label(node: int) -> int:
        if mask_label is not None and node == root:
            return mask_label
        return graph.label_of(node)

    def emit() -> None:
        local = {node: i for i, node in enumerate(members)}
        labels = [effective_label(node) for node in members]
        edges = [
            (local[e.u], local[e.v], e.role_u, e.role_v) for e in sub_edges
        ]
        counts[encode_typed_subgraph(labels, edges, num_labels, num_roles)] += 1

    def grow(candidates: list[TypedEdge]) -> None:
        local_bans = []
        for i, edge in enumerate(candidates):
            if edge in banned or edge in in_sub:
                continue
            new_node = None
            for endpoint in (edge.u, edge.v):
                if endpoint not in members:
                    members[endpoint] = None
                    new_node = endpoint
            sub_edges.append(edge)
            in_sub.add(edge)
            emit()
            if len(sub_edges) < max_edges:
                remaining = candidates[i + 1:]
                exposed = expansion(new_node) if new_node is not None else []
                if exposed:
                    remaining_set = set(remaining)
                    child = remaining + [e for e in exposed if e not in remaining_set]
                else:
                    child = remaining
                if child:
                    grow(child)
            sub_edges.pop()
            in_sub.discard(edge)
            if new_node is not None:
                del members[new_node]
            banned.add(edge)
            local_bans.append(edge)
        for edge in local_bans:
            banned.discard(edge)

    grow(expansion(root))
    return counts


def directed_census_matrix(
    graph: EdgeTypedGraph,
    nodes: Sequence[int],
    max_edges: int = 3,
    max_degree: int | None = None,
):
    """Aligned feature matrix over typed censuses (vocabulary first-seen).

    Returns ``(matrix, codes)`` with one row per node.
    """
    import numpy as np

    censuses = [
        typed_subgraph_census(graph, int(node), max_edges, max_degree)
        for node in nodes
    ]
    codes: list = []
    index: dict = {}
    for census in censuses:
        for code in census:
            if code not in index:
                index[code] = len(codes)
                codes.append(code)
    matrix = np.zeros((len(nodes), len(codes)))
    for row, census in enumerate(censuses):
        for code, count in census.items():
            matrix[row, index[code]] = count
    return matrix, codes
