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

An :class:`EdgeTypedGraph` is a :class:`~repro.core.graph.HeteroGraph`
(its own undirected shadow) plus one role pair per edge id, and its census
runs on the exact engine's per-root state (flat snapshot, exclusion flags,
``d_max`` filter, mask label) with edge-typed codes as keys.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.core.census import CensusConfig, _CensusRunState
from repro.core.graph import FlatAdjacency, HeteroGraph, NodeId, _row_pos
from repro.core.labels import LabelSet
from repro.exceptions import CensusError, EncodingError

#: Role alphabet used by directed graphs.
OUT, IN = "out", "in"


class EdgeTypedGraph(HeteroGraph):
    """An undirected node-labelled graph whose edges carry endpoint roles.

    ``roles[e]`` is ``(role at flat().edge_u[e], role at flat().edge_v[e])``
    as indices into ``roleset``.  Everything else is the undirected shadow:
    :meth:`fingerprint` and a plain ``subgraph_census`` equal those of
    ``HeteroGraph.from_edges`` over the same pairs, because roles do not
    change undirected counts.  So a typed census must never be keyed in a
    store by ``fingerprint()`` alone.

    Build with :meth:`from_roles`, :meth:`from_directed` or
    :meth:`from_edge_labels`.
    """

    __slots__ = ("roleset", "roles")

    def __init__(
        self, flat: FlatAdjacency, labelset: LabelSet, ids: Sequence[NodeId],
        roleset: LabelSet, roles: list,
    ) -> None:
        super().__init__(flat, labelset, ids)
        self.roleset = roleset
        self.roles = roles

    def __getstate__(self):
        return (*super().__getstate__(), self.roleset, self.roles)

    @classmethod
    def from_roles(
        cls, node_labels: Mapping[NodeId, str], edges: Iterable[tuple[NodeId, NodeId, str, str]],
        labelset: LabelSet | None = None, roleset: LabelSet | None = None,
    ) -> "EdgeTypedGraph":
        """Build from ``(a, b, role at a, role at b)`` name tuples.

        The structure is ``HeteroGraph.from_edges`` over the ``(a, b)``
        pairs, which rejects self loops, duplicate pairs (in either
        orientation) and unknown nodes.  ``roleset`` defaults to the roles
        in first-occurrence order.
        """
        edges = list(edges)
        if roleset is None:
            roleset = LabelSet.from_labelling(chain.from_iterable(e[2:] for e in edges))
        shadow = HeteroGraph.from_edges(node_labels, (e[:2] for e in edges), labelset)
        flat = shadow.flat()
        roles: list = [None] * len(edges)
        for a, b, role_a, role_b in edges:
            u, v = shadow.index(a), shadow.index(b)
            pair = (roleset.index(role_a), roleset.index(role_b))
            if u > v:
                u, v, pair = v, u, pair[::-1]
            roles[flat.edge_ids[_row_pos(flat, u, v)]] = pair
        return cls(flat, shadow.labelset, shadow.node_ids, roleset, roles)

    @classmethod
    def from_directed(
        cls, node_labels: Mapping[NodeId, str], directed_edges: Iterable[tuple[NodeId, NodeId]],
        labelset: LabelSet | None = None,
    ) -> "EdgeTypedGraph":
        """Build from a digraph: role ``out`` at the source, ``in`` at the
        target.  Antiparallel pairs ``u->v`` and ``v->u`` are rejected as
        duplicates — they would need a third role and the evaluation
        networks have none.
        """
        edges = ((source, target, OUT, IN) for source, target in directed_edges)
        return cls.from_roles(node_labels, edges, labelset, LabelSet((OUT, IN)))

    @classmethod
    def from_edge_labels(
        cls, node_labels: Mapping[NodeId, str],
        labelled_edges: Iterable[tuple[NodeId, NodeId, str]],
        labelset: LabelSet | None = None, roleset: LabelSet | None = None,
    ) -> "EdgeTypedGraph":
        """Build from an edge-heterogeneous network: each edge carries one
        symmetric edge label (the same role at both endpoints)."""
        edges = ((a, b, label, label) for a, b, label in labelled_edges)
        return cls.from_roles(node_labels, edges, labelset, roleset)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
def encode_typed_subgraph(
    labels: Sequence[int], edges: Iterable[tuple[int, int, int, int]], num_labels: int,
    num_roles: int,
):
    """Canonical code of an edge-typed subgraph.

    ``edges`` are ``(u, v, role_u, role_v)`` tuples over subgraph-local
    indices.  Node ``v``'s sequence is ``(label, t[0][0], t[0][1], ...)``
    flattened row-major over (neighbour label, role at v).
    """
    n = len(labels)
    for label in labels:
        if not 0 <= label < num_labels:
            raise EncodingError(f"label {label} outside alphabet of size {num_labels}")
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
class _TypedCensusRun(_CensusRunState):
    """The exact census's DFS over the shared run state, one typed row
    ``[label, t[0][0], t[0][1], ...]`` per member, each emission keyed by
    the rows sorted as :func:`encode_typed_subgraph` sorts them."""

    __slots__ = ("roles", "num_roles", "counts", "members")

    def __init__(self, graph: EdgeTypedGraph, root: int, config: CensusConfig) -> None:
        super().__init__(graph, root, config)
        self.roles = graph.roles
        self.num_roles = len(graph.roleset)
        self.counts: Counter = Counter()
        self.members = {root: [self.root_label] + [0] * (self.num_labels * self.num_roles)}

    def grow(self, candidates: list, size: int = 1) -> Counter:
        """Count each set a candidate grows the current ``size - 1`` edges
        to, then the sets grown from it (the exclusion discipline)."""
        members, in_sub, banned = self.members, self.in_sub, self.banned
        num_roles, width = self.num_roles, self.num_labels * self.num_roles
        bans = []
        for i, eid in enumerate(candidates):
            if banned[eid] or in_sub[eid]:
                continue
            a, b = self.edge_u[eid], self.edge_v[eid]
            new = a if a not in members else b if b not in members else -1
            if new >= 0:
                members[new] = [self.labels[new]] + [0] * width
            row_a, row_b = members[a], members[b]
            role_a, role_b = self.roles[eid]
            at_a, at_b = row_b[0] * num_roles + role_a + 1, row_a[0] * num_roles + role_b + 1
            row_a[at_a] += 1
            row_b[at_b] += 1
            in_sub[eid] = 1
            self.counts[tuple(sorted(map(tuple, members.values()), reverse=True))] += 1
            if size < self.config.max_edges:
                rest = candidates[i + 1:]
                exposed = self._expansion(new) if new >= 0 else ()
                if exposed:
                    listed = set(rest)
                    rest = rest + [e for e in exposed if e not in listed]
                if rest:
                    self.grow(rest, size + 1)
            row_a[at_a] -= 1
            row_b[at_b] -= 1
            in_sub[eid] = 0
            if new >= 0:
                del members[new]
            banned[eid] = 1
            bans.append(eid)
        for eid in bans:
            banned[eid] = 0
        return self.counts


def typed_subgraph_census(
    graph: EdgeTypedGraph, root: int, max_edges: int = 4, max_degree: int | None = None,
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
    run = _TypedCensusRun(graph, root, CensusConfig(max_edges, max_degree, mask_start_label))
    return run.grow(run._expansion(root))
