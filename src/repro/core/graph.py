"""Heterogeneous graph data structure.

Every graph is one undirected, simple (no self loops, no parallel edges),
node-labelled graph, as defined in Section 3 of the paper, stored as one
flat CSR adjacency: a :class:`FlatAdjacency` snapshot.

Design notes
------------
* :class:`FlatGraph` wraps a snapshot and implements every shared accessor
  once.  :class:`HeteroGraph` is a :class:`FlatGraph` plus arbitrary
  hashable external node ids (strings in the bundled datasets);
  :class:`~repro.core.mmap_graph.MmapGraph` reads the same arrays from a
  file.  Nodes are contiguous integer indices; the census and the
  encodings only ever see integers.
* Each node's row is sorted by ``(neighbour label, neighbour index)``.  The
  heterogeneous grouping heuristic of Section 3.2 relies on same-label
  neighbours being contiguous, and the paper explicitly recommends sorting
  adjacency lists by label.
* A snapshot is never edited.  The census shares one graph across worker
  processes/threads, mirroring the paper's observation that the edge list
  can be shared because it is never modified.
* :class:`MutableHeteroGraph` is the one sanctioned exception: the serving
  daemon's write path (``repro serve``) applies edge insertions/deletions
  through it.  A mutation builds the next snapshot from a copy of the
  previous one — any snapshot already handed out (to a census, or pickled
  into a worker) stays valid — and patches the bytes ``fingerprint()``
  hashes, so the next content hash costs one blake2b pass, not a rebuild.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.labels import LabelSet
from repro.exceptions import GraphError

if TYPE_CHECKING:
    from repro.core.mmap_graph import MmapGraph

NodeId = Hashable


@dataclass(frozen=True)
class FlatAdjacency:
    """Plain-Python-int CSR snapshot of a graph, the one adjacency form.

    The census inner loop cannot afford numpy scalar extraction (every
    ``arr[i]`` materialises an ``np.int64`` that then needs ``int()``), nor
    per-edge tuple construction for set membership tests.  This snapshot
    flattens the adjacency into CSR-style Python lists and assigns every
    undirected edge a dense integer id, so the census can use bytearray
    flags indexed by edge id instead of hashing ``(u, v)`` tuples.

    Attributes
    ----------
    labels:
        Integer label per node (plain ints).
    degrees:
        Degree per node (plain ints).
    indptr:
        CSR offsets; neighbours of ``v`` live at positions
        ``indptr[v]:indptr[v + 1]`` of ``neighbors`` / ``edge_ids``.
    neighbors:
        Flat neighbour list, per node sorted by (label, index).
    edge_ids:
        Dense undirected-edge id aligned with ``neighbors``; both
        orientations of an edge share one id in ``0..num_edges - 1``.
    edge_u / edge_v:
        Endpoints of each edge id, with ``edge_u[e] < edge_v[e]``.

    ``label_degrees`` memoises :meth:`label_degrees_of` for every census
    on the snapshot (O(nodes x labels) ints).  It is not a field, so it is
    neither compared nor pickled: a shipped snapshot starts empty.
    """

    labels: list
    degrees: list
    indptr: list
    neighbors: list
    edge_ids: list
    edge_u: list
    edge_v: list

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_degrees", {})

    def __reduce__(self):
        return (FlatAdjacency, tuple(getattr(self, f.name) for f in fields(self)))

    def to_lists(self) -> "FlatAdjacency":
        """A list-backed copy: picklable by value on any storage."""
        return FlatAdjacency(*(list(getattr(self, f.name)) for f in fields(self)))

    def label_degrees_of(self, node: int) -> tuple:
        """``((label, count), ...)`` over ``node``'s neighbours (memoised)."""
        pairs = self.label_degrees.get(node)
        if pairs is None:
            row = self.neighbors[self.indptr[node]: self.indptr[node + 1]]
            pairs = self.label_degrees[node] = tuple(
                Counter(map(self.labels.__getitem__, row)).items()
            )
        return pairs


def _row_pos(flat: FlatAdjacency, node: int, other: int) -> int:
    """Where ``other`` sits, or would be inserted, in ``node``'s row."""
    labels, neighbors = flat.labels, flat.neighbors
    key = (labels[other], other)
    lo, hi = flat.indptr[node], flat.indptr[node + 1]
    while lo < hi:
        mid = (lo + hi) // 2
        w = neighbors[mid]
        if (labels[w], w) < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class FlatGraph:
    """Read-only graph backed by one :class:`FlatAdjacency`.

    Every layer reads a graph through this surface — the census engines,
    walks, remote workers and serve repair use ``flat()`` itself — and it
    is implemented once here for every storage.

    The snapshot fields only need to be indexable/sliceable containers of
    plain Python ints — lists (graphs built in memory, snapshots shipped
    to workers) and ``memoryview("q")`` windows over memory-mapped files
    (:class:`~repro.core.mmap_graph.MmapGraph`) both qualify, and both
    produce bit-identical results because nothing sees anything but the
    values.
    """

    #: Storage backend reported in ``census/storage`` telemetry.
    storage_kind = "flat"

    __slots__ = ("_flat", "_labelset", "_num_nodes", "_fingerprint")

    def __init__(self, flat: FlatAdjacency, labelset: LabelSet) -> None:
        self._flat = flat
        self._labelset = labelset
        self._num_nodes = len(flat.labels)
        self._fingerprint = None

    def __getstate__(self):
        return (self._flat, self._labelset)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    @property
    def labelset(self) -> LabelSet:
        """The label alphabet shared by this graph."""
        return self._labelset

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self._flat.edge_u)

    def flat(self) -> FlatAdjacency:
        return self._flat

    @property
    def labels(self) -> np.ndarray:
        """Integer label per node (read-only), aligned with indices."""
        view = np.asarray(self._flat.labels, dtype=np.int64)
        view.flags.writeable = False
        return view

    def label_of(self, index: int) -> int:
        return self._flat.labels[index]

    def degree(self, index: int) -> int:
        return self._flat.degrees[index]

    def degrees(self) -> np.ndarray:
        """Array of all node degrees, aligned with indices."""
        return np.asarray(self._flat.degrees, dtype=np.int64)

    def neighbors(self, index: int):
        """Neighbour indices of ``index`` sorted by (label, index)."""
        lo = self._flat.indptr[index]
        hi = self._flat.indptr[index + 1]
        return self._flat.neighbors[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether nodes at indices ``u`` and ``v`` are adjacent."""
        flat = self._flat
        if flat.degrees[v] < flat.degrees[u]:
            u, v = v, u
        pos = _row_pos(flat, u, v)
        return pos < flat.indptr[u + 1] and flat.neighbors[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as index pairs with ``u < v``.

        A row scan: ``u`` ascending, each row in (label, index) order.  The
        order depends only on the structure, never on edge ids, so every
        storage yields the same sequence (LINE samples edges by position).
        """
        indptr, neighbors = self._flat.indptr, self._flat.neighbors
        for u in range(self._num_nodes):
            for v in neighbors[indptr[u]: indptr[u + 1]]:
                if u < v:
                    yield u, v

    def label_counts(self) -> np.ndarray:
        """Number of nodes per label, aligned with alphabet order."""
        return np.bincount(self.labels, minlength=len(self._labelset))

    def nodes_with_label(self, label: int) -> np.ndarray:
        """Indices of all nodes carrying ``label``."""
        return np.flatnonzero(self.labels == label)

    def fingerprint(self) -> str:
        """Stable content hash of the labelled structure (cached).

        Two graphs with the same label alphabet, node labelling, and
        adjacency (by internal index) share a fingerprint on any storage;
        external node ids are deliberately excluded because rooted census
        counts do not depend on them.  Keys the census store.
        """
        if self._fingerprint is None:
            self._fingerprint = _digest(self._labelset, self._flat.labels, [self._body()])
        return self._fingerprint

    def _body(self):
        """What :meth:`fingerprint` hashes: each row's int64 bytes, then ``b"|"``."""
        flat = self._flat
        row_bytes = np.asarray(flat.neighbors, dtype=np.int64).view(np.uint8)
        row_ends = np.asarray(flat.indptr[1:], dtype=np.int64) * 8
        return np.insert(row_bytes, row_ends, ord("|"))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={list(self._labelset.names)!r})"
        )


def _digest(labelset: LabelSet, labels, body: Iterable) -> str:
    """Hash the alphabet, ``labels`` and ``body``: buffers that join to
    every row's int64 bytes, each row followed by ``b"|"``.

    :meth:`FlatGraph.fingerprint` passes one buffer and the ``.hmg``
    ingester one per merge block, so censuses of the same structure share
    store entries on either storage."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(tuple(labelset.names)).encode())
    digest.update(np.asarray(labels, dtype=np.int64).tobytes())
    for chunk in body:
        digest.update(chunk)
    return digest.hexdigest()


class HeteroGraph(FlatGraph):
    """An immutable :class:`FlatGraph` whose nodes carry external ids.

    Use :meth:`from_edges` rather than calling the constructor directly.
    """

    #: Storage backend reported in ``census/storage`` telemetry.
    storage_kind = "dict"

    __slots__ = ("_ids", "_index_of")

    def __init__(self, flat: FlatAdjacency, labelset: LabelSet, ids: Sequence[NodeId]) -> None:
        super().__init__(flat, labelset)
        self._ids = tuple(ids)
        self._index_of = {node_id: i for i, node_id in enumerate(self._ids)}

    def __getstate__(self):
        return (self._flat, self._labelset, self._ids)

    @classmethod
    def from_edges(
        cls,
        node_labels: Mapping[NodeId, str],
        edges: Iterable[tuple[NodeId, NodeId]],
        labelset: LabelSet | None = None,
    ) -> "HeteroGraph":
        """Build a graph from a node->label mapping and an edge iterable.

        Parameters
        ----------
        node_labels:
            Maps every node id to its label name.  Every node mentioned in
            ``edges`` must appear here; isolated nodes are allowed.
        edges:
            Undirected edges as ``(u, v)`` pairs.  Duplicates (in either
            orientation) are rejected, as are self loops.
        labelset:
            Optional explicit alphabet.  When omitted, one is derived from
            the labels in first-occurrence order.

        Raises
        ------
        GraphError
            On self loops, duplicate edges, or edges naming unknown nodes.

        One lexsort orders every directed edge by (node, neighbour label,
        neighbour); the snapshot's rows are that order.  An edge's id is
        its rank among the entries with ``node < neighbour``, the order a
        scan of the rows first meets each edge.
        """
        ids = tuple(node_labels)
        n = len(ids)
        index_of = {node_id: i for i, node_id in enumerate(ids)}
        if labelset is None:
            labelset = LabelSet.from_labelling(node_labels[node_id] for node_id in ids)
        labels = np.fromiter(
            (labelset.index(node_labels[node_id]) for node_id in ids),
            dtype=np.int64,
            count=n,
        )

        pairs: dict[tuple[int, int], None] = {}  # (low, high) in input order
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop on node {u!r} is not allowed")
            try:
                ui, vi = index_of[u], index_of[v]
            except KeyError as exc:
                raise GraphError(f"edge ({u!r}, {v!r}) names unknown node {exc}") from None
            pair = (ui, vi) if ui < vi else (vi, ui)
            if pair in pairs:
                raise GraphError(f"duplicate edge ({u!r}, {v!r})")
            pairs[pair] = None

        m = len(pairs)
        low, high = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * m).reshape(m, 2).T
        node = np.concatenate([low, high])
        neighbour = np.concatenate([high, low])
        edge = np.tile(np.arange(m), 2)
        order = np.lexsort((neighbour, labels[neighbour], node))
        node, neighbour, edge = node[order], neighbour[order], edge[order]
        forward = node < neighbour
        edge_id = np.empty(m, dtype=np.int64)
        edge_id[edge[forward]] = np.arange(m)
        degrees = np.bincount(node, minlength=n)
        flat = FlatAdjacency(
            labels=labels.tolist(),
            degrees=degrees.tolist(),
            indptr=[0, *np.cumsum(degrees).tolist()],
            neighbors=neighbour.tolist(),
            edge_ids=edge_id[edge].tolist(),
            edge_u=node[forward].tolist(),
            edge_v=neighbour[forward].tolist(),
        )
        return cls(flat, labelset, ids)

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """External node ids, in internal index order."""
        return self._ids

    def index(self, node_id: NodeId) -> int:
        """Internal index of an external node id."""
        try:
            return self._index_of[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def node_id(self, index: int) -> NodeId:
        """External id of an internal index."""
        if not 0 <= index < len(self._ids):
            raise GraphError(f"node index {index} out of range")
        return self._ids[index]

    def label_name_of(self, node_id: NodeId) -> str:
        """Label name of an external node id."""
        return self._labelset.name(self.label_of(self.index(node_id)))


class MutableHeteroGraph(HeteroGraph):
    """A :class:`HeteroGraph` accepting edge insertions/deletions.

    Built for the serving daemon's write path: the node set and label
    alphabet stay fixed, but edges may be added and removed one at a time.
    Each mutation patches the next ``flat()`` snapshot from a copy of the
    previous one, keeping every row sorted by (label, index) — the census
    engines' invariant — and drops the content ``fingerprint()``, rehashed
    on next use from its kept bytes, patched too once built.

    Mutation methods take *external* node ids (the protocol currency) and
    return the internal ``(u, v)`` index pair they resolved to.
    """

    __slots__ = ("_bytes",)  # the fingerprint body, patched per write (unset until built)

    def _body(self) -> bytearray:
        if getattr(self, "_bytes", None) is None:
            self._bytes = bytearray(super()._body())
        return self._bytes

    @classmethod
    def from_graph(cls, graph: HeteroGraph | MmapGraph) -> "MutableHeteroGraph":
        """A mutable graph starting from a list-backed copy of ``graph``'s
        snapshot.  ``graph`` must carry external node ids; an mmap-backed
        one is copied too (its memoryview snapshot would not pickle into a
        worker)."""
        return cls(graph.flat().to_lists(), graph.labelset, graph.node_ids)

    def add_edge(self, u_id: NodeId, v_id: NodeId) -> tuple[int, int]:
        """Insert the undirected edge ``(u_id, v_id)``.

        Raises :class:`~repro.exceptions.GraphError` on self loops,
        unknown nodes, or an edge that already exists.
        """
        if u_id == v_id:
            raise GraphError(f"self loop on node {u_id!r} is not allowed")
        u, v = self.index(u_id), self.index(v_id)
        if self.has_edge(u, v):
            raise GraphError(f"duplicate edge ({u_id!r}, {v_id!r})")
        self._mutate(u, v, 1)
        return u, v

    def remove_edge(self, u_id: NodeId, v_id: NodeId) -> tuple[int, int]:
        """Delete the undirected edge ``(u_id, v_id)``.

        Raises :class:`~repro.exceptions.GraphError` when the nodes are
        unknown or the edge does not exist.
        """
        u, v = self.index(u_id), self.index(v_id)
        if u == v or not self.has_edge(u, v):
            raise GraphError(f"no such edge ({u_id!r}, {v_id!r})")
        self._mutate(u, v, -1)
        return u, v

    def _mutate(self, u: int, v: int, step: int) -> None:
        """Add (``step`` 1) or remove (-1) edge ``(u, v)``.

        The next snapshot copies the previous one (never edited: a census
        may hold it) with the entry for the edge inserted at, or cut from,
        its (label, index) place in rows ``u`` and ``v``.  A new edge takes
        the next id; a removed edge's id passes to the last id's edge, so
        ids stay dense.  The label-degree memo carries over, minus u and v,
        and a built fingerprint body gains, or loses, the entry's 8 bytes.
        """
        flat = self._flat
        u, v = min(u, v), max(u, v)
        neighbors, edge_ids = flat.neighbors, flat.edge_ids
        edge_u, edge_v = list(flat.edge_u), list(flat.edge_v)
        last = len(edge_u) - 1
        eid = last + 1
        new_neighbors: list = []
        new_ids: list = []
        cut, body = 0, getattr(self, "_bytes", None)
        for node, other in ((u, v), (v, u)):  # row u precedes row v
            pos = _row_pos(flat, node, other)
            if body is not None:  # insert or cut the entry's bytes; each earlier row
                at = pos * 8 + node + 8 * step * (node == v)  # adds one separator, u's edit 8
                body[at: at + 8 * (step < 0)] = np.int64(other).tobytes() * (step > 0)
            new_neighbors += neighbors[cut:pos]
            new_ids += edge_ids[cut:pos]
            if step > 0:
                new_neighbors.append(other)
                new_ids.append(eid)
                cut = pos
            else:
                eid = edge_ids[pos]
                cut = pos + 1
        new_neighbors += neighbors[cut:]
        new_ids += edge_ids[cut:]
        degrees = list(flat.degrees)
        degrees[u] += step
        degrees[v] += step
        indptr = list(accumulate(degrees, initial=0))
        if step > 0:
            edge_u.append(u)
            edge_v.append(v)
        else:
            if eid != last:
                for node in (edge_u[last], edge_v[last]):
                    new_ids[new_ids.index(last, indptr[node], indptr[node + 1])] = eid
                edge_u[eid], edge_v[eid] = edge_u[last], edge_v[last]
            del edge_u[last], edge_v[last]
        patched = FlatAdjacency(flat.labels, degrees, indptr, new_neighbors, new_ids, edge_u, edge_v)
        patched.label_degrees.update(flat.label_degrees)
        for node in (u, v):
            patched.label_degrees.pop(node, None)
        self._flat = patched
        self._fingerprint = None
