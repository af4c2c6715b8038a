"""Heterogeneous graph data structure.

:class:`HeteroGraph` is the substrate every other module works on: an
undirected, simple (no self loops, no parallel edges), node-labelled graph,
as defined in Section 3 of the paper.

Design notes
------------
* Nodes carry arbitrary hashable external ids (strings in the bundled
  datasets) but are stored internally as contiguous integer indices; the
  census and the encodings only ever see integers.
* Adjacency lists are sorted by ``(neighbour label, neighbour index)``.  The
  heterogeneous grouping heuristic of Section 3.2 relies on same-label
  neighbours being contiguous, and the paper explicitly recommends sorting
  adjacency lists by label.
* The structure is immutable after construction.  The census shares one
  graph across worker processes/threads, mirroring the paper's observation
  that the edge list can be shared because it is never modified.
* :class:`MutableHeteroGraph` is the one sanctioned exception: the serving
  daemon's write path (``repro serve``) applies edge insertions/deletions
  through it.  Mutations replace adjacency rows rather than editing them in
  place — any previously shared row (e.g. pickled into a worker) stays
  valid — build the next ``flat()`` snapshot from a copy of the previous
  one, and drop the ``fingerprint()`` cache, so a stale snapshot or
  content hash is never served for a changed graph.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.labels import LabelSet
from repro.exceptions import GraphError

NodeId = Hashable


@dataclass(frozen=True)
class FlatAdjacency:
    """Plain-Python-int snapshot of a graph for the census hot path.

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
        Flat neighbour list, per node sorted by (label, index) exactly like
        :meth:`HeteroGraph.neighbors`.
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

    def label_degrees_of(self, node: int) -> tuple:
        """``((label, count), ...)`` over ``node``'s neighbours (memoised)."""
        pairs = self.label_degrees.get(node)
        if pairs is None:
            row = self.neighbors[self.indptr[node]: self.indptr[node + 1]]
            pairs = self.label_degrees[node] = tuple(
                Counter(map(self.labels.__getitem__, row)).items()
            )
        return pairs


class FlatGraph:
    """Read-only graph backed directly by a :class:`FlatAdjacency`.

    This is the *flat-adjacency contract*: the exact surface every census
    engine (fast, reference, sampled), the census workers, and the
    serve-layer repair BFS consume — ``flat()``, ``labelset``,
    ``num_nodes``/``num_edges``, ``label_of``, ``degree`` and
    ``neighbors``.  Anything exposing this surface can be censused;
    nothing in those layers may touch :class:`HeteroGraph` internals.

    The snapshot fields only need to be indexable/sliceable containers of
    plain Python ints — lists (dict-backed graphs, shipped worker snapshots) and
    ``memoryview("q")`` windows over memory-mapped files
    (:class:`~repro.core.mmap_graph.MmapGraph`) both qualify, and both
    produce bit-identical census results because the engines never see
    anything but the values.
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
        return self._labelset

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self._flat.edge_u)

    def flat(self) -> FlatAdjacency:
        return self._flat

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

    def fingerprint(self) -> str:
        """Content hash of the labelled structure (cached).

        Byte-for-byte the same formula as :meth:`HeteroGraph.fingerprint`
        — label alphabet, per-node labels, then each (label, index)-sorted
        adjacency row — so a flat- or mmap-backed view of the same graph
        shares ArtifactStore keys with its dict-backed twin.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_adjacency(
                self._labelset,
                self._flat.labels,
                self._iter_rows(),
            )
        return self._fingerprint

    def _iter_rows(self) -> Iterator:
        flat = self._flat
        for v in range(self._num_nodes):
            yield flat.neighbors[flat.indptr[v]: flat.indptr[v + 1]]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={list(self._labelset.names)!r})"
        )


def fingerprint_adjacency(labelset: LabelSet, labels, rows) -> str:
    """The shared graph content-hash: alphabet, labels, adjacency rows.

    ``labels`` is any int sequence; ``rows`` yields each node's
    (label, index)-sorted neighbour sequence in node order.  Every graph
    backend hashes through here (directly or by the identical inlined
    formula), which is what lets censuses of the same structure share
    cache entries regardless of how the graph is stored.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(tuple(labelset.names)).encode())
    digest.update(np.asarray(labels, dtype=np.int64).tobytes())
    for row in rows:
        digest.update(np.asarray(row, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


class HeteroGraph:
    """An immutable undirected node-labelled simple graph.

    Use :meth:`from_edges` rather than calling the constructor directly.
    """

    #: Storage backend reported in ``census/storage`` telemetry.
    storage_kind = "dict"

    __slots__ = (
        "_labelset",
        "_ids",
        "_index_of",
        "_labels",
        "_adjacency",
        "_label_starts",
        "_num_edges",
        "_flat",
        "_fingerprint",
    )

    def __init__(
        self,
        labelset: LabelSet,
        ids: Sequence[NodeId],
        labels: np.ndarray,
        adjacency: list[np.ndarray],
        label_starts: list[np.ndarray],
        num_edges: int,
    ) -> None:
        self._labelset = labelset
        self._ids = tuple(ids)
        self._index_of = {node_id: i for i, node_id in enumerate(self._ids)}
        self._labels = labels
        self._adjacency = adjacency
        self._label_starts = label_starts
        self._num_edges = num_edges
        # Lazily built, pure functions of the labelled adjacency; anything
        # that changes it (only MutableHeteroGraph._mutate) replaces or
        # drops both, so neither a stale snapshot nor a stale content hash
        # aliasing ArtifactStore keys across graph versions is observed.
        self._flat = None
        self._fingerprint = None

    def __getstate__(self):
        # The flat snapshot and fingerprint are derived caches; dropping
        # them keeps worker-pool pickles at the raw-graph size (workers
        # rebuild lazily on first census).
        return (
            self._labelset,
            self._ids,
            self._labels,
            self._adjacency,
            self._label_starts,
            self._num_edges,
        )

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
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
        """
        ids = tuple(node_labels)
        index_of = {node_id: i for i, node_id in enumerate(ids)}
        if labelset is None:
            labelset = LabelSet.from_labelling(node_labels[node_id] for node_id in ids)
        labels = np.fromiter(
            (labelset.index(node_labels[node_id]) for node_id in ids),
            dtype=np.int64,
            count=len(ids),
        )

        neighbour_sets: list[set[int]] = [set() for _ in ids]
        num_edges = 0
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop on node {u!r} is not allowed")
            try:
                ui, vi = index_of[u], index_of[v]
            except KeyError as exc:
                raise GraphError(f"edge ({u!r}, {v!r}) names unknown node {exc}") from None
            if vi in neighbour_sets[ui]:
                raise GraphError(f"duplicate edge ({u!r}, {v!r})")
            neighbour_sets[ui].add(vi)
            neighbour_sets[vi].add(ui)
            num_edges += 1

        adjacency, label_starts = cls._pack_adjacency(neighbour_sets, labels, len(labelset))
        return cls(labelset, ids, labels, adjacency, label_starts, num_edges)

    @staticmethod
    def _pack_adjacency(
        neighbour_sets: Sequence[set[int]],
        labels: np.ndarray,
        num_labels: int,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Sort each adjacency list by (label, index) and record label runs.

        ``label_starts[v]`` is an array of length ``num_labels + 1`` with the
        boundaries of same-label runs inside ``adjacency[v]``, so neighbours
        of ``v`` with label ``l`` are ``adjacency[v][starts[l]:starts[l+1]]``.
        One lexsort orders every directed edge by (node, neighbour label,
        neighbour); the rows are slices of the result.
        """
        n = len(neighbour_sets)
        degrees = np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=n)
        node = np.repeat(np.arange(n), degrees)
        neighbour = np.fromiter(chain.from_iterable(neighbour_sets), np.int64, node.size)
        neighbour = neighbour[np.lexsort((neighbour, labels[neighbour], node))]
        counts = np.bincount(node * num_labels + labels[neighbour], minlength=n * num_labels)
        starts = np.zeros((n, num_labels + 1), dtype=np.int64)
        np.cumsum(counts.reshape(n, num_labels), axis=1, out=starts[:, 1:])
        ends = np.cumsum(degrees).tolist()
        return [neighbour[a:b] for a, b in zip([0, *ends], ends)], list(starts)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def labelset(self) -> LabelSet:
        """The label alphabet shared by this graph."""
        return self._labelset

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """External node ids, in internal index order."""
        return self._ids

    @property
    def labels(self) -> np.ndarray:
        """Integer label per node (read-only view), aligned with indices."""
        view = self._labels.view()
        view.flags.writeable = False
        return view

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

    def label_of(self, index: int) -> int:
        """Integer label of the node at ``index``."""
        return int(self._labels[index])

    def label_name_of(self, node_id: NodeId) -> str:
        """Label name of an external node id."""
        return self._labelset.name(self.label_of(self.index(node_id)))

    def degree(self, index: int) -> int:
        """Degree of the node at ``index``."""
        return len(self._adjacency[index])

    def degrees(self) -> np.ndarray:
        """Array of all node degrees, aligned with indices."""
        return np.fromiter(
            (len(a) for a in self._adjacency), dtype=np.int64, count=self.num_nodes
        )

    def neighbors(self, index: int) -> np.ndarray:
        """Neighbour indices of ``index`` sorted by (label, index)."""
        return self._adjacency[index]

    def neighbors_with_label(self, index: int, label: int) -> np.ndarray:
        """Neighbours of ``index`` whose label equals ``label``."""
        starts = self._label_starts[index]
        return self._adjacency[index][starts[label]: starts[label + 1]]

    def label_degree(self, index: int, label: int) -> int:
        """Number of neighbours of ``index`` with the given label."""
        starts = self._label_starts[index]
        return int(starts[label + 1] - starts[label])

    def flat(self) -> FlatAdjacency:
        """The cached :class:`FlatAdjacency` snapshot (built on first use).

        The graph is immutable, so the snapshot is computed once and shared
        by every census run over this graph within the process.  An edge's
        id is its rank among the entries with ``node < neighbour`` in row
        order, the order a scan of the rows first meets each edge.
        """
        if self._flat is None:
            n = len(self._ids)
            degrees = np.fromiter(map(len, self._adjacency), np.int64, n)
            node = np.repeat(np.arange(n, dtype=np.int64), degrees)
            neighbors = np.concatenate([node[:0], *self._adjacency])
            forward = node < neighbors
            pair = np.minimum(node, neighbors) * n + np.maximum(node, neighbors)
            order = np.argsort(pair[forward], kind="stable")
            edge_ids = order[np.searchsorted(pair[forward], pair, sorter=order)]
            self._flat = FlatAdjacency(
                labels=self._labels.tolist(),
                degrees=degrees.tolist(),
                indptr=[0, *np.cumsum(degrees).tolist()],
                neighbors=neighbors.tolist(),
                edge_ids=edge_ids.tolist(),
                edge_u=node[forward].tolist(),
                edge_v=neighbors[forward].tolist(),
            )
        return self._flat

    def fingerprint(self) -> str:
        """Stable content hash of the labelled structure (cached).

        Two graphs with the same label alphabet, node labelling, and
        adjacency (by internal index) share a fingerprint; external node
        ids are deliberately excluded because rooted census counts do not
        depend on them.  Used to key the census cache.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(tuple(self._labelset.names)).encode())
            digest.update(self._labels.tobytes())
            for row in self._adjacency:
                digest.update(row.tobytes())
                digest.update(b"|")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def has_edge(self, u: int, v: int) -> bool:
        """Whether nodes at indices ``u`` and ``v`` are adjacent."""
        adjacency = self._adjacency[u]
        if len(self._adjacency[v]) < len(adjacency):
            u, v, adjacency = v, u, self._adjacency[v]
        label = self.label_of(v)
        run = self.neighbors_with_label(u, label)
        pos = int(np.searchsorted(run, v))
        return pos < len(run) and int(run[pos]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as index pairs with ``u < v``."""
        for u in range(self.num_nodes):
            for v in self._adjacency[u]:
                v = int(v)
                if u < v:
                    yield u, v

    def label_counts(self) -> np.ndarray:
        """Number of nodes per label, aligned with alphabet order."""
        return np.bincount(self._labels, minlength=len(self._labelset))

    def nodes_with_label(self, label: int) -> np.ndarray:
        """Indices of all nodes carrying ``label``."""
        return np.flatnonzero(self._labels == label)

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={list(self._labelset.names)!r})"
        )


class MutableHeteroGraph(HeteroGraph):
    """A :class:`HeteroGraph` overlay accepting edge insertions/deletions.

    Built for the serving daemon's write path: the node set and label
    alphabet stay fixed, but edges may be added and removed one at a time.
    Each mutation

    * keeps every adjacency list sorted by (label, index) — the census
      engines' invariant — by replacing the two touched rows (never editing
      an array in place, so rows shared with an immutable source graph or a
      pickled worker copy remain valid),
    * patches the next ``flat()`` snapshot from the previous one, and
    * drops the content ``fingerprint()``, rehashed on next use.

    Mutation methods take *external* node ids (the protocol currency) and
    return the internal ``(u, v)`` index pair they resolved to.
    """

    __slots__ = ()

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "MutableHeteroGraph":
        """A mutable overlay sharing ``graph``'s current rows (copy-on-write)."""
        return cls(
            graph._labelset,
            graph._ids,
            graph._labels,
            list(graph._adjacency),
            list(graph._label_starts),
            graph._num_edges,
        )

    def snapshot(self) -> HeteroGraph:
        """An immutable copy of the current state (rows shared, never edited)."""
        return HeteroGraph(
            self._labelset,
            self._ids,
            self._labels,
            list(self._adjacency),
            list(self._label_starts),
            self._num_edges,
        )

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
        may hold it) with rows ``u`` and ``v`` replaced.  A new edge takes
        the next id; a removed edge's id passes to the last id's edge, so
        ids stay dense.  The label-degree memo carries over, minus u and v.
        """
        for a, b in ((u, v), (v, u)):
            starts = self._label_starts[a]
            label = self.label_of(b)
            row = self._adjacency[a]
            pos = int(starts[label]) + int(
                np.searchsorted(row[starts[label]: starts[label + 1]], b)
            )
            self._adjacency[a] = np.insert(row, pos, b) if step > 0 else np.delete(row, pos)
            new_starts = starts.copy()
            new_starts[label + 1:] += step
            self._label_starts[a] = new_starts
        self._num_edges += step
        self._fingerprint = None
        flat = self._flat
        if flat is None:
            return
        u, v = min(u, v), max(u, v)
        indptr, neighbors, edge_ids = flat.indptr, flat.neighbors, flat.edge_ids
        edge_u, edge_v = list(flat.edge_u), list(flat.edge_v)
        last = len(edge_u) - 1
        if step > 0:
            eid = last + 1
            edge_u.append(u)
            edge_v.append(v)
        else:
            lo = indptr[u]
            eid = edge_ids[lo + neighbors[lo: indptr[u + 1]].index(v)]
        new_neighbors: list = []
        new_ids: list = []
        cut = 0
        for node in (u, v):
            lo, hi = indptr[node], indptr[node + 1]
            row = self._adjacency[node].tolist()
            ids = dict(zip(neighbors[lo:hi], edge_ids[lo:hi]))
            new_neighbors += neighbors[cut:lo] + row
            new_ids += edge_ids[cut:lo] + [ids.get(w, eid) for w in row]
            cut = hi
        new_neighbors += neighbors[cut:]
        new_ids += edge_ids[cut:]
        degrees = list(flat.degrees)
        degrees[u] += step
        degrees[v] += step
        indptr = list(accumulate(degrees, initial=0))
        if step < 0:
            if eid != last:
                for node in (edge_u[last], edge_v[last]):
                    new_ids[new_ids.index(last, indptr[node], indptr[node + 1])] = eid
                edge_u[eid], edge_v[eid] = edge_u[last], edge_v[last]
            del edge_u[last], edge_v[last]
        patched = FlatAdjacency(
            flat.labels, degrees, indptr, new_neighbors, new_ids, edge_u, edge_v
        )
        patched.label_degrees.update(flat.label_degrees)
        for node in (u, v):
            patched.label_degrees.pop(node, None)
        self._flat = patched

    def __repr__(self) -> str:
        return (
            f"MutableHeteroGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={list(self._labelset.names)!r})"
        )
