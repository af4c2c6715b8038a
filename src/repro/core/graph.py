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
  valid — and every mutation invalidates the derived ``flat()``/
  ``fingerprint()`` caches so a stale snapshot or content hash is never
  served for a changed graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
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
    """

    labels: list
    degrees: list
    indptr: list
    neighbors: list
    edge_ids: list
    edge_u: list
    edge_v: list


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

    Use :meth:`from_edges` or :meth:`from_networkx` rather than calling the
    constructor directly.
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
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Drop the lazily built caches that depend on the structure.

        ``flat()`` and ``fingerprint()`` are pure functions of the labelled
        adjacency; anything that changes the adjacency (only
        :class:`MutableHeteroGraph` does) must call this so neither a stale
        snapshot nor — worse — a stale content hash aliasing ArtifactStore
        keys across graph versions can ever be observed.
        """
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

    @classmethod
    def from_networkx(cls, graph, label_attr: str = "label", labelset: LabelSet | None = None) -> "HeteroGraph":
        """Build from a ``networkx.Graph`` whose nodes carry a label attribute.

        Raises
        ------
        GraphError
            If a node is missing the label attribute or the graph is directed.
        """
        if graph.is_directed():
            raise GraphError("HeteroGraph is undirected; pass an undirected networkx graph")
        node_labels: dict[NodeId, str] = {}
        for node, data in graph.nodes(data=True):
            if label_attr not in data:
                raise GraphError(f"node {node!r} is missing the {label_attr!r} attribute")
            node_labels[node] = data[label_attr]
        return cls.from_edges(node_labels, graph.edges(), labelset=labelset)

    def to_networkx(self):
        """Export to a ``networkx.Graph`` with ``label`` node attributes."""
        import networkx as nx

        graph = nx.Graph()
        for i, node_id in enumerate(self._ids):
            graph.add_node(node_id, label=self._labelset.name(int(self._labels[i])))
        for u in range(self.num_nodes):
            for v in self._adjacency[u]:
                if u < v:
                    graph.add_edge(self._ids[u], self._ids[int(v)])
        return graph

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

    def neighbor_label_runs(self, index: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(label, neighbours)`` for each non-empty same-label run.

        This is the access pattern of the heterogeneous grouping heuristic:
        all same-label neighbours in one step.
        """
        starts = self._label_starts[index]
        adjacency = self._adjacency[index]
        for label in range(len(self._labelset)):
            lo, hi = starts[label], starts[label + 1]
            if hi > lo:
                yield label, adjacency[lo:hi]

    def flat(self) -> FlatAdjacency:
        """The cached :class:`FlatAdjacency` snapshot (built on first use).

        The graph is immutable, so the snapshot is computed once and shared
        by every census run over this graph within the process.
        """
        if self._flat is None:
            labels = self._labels.tolist()
            indptr = [0]
            neighbors: list = []
            edge_ids: list = []
            edge_u: list = []
            edge_v: list = []
            id_of: dict = {}
            for u in range(len(self._ids)):
                row = self._adjacency[u].tolist()
                neighbors.extend(row)
                for w in row:
                    key = (u, w) if u < w else (w, u)
                    eid = id_of.get(key)
                    if eid is None:
                        eid = len(edge_u)
                        id_of[key] = eid
                        edge_u.append(key[0])
                        edge_v.append(key[1])
                    edge_ids.append(eid)
                indptr.append(len(neighbors))
            degrees = [indptr[i + 1] - indptr[i] for i in range(len(self._ids))]
            self._flat = FlatAdjacency(
                labels=labels,
                degrees=degrees,
                indptr=indptr,
                neighbors=neighbors,
                edge_ids=edge_ids,
                edge_u=edge_u,
                edge_v=edge_v,
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

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def connected_components(self) -> list[np.ndarray]:
        """Connected components as arrays of node indices, largest first.

        Isolated nodes form singleton components.  Useful for dataset
        preprocessing: rooted censuses never cross components, so features
        of nodes outside the giant component are systematically sparser.
        """
        seen = np.zeros(self.num_nodes, dtype=bool)
        components: list[np.ndarray] = []
        for start in range(self.num_nodes):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = [start]
            while stack:
                current = stack.pop()
                for neighbour in self._adjacency[current]:
                    neighbour = int(neighbour)
                    if not seen[neighbour]:
                        seen[neighbour] = True
                        stack.append(neighbour)
                        members.append(neighbour)
            components.append(np.asarray(sorted(members), dtype=np.int64))
        components.sort(key=len, reverse=True)
        return components

    def largest_component(self) -> "HeteroGraph":
        """Induced subgraph on the largest connected component."""
        components = self.connected_components()
        if not components:
            raise GraphError("graph has no nodes")
        return self.subgraph(components[0])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, indices: Iterable[int]) -> "HeteroGraph":
        """Induced subgraph on the given node indices.

        External ids and the label alphabet are preserved; only nodes and
        their mutual edges survive.
        """
        keep = sorted(set(int(i) for i in indices))
        for i in keep:
            if not 0 <= i < self.num_nodes:
                raise GraphError(f"node index {i} out of range")
        keep_set = set(keep)
        node_labels = {self._ids[i]: self._labelset.name(self.label_of(i)) for i in keep}
        edges = [
            (self._ids[u], self._ids[int(v)])
            for u in keep
            for v in self._adjacency[u]
            if u < int(v) and int(v) in keep_set
        ]
        return HeteroGraph.from_edges(node_labels, edges, labelset=self._labelset)

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
      pickled worker copy remain valid), and
    * calls :meth:`HeteroGraph._invalidate_derived` so the ``flat()``
      snapshot and the content ``fingerprint()`` are rebuilt on next use.

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

    def _insert_neighbor(self, u: int, v: int) -> None:
        starts = self._label_starts[u]
        label = self.label_of(v)
        run = self._adjacency[u][starts[label]: starts[label + 1]]
        pos = int(starts[label]) + int(np.searchsorted(run, v))
        self._adjacency[u] = np.insert(self._adjacency[u], pos, v)
        new_starts = starts.copy()
        new_starts[label + 1:] += 1
        self._label_starts[u] = new_starts

    def _delete_neighbor(self, u: int, v: int) -> None:
        starts = self._label_starts[u]
        label = self.label_of(v)
        run = self._adjacency[u][starts[label]: starts[label + 1]]
        pos = int(starts[label]) + int(np.searchsorted(run, v))
        self._adjacency[u] = np.delete(self._adjacency[u], pos)
        new_starts = starts.copy()
        new_starts[label + 1:] -= 1
        self._label_starts[u] = new_starts

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
        self._insert_neighbor(u, v)
        self._insert_neighbor(v, u)
        self._num_edges += 1
        self._invalidate_derived()
        return u, v

    def remove_edge(self, u_id: NodeId, v_id: NodeId) -> tuple[int, int]:
        """Delete the undirected edge ``(u_id, v_id)``.

        Raises :class:`~repro.exceptions.GraphError` when the nodes are
        unknown or the edge does not exist.
        """
        u, v = self.index(u_id), self.index(v_id)
        if u == v or not self.has_edge(u, v):
            raise GraphError(f"no such edge ({u_id!r}, {v_id!r})")
        self._delete_neighbor(u, v)
        self._delete_neighbor(v, u)
        self._num_edges -= 1
        self._invalidate_derived()
        return u, v

    def __repr__(self) -> str:
        return (
            f"MutableHeteroGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={list(self._labelset.names)!r})"
        )
