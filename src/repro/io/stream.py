"""Out-of-core graph ingestion and the streaming census pipeline.

Three pieces, composing into a pipeline whose peak RSS is flat in graph
size (the RSS model is asserted end to end by
``benchmarks/test_perf_census_mmap.py``):

* :func:`build_mmap_graph` — a two-pass external-sort ingester turning a
  labelled edge list of arbitrary size into a ``.hmg`` file
  (:mod:`repro.core.mmap_graph`) in bounded memory: edges are spilled to
  sorted chunk runs and k-way merged, so the full adjacency never exists
  in RAM.  Memory is O(nodes) for labels/degrees/id lookup plus
  O(chunk_edges) for the run being sorted — never O(edges).
* :func:`write_mmap_graph` — dumps an in-memory graph to the same
  format (conversion hook for ``--mmap-graph`` on existing pipelines).
* :func:`census_stream` — a chunked root-batch driver: roots are
  censused ``batch_size`` at a time through
  :class:`~repro.core.features.SubgraphFeatureExtractor.census_many`
  (any engine, any ``n_jobs``; results spill into the context's
  :class:`~repro.runtime.store.ArtifactStore` census stage), and the
  generator hands back one batch of rows at a time instead of
  materialising a census list for every root.
"""

from __future__ import annotations

import atexit
import heapq
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.census import CensusConfig
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import fingerprint_adjacency
from repro.core.labels import LabelSet
from repro.core.mmap_graph import HMG_SUFFIX, HmgWriter, MmapGraph, encode_node_ids
from repro.exceptions import FeatureError, GraphError
from repro.io.edgelist import iter_edgelist
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext

#: Undirected edges per external-sort run (each run holds both
#: orientations, i.e. ``2 * chunk`` records of four int64s).
DEFAULT_CHUNK_EDGES = 1 << 18

_FLUSH_VALUES = 1 << 16  # buffered int64s before a sequential write


def write_mmap_graph(graph, path, *, store_ids: bool = True) -> Path:
    """Dump an in-memory graph to a ``.hmg`` file.

    Works for any graph exposing the flat-adjacency contract plus
    ``fingerprint()`` (``HeteroGraph``, ``MmapGraph``,
    ``FlatGraph``).  ``store_ids=False`` skips the external-id sections for
    graphs addressed purely by index.  Returns the written path; open
    it with :class:`~repro.core.mmap_graph.MmapGraph`.
    """
    flat = graph.flat()
    ids_blob_len = None
    offsets = blob = None
    if store_ids:
        try:
            ids = graph.node_ids
        except (AttributeError, GraphError):
            ids = range(graph.num_nodes)
        offsets, blob = encode_node_ids(list(ids))
        ids_blob_len = len(blob)
    writer = HmgWriter(
        path,
        label_names=graph.labelset.names,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        ids_blob_len=ids_blob_len,
    )
    try:
        writer.append("labels", flat.labels)
        writer.append("degrees", flat.degrees)
        writer.append("indptr", flat.indptr)
        writer.append("neighbors", flat.neighbors)
        writer.append("edge_ids", flat.edge_ids)
        writer.append("edge_u", flat.edge_u)
        writer.append("edge_v", flat.edge_v)
        if store_ids:
            writer.append("id_offsets", offsets)
            writer.append_blob("id_blob", blob)
        return writer.finalize(graph.fingerprint())
    except BaseException:
        writer.abort()
        raise


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def to_mmap_graph(graph, out_path=None, *, store_ids: bool = True) -> MmapGraph:
    """Materialise a graph as an opened :class:`MmapGraph`.

    The conversion hook behind the ``--mmap-graph`` CLI flag and the
    rank experiment's ``storage="mmap"`` knob.  With ``out_path=None``
    the ``.hmg`` goes to a temp file that is removed at interpreter
    exit — *not* when the graph is closed, because worker pools re-open
    the mapping by path and must still find the file mid-run.  Returns
    ``graph`` unchanged when it already is an :class:`MmapGraph`.
    """
    if isinstance(graph, MmapGraph):
        return graph
    if out_path is None:
        handle, name = tempfile.mkstemp(prefix="repro-graph-", suffix=HMG_SUFFIX)
        os.close(handle)
        out_path = Path(name)
        atexit.register(_unlink_quietly, out_path)
    return MmapGraph(write_mmap_graph(graph, out_path, store_ids=store_ids))


class _EdgeSpiller:
    """Accumulates directed edge records and spills sorted runs to disk.

    Records are ``(src, dst_label, dst, edge_id)`` — sorting a run by
    its first three fields and k-way merging all runs yields the final
    flat adjacency in exactly the census order (per node, neighbours
    sorted by label then index) in one sequential sweep.
    """

    def __init__(self, tmp_dir: Path, chunk_edges: int) -> None:
        self._dir = tmp_dir
        self._limit = 2 * chunk_edges
        self._src: list[int] = []
        self._lbl: list[int] = []
        self._dst: list[int] = []
        self._eid: list[int] = []
        self.runs: list[Path] = []

    def add(self, src: int, dst: int, dst_label: int, eid: int) -> None:
        self._src.append(src)
        self._lbl.append(dst_label)
        self._dst.append(dst)
        self._eid.append(eid)
        if len(self._src) >= self._limit:
            self.flush()

    def flush(self) -> None:
        if not self._src:
            return
        arr = np.empty((len(self._src), 4), dtype=np.int64)
        arr[:, 0] = self._src
        arr[:, 1] = self._lbl
        arr[:, 2] = self._dst
        arr[:, 3] = self._eid
        order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
        run_path = self._dir / f"run-{len(self.runs):06d}.npy"
        np.save(run_path, arr[order])
        self.runs.append(run_path)
        self._src.clear()
        self._lbl.clear()
        self._dst.clear()
        self._eid.clear()

    def merged(self) -> Iterator[list]:
        """All records across runs in ``(src, label, dst)`` order.

        Merge memory is ``O(runs * block)`` decoded records — every run
        keeps one block buffered — so the block is kept small; the runs
        themselves stay on disk behind ``np.load(mmap_mode="r")``.
        """
        self.flush()

        def rows(path: Path, block: int = 2048) -> Iterator[list]:
            arr = np.load(path, mmap_mode="r")
            for start in range(0, arr.shape[0], block):
                yield from arr[start: start + block].tolist()

        return heapq.merge(*(rows(path) for path in self.runs))


def build_mmap_graph(
    edgelist_path,
    out_path,
    *,
    labelset: LabelSet | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    store_ids: bool = True,
    tmp_dir=None,
) -> Path:
    """Stream a labelled edge list into a ``.hmg`` mmap graph file.

    Two passes, both in bounded memory:

    1. one sweep over the file (via the shared line parser
       :func:`repro.io.edgelist.iter_edgelist`) collects node
       labels/degrees, assigns edge ids in file order, and spills both
       orientations of every edge into lexsorted runs of at most
       ``2 * chunk_edges`` records;
    2. a k-way merge of the runs emits the flat adjacency in census
       order, writing ``neighbors``/``edge_ids`` sequentially while
       folding each row into the graph fingerprint — the same content
       hash the in-memory graph computes, so both storages share
       ArtifactStore keys.

    Malformed lines, duplicate/undeclared nodes, and self loops are
    reported with their line number; duplicate edges are caught during
    the merge.  The output file appears atomically (temp + rename).
    Returns the written path.
    """
    if chunk_edges < 1:
        raise GraphError(f"chunk_edges must be >= 1, got {chunk_edges}")
    edgelist_path = Path(edgelist_path)
    out_path = Path(out_path)
    telemetry = get_telemetry()

    derive_labels = labelset is None
    label_index: dict[str, int] = (
        {} if derive_labels else {name: i for i, name in enumerate(labelset.names)}
    )
    label_names: list[str] = [] if derive_labels else list(labelset.names)
    ids: list = []
    index_of: dict = {}
    labels: list[int] = []
    degrees: list[int] = []

    with tempfile.TemporaryDirectory(
        prefix="hmg-ingest-", dir=tmp_dir
    ) as scratch_name:
        scratch = Path(scratch_name)
        spiller = _EdgeSpiller(scratch, chunk_edges)
        num_edges = 0
        endpoint_buf: list[int] = []  # interleaved (u, v) pairs
        endpoints_path = scratch / "endpoints.bin"

        with telemetry.span("ingest/scan"), open(endpoints_path, "wb") as endpoints:

            def flush_endpoints() -> None:
                if endpoint_buf:
                    endpoints.write(
                        np.asarray(endpoint_buf, dtype="<i8").tobytes()
                    )
                    endpoint_buf.clear()

            for kind, line_number, first, second in iter_edgelist(edgelist_path):
                if kind == "v":
                    if first in index_of:
                        raise GraphError(
                            f"{edgelist_path}:{line_number}: duplicate node {first!r}"
                        )
                    label = label_index.get(second)
                    if label is None:
                        if not derive_labels:
                            raise GraphError(
                                f"{edgelist_path}:{line_number}: label {second!r} "
                                "is not in the supplied labelset"
                            )
                        label = len(label_names)
                        label_index[second] = label
                        label_names.append(second)
                    index_of[first] = len(ids)
                    ids.append(first)
                    labels.append(label)
                    degrees.append(0)
                    continue
                if first == second:
                    raise GraphError(
                        f"{edgelist_path}:{line_number}: self loop on node "
                        f"{first!r} is not allowed"
                    )
                try:
                    ui, vi = index_of[first], index_of[second]
                except KeyError as exc:
                    raise GraphError(
                        f"{edgelist_path}:{line_number}: edge references "
                        f"undeclared node {exc.args[0]!r}"
                    ) from None
                eid = num_edges
                num_edges += 1
                degrees[ui] += 1
                degrees[vi] += 1
                spiller.add(ui, vi, labels[vi], eid)
                spiller.add(vi, ui, labels[ui], eid)
                lo, hi = (ui, vi) if ui < vi else (vi, ui)
                endpoint_buf.append(lo)
                endpoint_buf.append(hi)
                if len(endpoint_buf) >= _FLUSH_VALUES:
                    flush_endpoints()
            flush_endpoints()

        num_nodes = len(ids)
        labels_arr = np.asarray(labels, dtype=np.int64)
        degrees_arr = np.asarray(degrees, dtype=np.int64)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees_arr, out=indptr[1:])
        del labels, degrees

        ids_blob_len = None
        id_offsets = id_blob = None
        if store_ids:
            id_offsets, id_blob = encode_node_ids(ids)
            ids_blob_len = len(id_blob)

        writer = HmgWriter(
            out_path,
            label_names=label_names,
            num_nodes=num_nodes,
            num_edges=num_edges,
            ids_blob_len=ids_blob_len,
        )
        try:
            writer.append("labels", labels_arr)
            writer.append("degrees", degrees_arr)
            writer.append("indptr", indptr)

            with telemetry.span("ingest/merge"):
                fingerprint = _merge_adjacency(
                    writer, spiller, labels_arr, degrees_arr,
                    LabelSet(tuple(label_names)), ids, num_nodes,
                )

            with open(endpoints_path, "rb") as handle:
                while True:
                    block = np.fromfile(handle, dtype="<i8", count=_FLUSH_VALUES)
                    if block.size == 0:
                        break
                    writer.append("edge_u", block[0::2])
                    writer.append("edge_v", block[1::2])
            if store_ids:
                writer.append("id_offsets", id_offsets)
                writer.append_blob("id_blob", id_blob)
            result = writer.finalize(fingerprint)
        except BaseException:
            writer.abort()
            raise

    telemetry.count("ingest/nodes", num_nodes)
    telemetry.count("ingest/edges", num_edges)
    telemetry.count("ingest/sort_runs", len(spiller.runs))
    return result


def _merge_adjacency(
    writer: HmgWriter,
    spiller: _EdgeSpiller,
    labels_arr: np.ndarray,
    degrees_arr: np.ndarray,
    labelset: LabelSet,
    ids: list,
    num_nodes: int,
) -> str:
    """K-way merge the sorted runs into the CSR sections; return the
    graph fingerprint (folded row by row as the rows are written)."""

    neigh_buf: list[int] = []
    eid_buf: list[int] = []

    def flush() -> None:
        if neigh_buf:
            writer.append("neighbors", neigh_buf)
            neigh_buf.clear()
            writer.append("edge_ids", eid_buf)
            eid_buf.clear()

    def rows() -> Iterator[np.ndarray]:
        current = 0
        row: list[int] = []
        prev_dst = -1
        for src, _dst_label, dst, eid in spiller.merged():
            if src != current:
                while current < src:
                    yield np.asarray(row, dtype=np.int64)
                    row = []
                    prev_dst = -1
                    current += 1
            elif dst == prev_dst:
                raise GraphError(
                    f"duplicate edge ({ids[src]!r}, {ids[dst]!r})"
                )
            row.append(dst)
            prev_dst = dst
            neigh_buf.append(dst)
            eid_buf.append(eid)
            if len(neigh_buf) >= _FLUSH_VALUES:
                flush()
        while current < num_nodes:
            yield np.asarray(row, dtype=np.int64)
            row = []
            prev_dst = -1
            current += 1

    fingerprint = fingerprint_adjacency(labelset, labels_arr, rows())
    flush()
    return fingerprint


def census_stream(
    graph,
    roots: Iterable[int],
    config: CensusConfig | None = None,
    *,
    batch_size: int = 1024,
    ctx: RunContext | None = None,
    sampled=None,
    mp_context=None,
) -> Iterator[tuple[int, "Counter"]]:
    """Census roots in bounded batches, yielding ``(root, census)`` pairs.

    The item-sampler half of the out-of-core pipeline: ``roots`` may be
    any iterable (a generator over a node range, a file of ids, ...);
    only one ``batch_size`` window of roots and results is ever alive in
    this process.  Each batch runs through
    :meth:`~repro.core.features.SubgraphFeatureExtractor.census_many`,
    so the context's engine, ``n_jobs`` fan-out and remote dispatch,
    and the dedup/cache discipline, behave exactly as in the list-at-once
    path —
    and when ``ctx`` carries an :class:`~repro.runtime.store.ArtifactStore`,
    each batch's rows are spilled into its census stage as they are
    computed, which is what keeps warm re-runs and downstream feature
    builds from re-censusing.

    Pairs are yielded in input order.  With an
    :class:`~repro.core.mmap_graph.MmapGraph` the worker pools re-open
    the mapping per process instead of unpickling a graph, so parallel
    batches neither copy the graph nor grow RSS with graph size.
    """
    if batch_size < 1:
        raise FeatureError(f"batch_size must be >= 1, got {batch_size}")
    extractor = SubgraphFeatureExtractor(
        config, sampled=sampled, ctx=ctx, mp_context=mp_context
    )
    telemetry = get_telemetry()
    batch: list[int] = []

    def run_batch() -> Iterator[tuple[int, "Counter"]]:
        telemetry.count("census/stream_batches")
        telemetry.count("census/stream_roots", len(batch))
        return zip(tuple(batch), extractor.census_many(graph, batch))

    for root in roots:
        batch.append(int(root))
        if len(batch) >= batch_size:
            yield from run_batch()
            batch.clear()
    if batch:
        yield from run_batch()
