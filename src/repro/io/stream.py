"""Out-of-core graph ingestion and the streaming census pipeline.

Three pieces, composing into a pipeline whose peak RSS is flat in graph
size (the RSS model is asserted end to end by
``benchmarks/test_perf_census_mmap.py``):

* :func:`build_mmap_graph` — a two-pass external-sort ingester turning a
  labelled edge list of arbitrary size into a ``.hmg`` file
  (:mod:`repro.core.mmap_graph`) in bounded memory: numpy spills each
  chunk of edges as one sorted run, then merges the runs one block of
  whole source rows at a time, so the full adjacency never exists in
  RAM.  Memory is O(nodes) for labels/degrees/ids plus O(chunk_edges)
  for the run or block in hand — never O(edges).
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
import os
import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.census import CensusConfig
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import _digest
from repro.core.labels import LabelSet
from repro.core.mmap_graph import HMG_SUFFIX, HmgWriter, MmapGraph, encode_node_ids
from repro.exceptions import FeatureError, GraphError
from repro.io.edgelist import iter_edgelist
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext

#: Undirected edges per external-sort run (each run holds both
#: orientations, i.e. ``2 * chunk`` records of four int64s); the merge
#: block holds about as many records.
DEFAULT_CHUNK_EDGES = 1 << 18

_FLUSH_VALUES = 1 << 16  # int64s per read of the endpoint file

_NO_RECORDS = np.empty((0, 4), dtype=np.int64)  # (src, dst_label, dst, edge_id)


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


class _Run:
    """One sorted run in the shared runs file, read front to back.

    ``carry`` holds the records read past the last block's end, so a
    run keeps at most one read piece between blocks, and no run stays
    mapped: ``ru_maxrss`` would count a mapped run's pages.
    """

    def __init__(self, start: int, stop: int) -> None:
        self.next, self.stop = start, stop
        self.carry = _NO_RECORDS

    def take(self, handle, src_end: int, piece: int) -> np.ndarray:
        """This run's next records, up to the first with ``src >= src_end``."""
        if len(self.carry) and self.carry[0, 0] >= src_end:
            return _NO_RECORDS
        parts = [self.carry]
        while self.next < self.stop and (not len(parts[-1]) or parts[-1][-1, 0] < src_end):
            count = min(piece, self.stop - self.next)
            handle.seek(32 * self.next)  # four int64s a record
            parts.append(np.fromfile(handle, dtype=np.int64, count=4 * count).reshape(-1, 4))
            self.next += count
        records = np.concatenate(parts)
        cut = int(np.searchsorted(records[:, 0], src_end))
        self.carry = records[cut:].copy()
        return records[:cut]


def _pieces(path: Path) -> Iterator[np.ndarray]:
    """The int64s of a scratch file, ``_FLUSH_VALUES`` at a time."""
    with open(path, "rb") as handle:
        while True:
            piece = np.fromfile(handle, dtype=np.int64, count=_FLUSH_VALUES)
            if not piece.size:
                return
            yield piece


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
       :func:`repro.io.edgelist.iter_edgelist`) collects node labels and
       ids and buffers edges as index pairs, numbered in file order;
       every ``chunk_edges`` edges it writes their ``(lo, hi)``
       endpoints (the ``edge_u``/``edge_v`` sections, and the degrees)
       and spills both orientations as one run sorted by
       ``(src, dst_label, dst)``;
    2. a block merge takes, for each block of whole source rows (about
       ``2 * chunk_edges`` records), every run's records for it, lexsorts
       them into census order and writes ``neighbors``/``edge_ids``,
       hashing each block as it goes — the same content hash the
       in-memory graph computes, so both storages share ArtifactStore
       keys.

    Malformed lines, duplicate/undeclared nodes, and self loops are
    reported with their line number; duplicate edges are caught during
    the merge and named by their endpoints.  The output file appears
    atomically (temp + rename) and does not depend on ``chunk_edges``.
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
    labels = array("q")
    pairs = array("q")  # the chunk's edges, interleaved (u, v) indices
    run_ends: list[int] = []  # cumulative record count after each run

    with tempfile.TemporaryDirectory(
        prefix="hmg-ingest-", dir=tmp_dir
    ) as scratch_name:
        scratch = Path(scratch_name)
        endpoints_path, runs_path = scratch / "endpoints.bin", scratch / "runs.bin"
        num_edges = 0

        with telemetry.span("ingest/scan"), open(endpoints_path, "wb") as endpoints, open(
            runs_path, "wb"
        ) as runs:

            def flush() -> None:
                uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
                del pairs[:]
                np.sort(uv, axis=1).tofile(endpoints)
                eid = np.arange(num_edges - len(uv), num_edges)
                src = np.concatenate((uv[:, 0], uv[:, 1]))
                dst = np.concatenate((uv[:, 1], uv[:, 0]))
                lbl = np.frombuffer(labels, dtype=np.int64)[dst]
                order = np.lexsort((dst, lbl, src))
                run = np.stack((src, lbl, dst, np.concatenate((eid, eid))), axis=1)
                run[order].tofile(runs)
                run_ends.append((run_ends[-1] if run_ends else 0) + len(run))

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
                    continue
                if first == second:
                    raise GraphError(
                        f"{edgelist_path}:{line_number}: self loop on node "
                        f"{first!r} is not allowed"
                    )
                try:
                    pairs.append(index_of[first])
                    pairs.append(index_of[second])
                except KeyError as exc:
                    raise GraphError(
                        f"{edgelist_path}:{line_number}: edge references "
                        f"undeclared node {exc.args[0]!r}"
                    ) from None
                num_edges += 1
                if len(pairs) >= 2 * chunk_edges:
                    flush()
            if pairs:
                flush()
        del index_of

        num_nodes = len(ids)
        labels_arr = np.frombuffer(labels, dtype=np.int64)
        degrees = np.zeros(num_nodes, dtype=np.int64)
        for piece in _pieces(endpoints_path):
            degrees += np.bincount(piece, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

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
            writer.append("degrees", degrees)
            writer.append("indptr", indptr)
            with telemetry.span("ingest/merge"):
                blocks = _merge_blocks(writer, runs_path, run_ends, indptr, 2 * chunk_edges, ids)
                fingerprint = _digest(LabelSet(tuple(label_names)), labels_arr, blocks)
            for piece in _pieces(endpoints_path):
                writer.append("edge_u", piece[0::2])
                writer.append("edge_v", piece[1::2])
            if store_ids:
                writer.append("id_offsets", id_offsets)
                writer.append_blob("id_blob", id_blob)
            result = writer.finalize(fingerprint)
        except BaseException:
            writer.abort()
            raise

    telemetry.count("ingest/nodes", num_nodes)
    telemetry.count("ingest/edges", num_edges)
    telemetry.count("ingest/sort_runs", len(run_ends))
    return result


def _merge_blocks(
    writer: HmgWriter,
    runs_path: Path,
    run_ends: list[int],
    indptr: np.ndarray,
    block: int,
    ids: list,
) -> Iterator[np.ndarray]:
    """Merge the sorted runs into ``neighbors``/``edge_ids``, one block
    of whole source rows (about ``block`` records) at a time; yield each
    block's fingerprint body: its int64 row bytes, ``b"|"`` after each row."""
    runs = [_Run(start, stop) for start, stop in zip([0] + run_ends[:-1], run_ends)]
    piece = max(1, block // max(1, len(runs)))
    num_nodes = len(indptr) - 1
    start = 0
    with open(runs_path, "rb") as handle:
        while start < num_nodes:
            stop = int(np.searchsorted(indptr, indptr[start] + block, side="right")) - 1
            stop = max(start + 1, stop)
            parts = [run.take(handle, stop, piece) for run in runs]
            records = np.concatenate([_NO_RECORDS] + parts)
            order = np.lexsort((records[:, 2], records[:, 1], records[:, 0]))
            src, dst, eid = records[order, 0], records[order, 2], records[order, 3]
            dup = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
            if dup.size:
                at = dup[0]
                raise GraphError(f"duplicate edge ({ids[src[at]]!r}, {ids[dst[at]]!r})")
            writer.append("neighbors", dst)
            writer.append("edge_ids", eid)
            row_ends = 8 * (indptr[start + 1: stop + 1] - indptr[start])
            yield np.insert(dst.view(np.uint8), row_ends, ord("|"))
            start = stop
            runs = [run for run in runs if run.next < run.stop or len(run.carry)]


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
