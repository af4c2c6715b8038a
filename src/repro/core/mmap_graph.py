"""Memory-mapped on-disk heterogeneous graph storage (``.hmg``).

Out-of-core storage of the one flat CSR adjacency every graph has: the
:class:`~repro.core.graph.FlatAdjacency` sections live in one binary
file that is ``mmap``-opened read-only, and :class:`MmapGraph` is a
:class:`~repro.core.graph.FlatGraph` whose snapshot fields are zero-copy
``memoryview("q")`` windows into it.  Indexing such a window yields plain
Python ints, exactly like the lists of an in-memory snapshot, so every
accessor and census engine runs on it unchanged and bit-identically (see
``tests/test_mmap_graph.py``).  This module adds only the file format and
the external node ids.

File format
-----------
All integers are little-endian ``int64``; every section is 8-byte
aligned::

    offset 0   magic  b"HMGRAPH1"
    offset 8   uint64 header length in bytes
    offset 16  header JSON (UTF-8, space-padded to an 8-byte multiple)
    ...        arrays back to back, offsets recorded in the header:
                 labels[n]     label per node
                 degrees[n]    degree per node
                 indptr[n+1]   CSR offsets
                 neighbors[2m] flat adjacency, per node sorted by
                               (label, index) — the census invariant
                 edge_ids[2m]  dense undirected-edge id per slot
                 edge_u[m]     edge endpoints, edge_u[e] < edge_v[e]
                 edge_v[m]
                 id_offsets[n+1], id_blob  optional external node ids
                                           (JSON-encoded, concatenated)

The header carries the format version, node/edge counts, the label
alphabet, the section table, and the graph ``fingerprint`` — the same
content hash its in-memory twin computes, so censuses on either storage
share :class:`~repro.runtime.store.ArtifactStore` keys.
Writers emit the whole file to a temp sibling and ``os.replace`` it
into place, so a reader can never observe a torn file.

RSS model: opening is O(1); the kernel pages in only the bytes a census
actually touches and may evict them under pressure, so peak RSS stays
flat in graph size.  Pickling an :class:`MmapGraph` ships only the path
— worker pools re-open the mapping instead of serialising the graph.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

try:  # pragma: no cover - exercised via monkeypatch in tests
    import mmap as _mmap_module
except ImportError:  # pragma: no cover - platforms without mmap
    _mmap_module = None

from repro.core.graph import FlatAdjacency, FlatGraph, NodeId
from repro.core.labels import LabelSet
from repro.exceptions import GraphError

#: File magic — 8 bytes, doubles as a format-name/major-version stamp.
HMG_MAGIC = b"HMGRAPH1"
#: Header JSON schema version (minor revisions bump this).
HMG_VERSION = 1
#: Conventional suffix; the loader only trusts the magic, not the name.
HMG_SUFFIX = ".hmg"

_PREAMBLE = struct.Struct("<8sQ")
_ITEM = 8  # bytes per int64 array element
#: Bytes per ``write()``: larger writes leave larger page-cache folios,
#: and a later mapping of the file counts whole folios as resident.
_WRITE_BYTES = 1 << 19

#: Array sections in file order: (name, count as f(num_nodes, num_edges)).
_SECTIONS = (
    ("labels", lambda n, m: n),
    ("degrees", lambda n, m: n),
    ("indptr", lambda n, m: n + 1),
    ("neighbors", lambda n, m: 2 * m),
    ("edge_ids", lambda n, m: 2 * m),
    ("edge_u", lambda n, m: m),
    ("edge_v", lambda n, m: m),
)

_HEADER_KEYS = ("version", "fingerprint", "num_nodes", "num_edges", "labels", "arrays")

#: Placeholder hashed-size stand-in written before the real fingerprint is
#: known; same length as a blake2b-16 hexdigest so the header size is fixed.
_FINGERPRINT_PLACEHOLDER = "0" * 32


def _aligned(n: int) -> int:
    return (n + 7) & ~7


def _map_readonly(path: Path) -> tuple[memoryview, bool]:
    """Map ``path`` read-only; fall back to buffered reads without mmap.

    Returns ``(buffer, mmap_backed)``.  The fallback (``mmap`` module
    missing or the mapping refused, e.g. exotic filesystems) loads the
    file into memory — same semantics, no out-of-core benefit — so
    every ``.hmg`` consumer works on platforms without ``mmap``.
    """
    with open(path, "rb") as handle:
        if _mmap_module is not None:
            try:
                mapped = _mmap_module.mmap(
                    handle.fileno(), 0, access=_mmap_module.ACCESS_READ
                )
                return memoryview(mapped), True
            except (OSError, ValueError, OverflowError):
                handle.seek(0)
        return memoryview(handle.read()), False


class MmapGraph(FlatGraph):
    """A read-only heterogeneous graph opened from a ``.hmg`` file.

    Every graph accessor comes from :class:`~repro.core.graph.FlatGraph`;
    this class adds the file (open, validate, close) and external node
    ids (``node_id``/``index``/``node_ids``), all zero-copy over the
    mapping.

    Pickles as its path: worker processes re-open the mapping on
    ``__setstate__`` — a few syscalls — instead of receiving a
    serialised graph, which is both why ``census_many`` pool startup is
    cheap and why peak RSS stays flat at any ``n_jobs``.
    """

    storage_kind = "mmap"

    __slots__ = (
        "_path",
        "_buffer",
        "_mmap_backed",
        "_header",
        "_id_offsets",
        "_id_blob",
        "_index_of",
    )

    def __init__(self, path) -> None:
        self._path = Path(path)
        try:
            buffer, mmap_backed = _map_readonly(self._path)
        except OSError as exc:
            raise GraphError(f"cannot open mmap graph {self._path}: {exc}") from None
        self._buffer = buffer
        self._mmap_backed = mmap_backed
        header = self._read_header(buffer)
        self._header = header
        labelset = LabelSet(tuple(header["labels"]))
        n, m = header["num_nodes"], header["num_edges"]
        arrays = {}
        for name, count_of in _SECTIONS:
            arrays[name] = self._view(name, count_of(n, m))
        flat = FlatAdjacency(
            labels=arrays["labels"],
            degrees=arrays["degrees"],
            indptr=arrays["indptr"],
            neighbors=arrays["neighbors"],
            edge_ids=arrays["edge_ids"],
            edge_u=arrays["edge_u"],
            edge_v=arrays["edge_v"],
        )
        FlatGraph.__init__(self, flat, labelset)
        self._num_nodes = n  # len(memoryview) agrees; keep the header's word
        self._fingerprint = header["fingerprint"]
        if "id_offsets" in header["arrays"]:
            self._id_offsets = self._view("id_offsets", n + 1)
            off, nbytes = header["arrays"]["id_blob"]
            self._check_span("id_blob", off, nbytes)
            self._id_blob = bytes(buffer[off: off + nbytes])
        else:
            self._id_offsets = None
            self._id_blob = None
        self._index_of = None  # id -> index map, built on first index()

    # ------------------------------------------------------------------
    # Loading / validation
    # ------------------------------------------------------------------
    def _read_header(self, buffer: memoryview) -> dict:
        path = self._path
        if len(buffer) < _PREAMBLE.size:
            raise GraphError(
                f"truncated mmap graph {path}: {len(buffer)} bytes is smaller "
                f"than the {_PREAMBLE.size}-byte preamble"
            )
        magic, header_len = _PREAMBLE.unpack_from(buffer, 0)
        if magic != HMG_MAGIC:
            raise GraphError(
                f"{path} is not an .hmg graph file (bad magic {magic!r})"
            )
        end = _PREAMBLE.size + header_len
        if len(buffer) < end:
            raise GraphError(
                f"truncated mmap graph {path}: header claims {header_len} "
                f"bytes but only {len(buffer) - _PREAMBLE.size} follow"
            )
        try:
            header = json.loads(bytes(buffer[_PREAMBLE.size: end]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GraphError(f"corrupt .hmg header in {path}: {exc}") from None
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise GraphError(
                f"corrupt .hmg header in {path}: missing keys {missing}"
            )
        if header["version"] != HMG_VERSION:
            raise GraphError(
                f"unsupported .hmg version {header['version']} in {path} "
                f"(this build reads version {HMG_VERSION})"
            )
        return header

    def _check_span(self, name: str, offset: int, nbytes: int) -> None:
        if offset < 0 or offset + nbytes > len(self._buffer):
            raise GraphError(
                f"truncated mmap graph {self._path}: section {name!r} "
                f"spans bytes [{offset}, {offset + nbytes}) of a "
                f"{len(self._buffer)}-byte file"
            )

    def _view(self, name: str, count: int) -> memoryview:
        """Zero-copy int64 window for one section (plain ints on indexing)."""
        try:
            offset, stored = self._header["arrays"][name]
        except (KeyError, TypeError, ValueError):
            raise GraphError(
                f"corrupt .hmg header in {self._path}: bad section table "
                f"entry for {name!r}"
            ) from None
        if stored != count:
            raise GraphError(
                f"corrupt .hmg header in {self._path}: section {name!r} has "
                f"{stored} entries, counts imply {count}"
            )
        self._check_span(name, offset, count * _ITEM)
        return self._buffer[offset: offset + count * _ITEM].cast("q")

    # ------------------------------------------------------------------
    # Identity / lifecycle
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The backing ``.hmg`` file."""
        return self._path

    @property
    def mmap_backed(self) -> bool:
        """False when the buffered-read fallback was used (no ``mmap``)."""
        return self._mmap_backed

    def __getstate__(self):
        return str(self._path)

    def __setstate__(self, state) -> None:
        self.__init__(state)

    def close(self) -> None:
        """Release the mapping.  The graph is unusable afterwards."""
        self._flat = None
        self._id_offsets = None
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            obj = buffer.obj
            buffer.release()
            if self._mmap_backed and obj is not None:
                obj.close()

    def __enter__(self) -> "MmapGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # External node ids (present when the writer stored them)
    # ------------------------------------------------------------------
    def _require_ids(self) -> None:
        if self._id_offsets is None:
            raise GraphError(
                f"mmap graph {self._path} was written without external node "
                "ids; address nodes by integer index"
            )

    def node_id(self, index: int) -> NodeId:
        """External id of an internal index (the index itself if none stored)."""
        if not 0 <= index < self._num_nodes:
            raise GraphError(f"node index {index} out of range")
        if self._id_offsets is None:
            return index
        lo, hi = self._id_offsets[index], self._id_offsets[index + 1]
        return json.loads(self._id_blob[lo:hi].decode("utf-8"))

    @property
    def node_ids(self) -> tuple:
        """All external ids in index order (materialises O(n) — avoid on
        graphs that were mmap'd *because* they don't fit in memory)."""
        return tuple(self.node_id(i) for i in range(self._num_nodes))

    def index(self, node_id: NodeId) -> int:
        """Internal index of an external node id.

        Builds the id map lazily on first use (O(n) memory); integer
        indices are always accepted, so out-of-core pipelines that
        address nodes by index never pay for the map.
        """
        if isinstance(node_id, int) and self._id_offsets is None:
            if not 0 <= node_id < self._num_nodes:
                raise GraphError(f"unknown node {node_id!r}")
            return node_id
        self._require_ids()
        if self._index_of is None:
            self._index_of = {
                self.node_id(i): i for i in range(self._num_nodes)
            }
        try:
            return self._index_of[node_id]
        except (KeyError, TypeError):
            raise GraphError(f"unknown node {node_id!r}") from None


def encode_node_ids(ids) -> tuple[np.ndarray, bytes]:
    """JSON-encode external node ids into ``(offsets, blob)`` sections."""
    chunks: list[bytes] = []
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    total = 0
    for i, node_id in enumerate(ids):
        try:
            chunk = json.dumps(node_id, ensure_ascii=False).encode("utf-8")
        except (TypeError, ValueError):
            raise GraphError(
                f"node id {node_id!r} is not JSON-serialisable; .hmg files "
                "store external ids as JSON"
            ) from None
        chunks.append(chunk)
        total += len(chunk)
        offsets[i + 1] = total
    return offsets, b"".join(chunks)


class HmgWriter:
    """Sequential writer for one ``.hmg`` file.

    Section sizes are fixed by ``(num_nodes, num_edges, ids_blob_len)``,
    so the layout — and therefore the header length — is known before
    any array data arrives.  The header is first written with a
    fingerprint placeholder of the final hexdigest's exact length, the
    arrays are streamed in chunks (callers never hold a full array of a
    big graph in memory), and :meth:`finalize` patches the real
    fingerprint in and atomically renames the temp file into place.
    """

    def __init__(
        self,
        path,
        *,
        label_names,
        num_nodes: int,
        num_edges: int,
        ids_blob_len: int | None = None,
    ) -> None:
        self.path = Path(path)
        self._label_names = tuple(label_names)
        self._n = int(num_nodes)
        self._m = int(num_edges)
        sections = [(name, count_of(self._n, self._m)) for name, count_of in _SECTIONS]
        if ids_blob_len is not None:
            sections.append(("id_offsets", self._n + 1))
        # Size the header before any offset exists: serialise a probe table
        # with worst-case-width numbers, so the real header (written again
        # by finalize with the actual fingerprint) can never outgrow it.
        probe = {name: [2**62, 2**62] for name, _ in sections}
        if ids_blob_len is not None:
            probe["id_blob"] = [2**62, 2**62]
        self._header_len = _aligned(len(self._header_json(_FINGERPRINT_PLACEHOLDER, probe)))
        self._layout: dict[str, tuple[int, int]] = {}
        self._written: dict[str, int] = {}
        cursor = _PREAMBLE.size + self._header_len
        for name, count in sections:
            self._layout[name] = (cursor, count)
            self._written[name] = 0
            cursor += _aligned(count * _ITEM)
        if ids_blob_len is not None:
            self._layout["id_blob"] = (cursor, ids_blob_len)
            self._written["id_blob"] = 0
            cursor += _aligned(ids_blob_len)
        self._total = cursor
        handle, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        self._tmp = Path(tmp_name)
        self._handle = os.fdopen(handle, "wb")
        self._handle.write(_PREAMBLE.pack(HMG_MAGIC, self._header_len))
        self._handle.write(self._header_bytes(_FINGERPRINT_PLACEHOLDER))
        self._handle.truncate(self._total)

    def _header_json(self, fingerprint: str, arrays: dict) -> bytes:
        header = {
            "version": HMG_VERSION,
            "fingerprint": fingerprint,
            "num_nodes": self._n,
            "num_edges": self._m,
            "labels": list(self._label_names),
            "arrays": {name: list(span) for name, span in sorted(arrays.items())},
        }
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    def _header_bytes(self, fingerprint: str) -> bytes:
        body = self._header_json(fingerprint, self._layout)
        if len(body) > self._header_len:  # pragma: no cover - probe invariant
            raise GraphError("internal error: .hmg header outgrew its probe")
        return body + b" " * (self._header_len - len(body))

    def append(self, name: str, values) -> None:
        """Append int64 ``values`` (any array-like chunk) to a section."""
        offset, count = self._layout[name]
        chunk = np.ascontiguousarray(values, dtype="<i8")
        done = self._written[name]
        if done + chunk.size > count:
            raise GraphError(
                f"section {name!r} overflow: {done + chunk.size} > {count}"
            )
        self._write(offset + done * _ITEM, chunk.view(np.uint8))
        self._written[name] = done + chunk.size

    def append_blob(self, name: str, data: bytes) -> None:
        """Append raw bytes to a blob section (node-id payload)."""
        offset, nbytes = self._layout[name]
        done = self._written[name]
        if done + len(data) > nbytes:
            raise GraphError(
                f"section {name!r} overflow: {done + len(data)} > {nbytes}"
            )
        self._write(offset + done, data)
        self._written[name] = done + len(data)

    def _write(self, offset: int, data) -> None:
        view = memoryview(data)  # bytes
        self._handle.seek(offset)
        for start in range(0, len(view), _WRITE_BYTES):
            self._handle.write(view[start: start + _WRITE_BYTES])

    def finalize(self, fingerprint: str) -> Path:
        """Patch the fingerprint in, fsync, and atomically publish."""
        short = [
            name
            for name, (offset, count) in self._layout.items()
            if self._written[name] != count
        ]
        if short:
            self.abort()
            raise GraphError(f"incomplete .hmg sections: {short}")
        self._handle.seek(_PREAMBLE.size)
        self._handle.write(self._header_bytes(fingerprint))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Drop the temp file (safe to call after a failed write)."""
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass
