"""Labelled edge-list serialisation.

A simple line-oriented text format for heterogeneous graphs:

* node lines: ``v <node-id> <label>``
* edge lines: ``e <node-id> <node-id>``
* ``#`` starts a comment; blank lines are ignored.

Node ids are URL-style percent-escaped so ids containing whitespace
round-trip.  This is the interchange format the examples use to hand
networks to and from external tools.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import quote, unquote

from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet
from repro.exceptions import GraphError


def _escape(token: str) -> str:
    return quote(str(token), safe="")


def _unescape(token: str) -> str:
    return unquote(token)


def write_edgelist(graph: HeteroGraph, path: str | Path) -> None:
    """Write a graph to the labelled edge-list format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# heterogeneous labelled edge list\n")
        handle.write(f"# labels: {' '.join(_escape(n) for n in graph.labelset.names)}\n")
        for index, node_id in enumerate(graph.node_ids):
            label = graph.labelset.name(graph.label_of(index))
            handle.write(f"v {_escape(node_id)} {_escape(label)}\n")
        for u, v in graph.edges():
            handle.write(f"e {_escape(graph.node_id(u))} {_escape(graph.node_id(v))}\n")


def iter_edgelist(path: str | Path):
    """Stream parse events from a labelled edge-list file.

    Yields ``("v", line_number, node_id, label)`` and
    ``("e", line_number, u, v)`` tuples one line at a time — never the
    whole file — raising :class:`~repro.exceptions.GraphError` with the
    offending line number on malformed lines.  This is the single parser
    shared by :func:`read_edgelist` (in-memory graphs) and
    :func:`repro.io.stream.build_mmap_graph` (out-of-core ingestion);
    semantic checks (duplicate nodes, undeclared endpoints) belong to
    the consumers, which keep the line number for their messages.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 3:
                yield "v", line_number, _unescape(parts[1]), _unescape(parts[2])
            elif parts[0] == "e" and len(parts) == 3:
                yield "e", line_number, _unescape(parts[1]), _unescape(parts[2])
            else:
                raise GraphError(f"{path}:{line_number}: malformed line {line!r}")


def read_edgelist(path: str | Path, labelset: LabelSet | None = None) -> HeteroGraph:
    """Read a graph from the labelled edge-list format.

    Streams the file in two passes instead of buffering an O(edges)
    list: the first pass collects node labels (and validates that every
    edge endpoint was declared on an earlier line), the second feeds
    edges straight into :meth:`HeteroGraph.from_edges` as a generator,
    so peak memory is the graph being built plus one line.

    Raises
    ------
    GraphError
        On malformed lines, edges before their nodes, or duplicate
        nodes — each reported with its line number.
    """
    path = Path(path)
    node_labels: dict[str, str] = {}
    for kind, line_number, first, second in iter_edgelist(path):
        if kind == "v":
            if first in node_labels:
                raise GraphError(f"{path}:{line_number}: duplicate node {first!r}")
            node_labels[first] = second
        else:
            for node in (first, second):
                if node not in node_labels:
                    raise GraphError(
                        f"{path}:{line_number}: edge references undeclared node {node!r}"
                    )

    def edge_stream():
        for kind, _line_number, u, v in iter_edgelist(path):
            if kind == "e":
                yield u, v

    return HeteroGraph.from_edges(node_labels, edge_stream(), labelset=labelset)
