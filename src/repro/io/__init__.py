"""Serialisation of heterogeneous graphs and extracted features."""

from repro.io.edgelist import iter_edgelist, read_edgelist, write_edgelist
from repro.io.jsongraph import (
    features_from_dict,
    features_to_dict,
    graph_from_dict,
    graph_to_dict,
    read_features_json,
    read_graph_json,
    write_features_json,
    write_graph_json,
)
from repro.io.stream import (
    build_mmap_graph,
    census_stream,
    to_mmap_graph,
    write_mmap_graph,
)

__all__ = [
    "build_mmap_graph",
    "census_stream",
    "features_from_dict",
    "features_to_dict",
    "graph_from_dict",
    "graph_to_dict",
    "iter_edgelist",
    "read_edgelist",
    "read_features_json",
    "read_graph_json",
    "to_mmap_graph",
    "write_edgelist",
    "write_features_json",
    "write_graph_json",
    "write_mmap_graph",
]
