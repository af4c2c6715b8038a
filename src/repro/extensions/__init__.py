"""Future-work extensions of the paper (Section 5): directed and
edge-heterogeneous subgraph features via endpoint-role-typed edges."""

from repro.extensions.edge_typed import (
    IN,
    OUT,
    EdgeTypedGraph,
    encode_typed_subgraph,
    typed_subgraph_census,
)

__all__ = [
    "EdgeTypedGraph",
    "IN",
    "OUT",
    "encode_typed_subgraph",
    "typed_subgraph_census",
]
