"""Label connectivity graphs (Figure 1A / Figure 2 of the paper).

The label connectivity graph of a heterogeneous network aggregates all nodes
with the same label into a single node; it has a self loop iff the network
contains an edge between two same-labelled nodes.  The paper uses it both to
characterise datasets (star-like IMDB vs fully connected LOAD) and to state
the collision-free bound on subgraph size: ``e_max = 5`` without label loops
and ``e_max = 4`` with loops (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet


@dataclass(frozen=True)
class LabelConnectivity:
    """Aggregated label-level view of a heterogeneous network.

    Attributes
    ----------
    labelset:
        The underlying label alphabet.
    edge_counts:
        Symmetric ``|L| x |L|`` matrix; entry ``(a, b)`` counts network edges
        between an ``a``-labelled and a ``b``-labelled node.  The diagonal
        counts same-label edges (each once).
    """

    labelset: LabelSet
    edge_counts: np.ndarray

    @property
    def has_loops(self) -> bool:
        """Whether any label is connected to itself (Section 3.1 bound)."""
        return bool(np.any(np.diag(self.edge_counts) > 0))

    def label_pairs(self) -> list[tuple[str, str, int]]:
        """Connected label pairs as ``(name_a, name_b, count)``, a <= b."""
        pairs = []
        k = len(self.labelset)
        for a in range(k):
            for b in range(a, k):
                count = int(self.edge_counts[a, b])
                if count:
                    pairs.append((self.labelset.name(a), self.labelset.name(b), count))
        return pairs

    def collision_free_emax(self) -> int:
        """Maximum subgraph edge count with guaranteed unique encodings.

        The paper derives ``e_max = 5`` for networks whose label connectivity
        graph has no self loops and ``e_max = 4`` otherwise (Section 3.1);
        :mod:`repro.core.collisions` re-derives these bounds by enumeration.
        """
        return 4 if self.has_loops else 5

    def render(self) -> str:
        """One-line-per-pair text rendering used by the figure benches."""
        lines = [f"label connectivity over {list(self.labelset.names)}"]
        for a, b, count in self.label_pairs():
            marker = " (loop)" if a == b else ""
            lines.append(f"  {a} -- {b}: {count}{marker}")
        return "\n".join(lines)


def label_connectivity(graph: HeteroGraph) -> LabelConnectivity:
    """Compute the label connectivity graph of ``graph``."""
    k = len(graph.labelset)
    counts = np.zeros((k, k), dtype=np.int64)
    labels = graph.labels
    for u, v in graph.edges():
        a, b = int(labels[u]), int(labels[v])
        if a == b:
            counts[a, a] += 1
        else:
            counts[a, b] += 1
            counts[b, a] += 1
    return LabelConnectivity(graph.labelset, counts)
