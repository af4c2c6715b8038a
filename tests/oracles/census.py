"""The reference census: the parity oracle for ``subgraph_census``.

:func:`reference_census` is the straightforward implementation of the
rooted census of Section 3.2 — recursive DFS, set-based subgraph state,
and a full sort of the member rows for every emitted code.  The library's
exact engine (``repro.core.census._FastCensusRun``) is an optimisation of
exactly this enumeration, so the two must return bit-identical Counters
for every configuration; ``tests/test_census_engines.py`` and the parity
suites assert that, and ``benchmarks/test_perf_census.py`` times the
library against it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.core.census import CensusConfig, _cap_exceeded, effective_labelset
from repro.core.encoding import CanonicalCode, code_to_string
from repro.core.graph import HeteroGraph
from repro.core.hashing import RollingSubgraphHash
from repro.exceptions import CensusError

Edge = tuple[int, int]


class _CensusRun:
    """Mutable state of one rooted enumeration: the straightforward
    recursive transcription of the algorithm, with set-based subgraph
    state and a full sort per emitted code."""

    __slots__ = (
        "graph",
        "config",
        "root",
        "labelset",
        "num_labels",
        "eff_labels",
        "counts",
        "member_counts",
        "sub_edges",
        "banned",
        "hasher",
        "current_hash",
        "emitted",
    )

    def __init__(self, graph: HeteroGraph, root: int, config: CensusConfig) -> None:
        self.graph = graph
        self.config = config
        self.root = root
        labelset = effective_labelset(graph, config)
        self.labelset = labelset
        self.num_labels = len(labelset)
        # Effective label per node: the root may be masked.
        self.eff_labels: Callable[[int], int]
        if config.mask_start_label:
            mask = labelset.mask_index

            def eff(node: int, _mask: int = mask, _root: int = root) -> int:
                return _mask if node == _root else graph.label_of(node)

            self.eff_labels = eff
        else:
            self.eff_labels = graph.label_of
        self.counts: Counter = Counter()
        self.member_counts: dict[int, list[int]] = {root: [0] * self.num_labels}
        self.sub_edges: set[Edge] = set()
        self.banned: set[Edge] = set()
        self.hasher = (
            RollingSubgraphHash(self.num_labels) if config.key == "hash" else None
        )
        self.current_hash = 0
        self.emitted = 0

    # -- subgraph mutation ------------------------------------------------
    def _add_edge(self, edge: Edge) -> int | None:
        """Apply an edge; return the newly added node index, if any."""
        a, b = edge
        new_node = None
        if a not in self.member_counts:
            self.member_counts[a] = [0] * self.num_labels
            new_node = a
        if b not in self.member_counts:
            self.member_counts[b] = [0] * self.num_labels
            new_node = b
        label_a, label_b = self.eff_labels(a), self.eff_labels(b)
        self.member_counts[a][label_b] += 1
        self.member_counts[b][label_a] += 1
        self.sub_edges.add(edge)
        if self.hasher is not None:
            self.current_hash = self.hasher.add_edge(self.current_hash, label_a, label_b)
        return new_node

    def _remove_edge(self, edge: Edge, new_node: int | None) -> None:
        a, b = edge
        label_a, label_b = self.eff_labels(a), self.eff_labels(b)
        self.member_counts[a][label_b] -= 1
        self.member_counts[b][label_a] -= 1
        self.sub_edges.discard(edge)
        if new_node is not None:
            del self.member_counts[new_node]
        if self.hasher is not None:
            self.current_hash = self.hasher.remove_edge(
                self.current_hash, label_a, label_b
            )

    # -- emission ----------------------------------------------------------
    def _current_code(self) -> CanonicalCode:
        return tuple(
            sorted(
                (
                    (self.eff_labels(node), *counts)
                    for node, counts in self.member_counts.items()
                ),
                reverse=True,
            )
        )

    def _emit(self, key) -> None:
        self.counts[key] += 1
        self.emitted += 1
        cap = self.config.max_subgraphs
        if cap is not None and self.emitted > cap:
            raise _cap_exceeded(self.root, cap)

    def _key_for_current(self) -> object:
        if self.config.key == "hash":
            return self.current_hash
        code = self._current_code()
        if self.config.key == "string":
            return code_to_string(code, self.labelset)
        return code

    # -- candidate generation ----------------------------------------------
    def _expansion_edges(self, node: int) -> list[Edge]:
        """Candidate edges exposed by ``node``, unless it is a capped hub.

        The root is exempt from the ``d_max`` check, matching the paper
        ("the degree heuristic does not apply" to start nodes).
        """
        dmax = self.config.max_degree
        if (
            dmax is not None
            and node != self.root
            and self.graph.degree(node) > dmax
        ):
            return []
        edges = []
        for neighbour in self.graph.neighbors(node):
            neighbour = int(neighbour)
            edge = (node, neighbour) if node < neighbour else (neighbour, node)
            if edge not in self.sub_edges and edge not in self.banned:
                edges.append(edge)
        return edges

    # -- the enumeration ----------------------------------------------------
    def run(self) -> Counter:
        if self.config.include_trivial:
            self._emit(self._key_for_current())
        self._grow(self._expansion_edges(self.root))
        return self.counts

    def _grow(self, candidates: list[Edge]) -> None:
        """Branch on each candidate in order; ban it afterwards (exclusion
        discipline: supersets using an earlier candidate were enumerated in
        that candidate's branch)."""
        config = self.config
        group_key: object | None = None
        group_anchor: tuple[int, int] | None = None
        local_bans: list[Edge] = []
        for index, edge in enumerate(candidates):
            if edge in self.banned or edge in self.sub_edges:
                continue
            new_node = self._add_edge(edge)

            # Heterogeneous grouping heuristic: consecutive candidates that
            # attach a fresh leaf of the same label to the same anchor yield
            # encoding-identical subgraphs, so reuse the computed key.
            if config.group_by_label and new_node is not None:
                anchor = edge[0] if edge[1] == new_node else edge[1]
                this_anchor = (anchor, self.eff_labels(new_node))
                if this_anchor == group_anchor and group_key is not None:
                    key = group_key
                else:
                    key = self._key_for_current()
                    group_anchor = this_anchor
                    group_key = key
            else:
                key = self._key_for_current()
                group_anchor = None
                group_key = None

            self._emit(key)

            if len(self.sub_edges) < config.max_edges:
                if new_node is not None:
                    exposed = self._expansion_edges(new_node)
                else:
                    exposed = []
                remaining = candidates[index + 1:]
                if exposed:
                    remaining_set = set(remaining)
                    child = remaining + [e for e in exposed if e not in remaining_set]
                else:
                    child = remaining
                if child:
                    self._grow(child)

            self._remove_edge(edge, new_node)
            self.banned.add(edge)
            local_bans.append(edge)
        for edge in local_bans:
            self.banned.discard(edge)


def reference_census(
    graph: HeteroGraph, root: int, config: CensusConfig | None = None
) -> Counter:
    """Count rooted subgraphs around ``root`` with the reference enumeration.

    Same contract as ``subgraph_census(graph, root, config)``: the same
    keys, counts, root validation and ``max_subgraphs`` error.
    """
    if config is None:
        config = CensusConfig()
    root = int(root)
    if not 0 <= root < graph.num_nodes:
        raise CensusError(f"root index {root} out of range")
    return _CensusRun(graph, root, config).run()
