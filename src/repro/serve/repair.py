"""Repair scope and census deltas for incremental census maintenance.

When an edge ``(u, v)`` is inserted or deleted, only the rooted censuses
whose enumeration can *reach* the mutation may change
(``docs/serving.md`` carries the long form of both arguments):

* :func:`repair_ball` bounds those roots: the mutation's d_max-pruned
  ball, a BFS of depth ``e_max - 1`` from ``{u, v}``.  A connected
  subgraph of at most ``e_max`` edges holding the root and ``(u, v)``
  puts the root within ``e_max - 1`` of an endpoint, and so does any node
  a census expands, which covers a flip of u's or v's hub status.  An
  interior hub (degree above d_max) joins the ball — hubs are valid
  roots — but is not expanded, since no census expands it; the endpoints
  always are.
* :func:`edge_census` computes what changes.  A root's census counts a
  connected edge set once when every edge of it is reached by stepping
  out of the root or out of nodes of degree <= d_max.  Unless the write
  moves ``deg(u)`` or ``deg(v)`` across d_max, that holds alike in both
  graph versions for every set, so a census changes by exactly the sets
  through ``(u, v)`` it counts.

Both run on the graph version that **contains** the edge — after an
insertion, before a deletion — since that is the version in which
censuses can traverse it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Container, Mapping

from repro.core.census import CensusConfig
from repro.core.encoding import encode_subgraph
from repro.core.graph import HeteroGraph


def repair_ball(
    graph: HeteroGraph, u: int, v: int, config: CensusConfig
) -> set[int]:
    """Root indices whose census may change when edge ``(u, v)`` flips.

    ``graph`` must be the version containing the edge.  Returns a set of
    internal node indices; every root outside it is provably unaffected
    (its census is bit-identical before and after the mutation).
    """
    depth = max(int(config.max_edges) - 1, 0)
    dmax = config.max_degree
    affected = {u, v}
    frontier = [u, v]
    for _level in range(depth):
        next_frontier: list[int] = []
        for node in frontier:
            if (
                dmax is not None
                and node != u
                and node != v
                and graph.degree(node) > dmax
            ):
                # Hub interior node: affected as a root (already in the
                # set) but never expanded by any census — stop here.
                continue
            for neighbor in graph.neighbors(node):
                neighbor = int(neighbor)
                if neighbor not in affected:
                    affected.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return affected


def edge_census(
    graph: HeteroGraph, u: int, v: int, configs: Mapping[str, CensusConfig],
    tracked: Mapping[str, Container[int]],
) -> tuple[dict[str, dict[int, Counter]], int]:
    """Census deltas of the tracked roots: the edge sets through ``(u, v)``.

    ``graph`` holds the edge, no endpoint crosses d_max, and the configs
    (keyed by variant, like ``tracked``) share e_max and d_max.  Sets grow
    out of ``(u, v)`` by the census's exclusion discipline.  One tree
    expands non-hubs only and credits their members; where a hub joins,
    a second tree also expands it and credits it alone, so no set needing
    two hubs expanded is grown.  Keys are ``encode_subgraph`` codes, the
    root masked in a masked config.  Returns ``(deltas, sets enumerated)``.
    """
    flat = graph.flat()
    indptr, edge_ids, degrees = flat.indptr, flat.edge_ids, flat.degrees
    config = next(iter(configs.values()))
    dmax = config.max_degree
    width = len(graph.labelset)  # the masked alphabet appends the mask label
    deltas = {variant: defaultdict(Counter) for variant in configs}
    codes: dict = {}  # set shape -> masked position (-1: none) -> code
    nodes, edges = [u, v], [(0, 1)]
    closed = {edge_ids[indptr[u] + flat.neighbors[indptr[u]: indptr[u + 1]].index(v)]}
    sets = 0

    def hub(w: int) -> bool:
        return dmax is not None and degrees[w] > dmax

    def grown(rest: list, *sources: int) -> list:
        seen = set(rest)
        return rest + [
            e for w in sources for e in edge_ids[indptr[w]: indptr[w + 1]]
            if e not in closed and e not in seen
        ]

    def credit(counting: list) -> None:
        nonlocal sets
        sets += 1
        shape = (tuple([flat.labels[w] for w in nodes]), tuple(edges))
        known = codes.setdefault(shape, {})
        for variant, variant_config in configs.items():
            for root in [r for r in counting if r in tracked[variant]]:
                at = nodes.index(root) if variant_config.mask_start_label else -1
                if at not in known:
                    labels = [width if i == at else x for i, x in enumerate(shape[0])]
                    known[at] = encode_subgraph(labels, edges, width + (at >= 0))
                deltas[variant][root][known[at]] += 1

    def grow(candidates: list, expanded_hub: int) -> None:
        bans = []
        for i, eid in enumerate(candidates):
            if eid in closed:
                continue
            closed.add(eid)  # in the set now, banned once its branch ends
            bans.append(eid)
            a, b = flat.edge_u[eid], flat.edge_v[eid]
            new = a if a not in nodes else (b if b not in nodes else -1)
            if new >= 0:
                nodes.append(new)
            edges.append((nodes.index(a), nodes.index(b)))
            credit([expanded_hub] if expanded_hub >= 0
                   else [w for w in nodes if w == new or not hub(w)])
            if len(edges) < config.max_edges:
                rest = candidates[i + 1:]
                grow(rest if new < 0 or hub(new) else grown(rest, new), expanded_hub)
                if expanded_hub < 0 and new >= 0 and hub(new):
                    grow(grown(rest, new), new)
            edges.pop()
            if new >= 0:
                nodes.pop()
        closed.difference_update(bans)

    credit([u, v])
    if config.max_edges > 1:
        for end in [-1] + [w for w in (u, v) if hub(w)]:
            grow(grown([], *[w for w in (u, v) if w == end or not hub(w)]), end)
    return deltas, sets
