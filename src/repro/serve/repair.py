"""Repair scope and census deltas for incremental census maintenance.

When an edge ``(u, v)`` is inserted or deleted, only the rooted censuses
whose enumeration can *reach* the mutation may change
(``docs/serving.md`` carries the long form of these arguments):

* :func:`repair_ball` bounds those roots: the mutation's d_max-pruned
  ball, a BFS of depth ``e_max - 1`` from ``{u, v}`` on the version that
  contains the edge.  A connected subgraph of at most ``e_max`` edges
  holding the root and ``(u, v)``, or a node the root's census expands,
  puts the root within ``e_max - 1`` of an endpoint.  An interior hub
  (degree above d_max) joins the ball, hubs being valid roots, but is not
  expanded, since no census expands it; the endpoints always are.
* :func:`edge_census` computes what changes.  A root's census counts a
  connected edge set once when every edge of it is reached by stepping
  out of the root or out of nodes of degree <= d_max.  A write creates or
  destroys the sets through ``(u, v)``.  If it moves an endpoint x across
  d_max, it also changes, for each root but x, the sets that root counts
  with x expandable but not with x a hub.
"""

from __future__ import annotations

from typing import Container, Mapping

from repro.core.census import CensusConfig
from repro.core.encoding import encode_subgraph
from repro.core.graph import FlatAdjacency, HeteroGraph

#: Set shapes a :class:`CodeTable` memoises before it clears them.
SHAPE_CODES_CAP = 1 << 14


class CodeTable(dict):
    """Census code -> column id, append-only, for one label alphabet; ``codes``
    is its inverse.  ``shapes`` memoises :func:`edge_census`'s encodes: (node
    labels in set order, edge index pairs) -> masked position (-1: none) -> column."""

    def __init__(self) -> None:
        super().__init__()
        self.codes, self.shapes = [], {}

    def __missing__(self, code) -> int:
        self.codes.append(code)
        column = self[code] = len(self.codes) - 1
        return column

    def interned(self, census: Mapping) -> dict:
        """``census`` keyed by column id; its new codes join the table."""
        return dict(zip(map(self.__getitem__, census), census.values()))


def repair_ball(
    graph: HeteroGraph, u: int, v: int, config: CensusConfig
) -> set[int]:
    """Root indices whose census may change when edge ``(u, v)`` flips.

    ``graph`` must be the version containing the edge.  Returns a set of
    internal node indices; every root outside it is provably unaffected
    (its census is bit-identical before and after the mutation).
    """
    dmax = config.max_degree
    affected = {u, v}
    frontier = [u, v]
    for _level in range(config.max_edges - 1):
        next_frontier = []
        for node in frontier:
            if dmax is not None and node not in (u, v) and graph.degree(node) > dmax:
                continue  # an interior hub: a root, but no census expands it
            for neighbor in map(int, graph.neighbors(node)):
                if neighbor not in affected:
                    affected.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return affected


def edge_census(
    flat: FlatAdjacency, width: int, seed: tuple[int, ...],
    configs: Mapping[str, CensusConfig], tracked: Mapping[str, Container[int]],
    deltas: dict[str, dict[int, dict]], table: CodeTable,
    flipped: tuple[int, ...] = (),
) -> int:
    """Add into ``deltas`` what the sets grown out of ``seed`` change in
    the tracked censuses; returns the number of sets credited.

    The configs (keyed by variant, like ``tracked`` and ``deltas``) share
    e_max and d_max; ``width`` is the graph's label count.  Sets grow out
    of the seed by the census's exclusion discipline.  One tree expands
    non-hubs only and credits their members; where a hub joins, a second
    tree also expands it and credits it alone, so no set needing two hubs
    expanded is grown.  Keys are ``table``'s columns of ``encode_subgraph``
    codes, the root masked in a masked config.  The seed is one of:

    * an edge ``(u, v)`` of ``flat``: each set through it adds 1 to each
      root that counts it;
    * a node ``(x,)`` of ``flipped``, of degree d_max in ``flat``: each
      set with two or more edges at x, and at most one at a flipped node
      listed before x (whose own seed takes the rest), subtracts 1 from
      each root that counts it only while the flipped nodes, bar the root
      itself, are not hubs.  That is what making them hubs does.
    """
    indptr, edge_ids, degrees = flat.indptr, flat.edge_ids, flat.degrees
    config = next(iter(configs.values()))
    dmax = config.max_degree
    shapes = table.shapes
    targets = [  # (masked?, tracked roots, deltas) per variant
        (variant_config.mask_start_label, tracked[variant], deltas[variant])
        for variant, variant_config in configs.items()
    ]
    core = seed[0]
    capped = flipped[:flipped.index(core)] if flipped else ()
    # Until a set holds ``least`` edges at the core, only the core's edges,
    # which lead the candidates, may join it.
    least, step = (2, -1) if flipped else (1, 1)
    nodes = list(seed)
    edges, closed = [], set()
    if not flipped:
        u, v = seed
        edges.append((0, 1))
        closed.add(edge_ids[indptr[u] + flat.neighbors[indptr[u]: indptr[u + 1]].index(v)])
    sets = 0

    def hub(w: int) -> bool:
        return dmax is not None and degrees[w] > dmax

    def grown(rest: list, *sources: int) -> list:
        seen = set(rest)
        return rest + [
            e for w in sources for e in edge_ids[indptr[w]: indptr[w + 1]]
            if e not in closed and e not in seen
        ]

    def kept(root: int) -> bool:
        """Whether ``root`` counts the set with the flipped nodes but
        itself as hubs: every edge is reached out of an expandable node."""
        start = nodes.index(root)
        steps = [i == start or not (hub(w) or w in flipped) for i, w in enumerate(nodes)]
        left, frontier = edges, [start]
        while frontier and left:
            i = frontier.pop()
            frontier += [a + b - i for a, b in left if i in (a, b) and steps[a + b - i]]
            left = [edge for edge in left if i not in edge]
        return not left

    def credit(counting: list) -> None:
        nonlocal sets
        if len(edges) < least:
            return
        sets += 1
        if flipped:
            # Keep the roots that lose the set to the flip.  A root is exempt
            # from its own flip; the non-hub, unflipped roots share one answer.
            shared = [r for r in counting if not (hub(r) or r in flipped)]
            counting = [
                r for r in counting
                if r not in shared and flipped != (r,) and not kept(r)
            ]
            if shared and not kept(shared[0]):
                counting += shared
        shape = (tuple([flat.labels[w] for w in nodes]), tuple(edges))
        if len(shapes) >= SHAPE_CODES_CAP and shape not in shapes:
            shapes.clear()
        known = shapes.setdefault(shape, {})
        for masked, tracked_roots, variant_deltas in targets:
            for root in counting:
                if root not in tracked_roots:
                    continue
                at = nodes.index(root) if masked else -1
                column = known.get(at)
                if column is None:
                    labels = [width if i == at else x for i, x in enumerate(shape[0])]
                    column = known[at] = table[encode_subgraph(labels, edges, width + (at >= 0))]
                delta = variant_deltas[root]
                delta[column] = delta.get(column, 0) + step

    def grow(candidates: list, expanded_hub: int) -> None:
        bans = []
        for i, eid in enumerate(candidates):
            if eid in closed:
                continue
            a, b = flat.edge_u[eid], flat.edge_v[eid]
            if len(edges) < least and core != a and core != b:
                break
            closed.add(eid)  # in the set now, banned once its branch ends
            bans.append(eid)
            if capped and (a in capped and a in nodes or b in capped and b in nodes):
                continue  # a second edge at a capped node: banned here
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

    credit(list(seed))
    if config.max_edges > 1:
        for end in [-1] + [w for w in seed if hub(w)]:
            grow(grown([], *[w for w in seed if w == end or not hub(w)]), end)
    return sets
