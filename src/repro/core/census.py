"""Rooted heterogeneous subgraph census (Section 3.2).

For a root node ``v`` the census counts, for every isomorphism class of
connected subgraphs with at most ``e_max`` edges that contain ``v``, how
often that class occurs around ``v`` (Eq. 3/4).  Classes are identified by
the characteristic-sequence encoding, so the isomorphism test degenerates to
a dictionary lookup.

The enumeration follows the paper's design:

* subgraphs are grown incrementally by adding one edge at a time, starting
  from the root's incident edges (depth-first with backtracking);
* each connected edge set is generated exactly once via the classic
  exclusion discipline — once a candidate edge has been branched on, it is
  banned for all later branches at the same or deeper levels;
* the ``d_max`` hub heuristic stops exploration *beyond* newly discovered
  high-degree nodes while still recording the edge to the hub itself; the
  root is exempt (which is why hubs as start nodes dominate the runtime
  tail, cf. Table 3);
* the heterogeneous grouping heuristic reuses the encoding computed for the
  first new leaf of a given ``(anchor, label)`` group for the whole group;
* the rolling hash of Section 3.2 is available as an alternative keying
  mode (``key="hash"``) and is compared against tuple and string keys by
  the hashing ablation bench.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

from repro.core.encoding import code_to_string
from repro.core.graph import HeteroGraph
from repro.core.hashing import RollingSubgraphHash
from repro.core.labels import LabelSet
from repro.exceptions import CensusError
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import ENGINE_SAMPLED, VALID_ENGINES, resolve_engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.sampled import SampledCensusConfig

Edge = tuple[int, int]
KeyMode = Literal["canonical", "string", "hash"]
EngineMode = Literal["fast", "sampled"]

#: Valid census engine names: ``fast`` (exact) and ``sampled``
#: (approximate with confidence bounds).
ENGINES = VALID_ENGINES

#: State keys an extension-key table holds before it is cleared (its keys
#: are functions of codes, so clearing only costs rebuilds).
EXTENSION_KEYS_CAP = 1 << 14


@dataclass(frozen=True)
class CensusConfig:
    """Configuration of a rooted subgraph census.

    Attributes
    ----------
    max_edges:
        ``e_max`` of the paper — the largest subgraph edge count.  The paper
        uses 6 for rank prediction and 5 for label prediction.
    max_degree:
        ``d_max`` of the paper, or ``None`` to disable the hub heuristic.
        Nodes discovered with a degree strictly above this value are added
        to subgraphs but never expanded.
    mask_start_label:
        Replace the root's label with the artificial mask label in every
        encoding (Section 4.3.2) so rooted counts cannot leak the root's
        own label into a label-prediction feature.
    key:
        Dictionary key mode: ``"canonical"`` (exact tuple, default),
        ``"string"`` (rendered code string), or ``"hash"`` (rolling hash —
        fastest, but different classes may collide into one bucket).
    group_by_label:
        Enable the heterogeneous grouping heuristic (reuse the encoding
        computed for the first same-label leaf of each group).
    include_trivial:
        Also count the single-node subgraph consisting of only the root.
    max_subgraphs:
        Optional safety cap; the census raises :class:`CensusError` when a
        single root exceeds it (mirrors the paper's observation that the
        full extraction "did not finish" on hubs without ``d_max``).
    """

    max_edges: int = 5
    max_degree: int | None = None
    mask_start_label: bool = False
    key: KeyMode = "canonical"
    group_by_label: bool = True
    include_trivial: bool = False
    max_subgraphs: int | None = None

    def __post_init__(self) -> None:
        if self.max_edges < 1:
            raise CensusError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.max_degree is not None and self.max_degree < 0:
            raise CensusError(f"max_degree must be >= 0, got {self.max_degree}")
        if self.key not in ("canonical", "string", "hash"):
            raise CensusError(f"unknown key mode {self.key!r}")
        if self.max_subgraphs is not None and self.max_subgraphs < 1:
            raise CensusError("max_subgraphs must be positive")


def effective_labelset(graph: HeteroGraph, config: CensusConfig) -> LabelSet:
    """The alphabet census keys are expressed in (mask-extended if needed)."""
    if config.mask_start_label:
        return graph.labelset.with_mask()
    return graph.labelset


def _cap_exceeded(root: int, cap) -> CensusError:
    """The shared ``max_subgraphs`` overflow error, naming the offending root.

    The exact engine and the parity oracle (``tests/oracles/census.py``)
    raise through here so the wording (and the root id the user needs in
    order to set a ``d_max``) can never drift apart.
    """
    return CensusError(
        f"census for root {root} exceeded max_subgraphs={cap}; "
        "set a d_max or raise the cap"
    )


class _CensusRunState:
    """Per-root state shared by the exact and the sampled census runs.

    The flat snapshot's arrays, the effective root label (the mask label
    when masking), one subgraph flag and one ban flag per edge id, the
    rolling-hash delta table and the ``d_max``-capped candidate filter.
    Both engines walk the same DFS tree of the exclusion discipline over
    this state; they differ only in how they walk it.
    """

    __slots__ = (
        "config",
        "root",
        "flat",
        "labelset",
        "num_labels",
        "labels",
        "root_label",
        "degrees",
        "indptr",
        "neighbors",
        "edge_ids",
        "edge_u",
        "edge_v",
        "dmax",
        "in_sub",
        "banned",
        "use_hash",
        "hash_mod",
        "hash_deltas",
    )

    def __init__(self, graph: HeteroGraph, root: int, config: CensusConfig) -> None:
        flat = self.flat = graph.flat()
        self.config = config
        self.root = root
        labelset = effective_labelset(graph, config)
        self.labelset = labelset
        num_labels = len(labelset)
        self.num_labels = num_labels
        self.labels = flat.labels
        self.root_label = (
            labelset.mask_index if config.mask_start_label else flat.labels[root]
        )
        self.degrees = flat.degrees
        self.indptr = flat.indptr
        self.neighbors = flat.neighbors
        self.edge_ids = flat.edge_ids
        self.edge_u = flat.edge_u
        self.edge_v = flat.edge_v
        self.dmax = config.max_degree
        num_edges = len(flat.edge_u)
        self.in_sub = bytearray(num_edges)
        self.banned = bytearray(num_edges)
        self.use_hash = config.key == "hash"
        if self.use_hash:
            hasher = RollingSubgraphHash(num_labels)
            self.hash_mod = hasher.modulus
            # Flat (label_u * k + label_v) -> per-edge hash delta table,
            # replacing two method calls per edge with one list index.
            self.hash_deltas = [
                hasher.edge_delta(lu, lv)
                for lu in range(num_labels)
                for lv in range(num_labels)
            ]
        else:
            self.hash_mod = 0
            self.hash_deltas = []

    def _expansion(self, node: int) -> list[int]:
        """Candidate edge ids exposed by ``node``, unless it is a capped hub."""
        dmax = self.dmax
        if dmax is not None and node != self.root and self.degrees[node] > dmax:
            return []
        lo = self.indptr[node]
        hi = self.indptr[node + 1]
        in_sub = self.in_sub
        banned = self.banned
        return [
            eid
            for eid in self.edge_ids[lo:hi]
            if not in_sub[eid] and not banned[eid]
        ]


class _FastCensusRun(_CensusRunState):
    """Fast census engine: flat snapshot, incremental code, iterative DFS.

    Four changes over the straightforward recursive enumeration (kept as
    the parity oracle in ``tests/oracles/census.py``), none of which alter
    the emitted keys, their counts, or the order in which each key is
    first inserted into the result:

    * **Flat per-run arrays.** The census reads the graph's one snapshot,
      ``graph.flat()``: plain-int CSR adjacency with dense edge ids, so
      the inner loop does list indexing and bytearray flag tests instead
      of numpy scalar extraction, ``(u, v)`` tuple hashing, and
      ``graph.degree()`` calls.
    * **Incremental canonical code.** One cached row tuple per member node
      plus a sorted row container.  An edge add/remove only *marks* its two
      endpoints dirty; the container is repaired for exactly those nodes
      when a key is actually needed.  Combined with the grouping heuristic
      (which reuses keys outright) most emissions never materialise a code,
      and no emission re-sorts more than the touched rows.  The per-node
      state is one list ``[label, t_0, ..., t_k]`` so a row tuple is a
      single C-level ``tuple()`` call.
    * **Explicit-stack DFS.** The recursive ``_grow`` becomes a frame stack,
      removing Python call overhead per branch and the recursion limit.
    * **Counted last edge slot.** A state one edge short of ``e_max`` is
      not a DFS level: nothing descends from it, so its one-edge
      extensions are counted in place by :meth:`_count_last_slot` instead
      of being applied and undone one by one.
    """

    __slots__ = (
        "counts",
        "members",
        "row_of",
        "rows",
        "dirty",
        "strings",
        "leaf_keys",
        "leaf_rows",
        "extension_keys",
        "codes_built",
        "frames",
    )

    def __init__(
        self, graph: HeteroGraph, root: int, config: CensusConfig, extension_keys=None
    ) -> None:
        super().__init__(graph, root, config)
        num_labels = self.num_labels
        self.counts: Counter = Counter()
        # Per-member state: [effective label, t_0, ..., t_k] — the row
        # tuple of Eq. 1/2 is exactly tuple(list).
        self.members: dict[int, list[int]] = {
            root: [self.root_label] + [0] * num_labels
        }
        row = (self.root_label, *([0] * num_labels))
        self.row_of: dict[int, tuple] = {root: row}
        self.rows: list[tuple] = [row]
        self.dirty: set[int] = set()
        # Per-run memo tables: rendered strings by canonical code (the
        # paper's "conversion to strings can be costly" — render each class
        # once); last-slot cells by the state's key, each (the shared
        # table's entry for the state, {(anchor row, leaf label) or (row,
        # row) for a chord: [key, deferred count]}); single-edge leaf rows
        # by (leaf, anchor) label pair (shared row objects also keep
        # pickled censuses small).  The extension keys are functions of
        # codes alone, so one table per (key mode, alphabet) is shared by
        # the roots of an extractor.
        self.strings: dict = {}
        self.leaf_keys: dict = {}
        self.leaf_rows: dict[int, tuple] = {}
        tables = {} if extension_keys is None else extension_keys
        self.extension_keys = tables.setdefault((config.key, self.labelset), {})
        self.codes_built = 0
        self.frames = 0

    # -- key materialisation -----------------------------------------------
    def _flush_rows(self) -> list[tuple]:
        """Repair the sorted row container for the dirty nodes only."""
        rows = self.rows
        row_of = self.row_of
        members = self.members
        for node in self.dirty:
            row = tuple(members[node])
            old = row_of.get(node)
            if old is not None:
                if old == row:
                    continue
                del rows[bisect_left(rows, old)]
            insort(rows, row)
            row_of[node] = row
        self.dirty.clear()
        return rows

    def _key(self, old: tuple = (), new: tuple = ()):
        """Materialise the key of the current code with rows ``old`` swapped
        for rows ``new`` (the only place a canonical code is built)."""
        rows = self._flush_rows() if self.dirty else self.rows
        if old:
            rows = rows.copy()
            for row in old:
                del rows[bisect_left(rows, row)]
            for row in new:
                insort(rows, row)
        code = tuple(rows[::-1])
        if self.config.key != "string":
            return code
        rendered = self.strings.get(code)
        if rendered is None:
            rendered = self.strings[code] = code_to_string(code, self.labelset)
        return rendered

    # -- the last edge slot -------------------------------------------------
    def _count_last_slot(
        self, remaining: list, new_node: int, joined: int, state_key, current_hash
    ) -> tuple[int, int]:
        """Count every one-edge extension of a state one edge short of e_max.

        The extensions are the state's candidates: ``remaining`` (the
        parent's unexplored candidates) followed by the edges ``new_node``
        (the node the state's last edge added, joined through member
        ``joined``; ``-1`` for none) exposes.  Each one either hangs a new
        leaf off an anchor member or closes a chord between two members.
        A leaf's key is a pure function of (state key, anchor row, leaf
        label), so runs of same-anchor, same-label leaves are counted as
        one group and every group's key is memoised per run.  A new node
        with no chord back into the state exposes exactly its other edges
        (any of its edges that is banned or already listed leads to a
        member), all leaves: one group per neighbour label, sized from its
        label degrees without walking them.  With a chord they are walked.

        Groups are counted in candidate order, so each key is first
        inserted exactly where the edge-by-edge walk inserted it.  Only a
        cell's first group touches the Counter; later ones add to the cell,
        folded in at the end of the run, sparing two code hashes per group.
        A cell's key comes from the extractor's shared table when another
        root already built it.
        Returns ``(subgraphs counted, keys built)``.
        """
        members = self.members
        labels = self.labels
        tail = ()
        dmax = self.dmax
        if new_node >= 0 and (
            dmax is None or new_node == self.root or self.degrees[new_node] <= dmax
        ):
            row = self.neighbors[self.indptr[new_node]: self.indptr[new_node + 1]]
            for m in members:
                if m != joined and m in row:
                    seen = set(remaining)
                    remaining = remaining + [
                        e for e in self._expansion(new_node) if e not in seen
                    ]
                    break
            else:
                skip = labels[joined] if joined >= 0 else -1
                tail = [
                    (new_node, label, n - (label == skip))
                    for label, n in self.flat.label_degrees_of(new_node)
                    if n - (label == skip)
                ]
        # [anchor, leaf label, count] per leaf run; (a, -1 - b, 1) per chord.
        edge_u = self.edge_u
        edge_v = self.edge_v
        groups: list = []
        last = None
        for eid in remaining:
            a = edge_u[eid]
            b = edge_v[eid]
            if a not in members:
                a, b = b, a
            elif b in members:
                groups.append((a, -1 - b, 1))
                last = None
                continue
            label = labels[b]
            if last is not None and last[1] == label and last[0] == a:
                last[2] += 1
            else:
                last = [a, label, 1]
                groups.append(last)
        groups.extend(tail)

        counts = self.counts
        total = 0
        if self.use_hash:
            deltas = self.hash_deltas
            num_labels = self.num_labels
            mod = self.hash_mod
            for a, other, n in groups:
                other = members[-1 - other][0] if other < 0 else other
                counts[
                    (current_hash + deltas[members[a][0] * num_labels + other]) % mod
                ] += n
                total += n
            return total, len(groups)
        memo = self.leaf_keys.get(state_key)
        if memo is None:
            shared = self.extension_keys
            if len(shared) >= EXTENSION_KEYS_CAP and state_key not in shared:
                shared.clear()
            memo = self.leaf_keys[state_key] = (shared.setdefault(state_key, {}), {})
        known, cells = memo
        built = 0
        for a, other, n in groups:
            sub = (
                tuple(members[a]),
                tuple(members[-1 - other]) if other < 0 else other,
            )
            cell = cells.get(sub)
            if cell is None:
                key = known.get(sub)
                if key is None:
                    key = known[sub] = self._extension_key(*sub)
                counts[key] += n
                cells[sub] = [key, 0]
                built += 1
            else:
                cell[1] += n
            total += n
        return total, built

    def _extension_key(self, row: tuple, other):
        """Key after adding one edge at the member with ``row``: to a new leaf
        labelled ``other`` (an int), or a chord to the member with row
        ``other`` (a tuple)."""
        label = row[0]
        if isinstance(other, tuple):
            peer = other[0]
            old = (row, other)
            new = (
                row[: peer + 1] + (row[peer + 1] + 1,) + row[peer + 2:],
                other[: label + 1] + (other[label + 1] + 1,) + other[label + 2:],
            )
        else:
            pair = other * self.num_labels + label
            leaf = self.leaf_rows.get(pair)
            if leaf is None:
                template = [other] + [0] * self.num_labels
                template[label + 1] = 1
                leaf = self.leaf_rows[pair] = tuple(template)
            old = (row,)
            new = (row[: other + 1] + (row[other + 1] + 1,) + row[other + 2:], leaf)
        return self._key(old, new)

    # -- the enumeration ----------------------------------------------------
    def run(self) -> Counter:
        # The DFS body is deliberately one flat loop with every piece of
        # run state held in locals: at ~1e5 edge applications per hub root,
        # attribute lookups and method-call frames are the dominant cost in
        # CPython, so edge add/remove are inlined rather than factored out.
        config = self.config
        counts = self.counts
        cap = config.max_subgraphs
        max_edges = config.max_edges
        grouping = config.group_by_label
        hashing = self.use_hash
        num_labels = self.num_labels
        labels = self.labels
        root = self.root
        root_label = self.root_label
        zeros = [0] * num_labels
        members = self.members
        row_of = self.row_of
        rows = self.rows
        dirty = self.dirty
        dirty_add = dirty.add
        banned = self.banned
        in_sub = self.in_sub
        edge_u = self.edge_u
        edge_v = self.edge_v
        hash_deltas = self.hash_deltas
        hash_mod = self.hash_mod
        make_key = self._key
        count_last_slot = self._count_last_slot
        current_hash = 0
        num_in_sub = 0
        emitted = built = 0

        if config.include_trivial:
            counts[0 if hashing else make_key()] += 1
            emitted = built = 1
        stack = []
        if max_edges == 1:
            # The root alone is already the last slot: its own edges are
            # the extensions, with the root as the state's "new" node.
            extra, fresh = count_last_slot([], root, -1, None, 0)
            emitted += extra
            built += fresh
        else:
            root_candidates = self._expansion(root)
            # Frame layout: [candidates, next index, local bans, group
            # anchor, batch key, batch count, pending edge id (-1 = none),
            # pending new node].  "Batch" is the Counter-update batch:
            # consecutive emissions of one reused key are counted locally
            # and flushed to the Counter in one update (hashing a canonical
            # tuple key is not free, and grouped runs reuse the same key
            # many times).
            if root_candidates:
                stack.append([root_candidates, 0, [], None, None, 0, -1, -1])
        frames = len(stack)
        if cap is not None and emitted > cap:
            raise _cap_exceeded(root, cap)
        while stack:
            frame = stack[-1]
            pending = frame[6]
            if pending >= 0:
                # A child branch just finished: backtrack its edge and ban
                # it for the remaining siblings (exclusion discipline).
                a = edge_u[pending]
                b = edge_v[pending]
                counts_a = members[a]
                counts_b = members[b]
                counts_a[counts_b[0] + 1] -= 1
                counts_b[counts_a[0] + 1] -= 1
                in_sub[pending] = 0
                num_in_sub -= 1
                new_node = frame[7]
                if hashing:
                    current_hash = (
                        current_hash
                        - hash_deltas[counts_a[0] * num_labels + counts_b[0]]
                    ) % hash_mod
                else:
                    dirty_add(a)
                    dirty_add(b)
                    if new_node >= 0:
                        old = row_of.pop(new_node, None)
                        if old is not None:
                            del rows[bisect_left(rows, old)]
                        dirty.discard(new_node)
                if new_node >= 0:
                    del members[new_node]
                banned[pending] = 1
                frame[2].append(pending)
                frame[6] = -1
            candidates = frame[0]
            i = frame[1]
            n = len(candidates)
            batch_key = frame[4]
            batch_count = frame[5]
            pushed = False
            while i < n:
                eid = candidates[i]
                i += 1
                if banned[eid] or in_sub[eid]:
                    continue
                a = edge_u[eid]
                b = edge_v[eid]

                # ---- apply edge (inline _add_edge) ----
                new_node = -1
                counts_a = members.get(a)
                if counts_a is None:
                    counts_a = members[a] = [
                        root_label if a == root else labels[a]
                    ] + zeros
                    new_node = a
                counts_b = members.get(b)
                if counts_b is None:
                    counts_b = members[b] = [
                        root_label if b == root else labels[b]
                    ] + zeros
                    new_node = b
                counts_a[counts_b[0] + 1] += 1
                counts_b[counts_a[0] + 1] += 1
                in_sub[eid] = 1
                num_in_sub += 1
                if hashing:
                    current_hash = (
                        current_hash
                        + hash_deltas[counts_a[0] * num_labels + counts_b[0]]
                    ) % hash_mod
                else:
                    dirty_add(a)
                    dirty_add(b)

                # ---- emission key (grouping heuristic + batching) ----
                if (
                    grouping
                    and new_node >= 0
                    and batch_count
                    and frame[3] is not None
                    and frame[3][1] == labels[new_node]
                    and frame[3][0] == (a if b == new_node else b)
                ):
                    batch_count += 1
                else:
                    if batch_count:
                        counts[batch_key] += batch_count
                    batch_key = current_hash if hashing else make_key()
                    built += 1
                    batch_count = 1
                    if grouping and new_node >= 0:
                        frame[3] = ((a if b == new_node else b), labels[new_node])
                    else:
                        frame[3] = None
                emitted += 1
                if num_in_sub + 1 == max_edges:
                    extra, fresh = count_last_slot(
                        candidates[i:],
                        new_node,
                        a if b == new_node else b,
                        batch_key,
                        current_hash,
                    )
                    emitted += extra
                    built += fresh
                if cap is not None and emitted > cap:
                    raise _cap_exceeded(root, cap)
                if num_in_sub + 1 < max_edges:
                    exposed = self._expansion(new_node) if new_node >= 0 else ()
                    remaining = candidates[i:]
                    if exposed:
                        remaining_set = set(remaining)
                        child = remaining + [
                            e for e in exposed if e not in remaining_set
                        ]
                    else:
                        child = remaining
                    if child:
                        frame[1] = i
                        frame[4] = batch_key
                        frame[5] = batch_count
                        frame[6] = eid
                        frame[7] = new_node
                        stack.append([child, 0, [], None, None, 0, -1, -1])
                        frames += 1
                        pushed = True
                        break

                # ---- backtrack (inline _remove_edge) ----
                counts_a[counts_b[0] + 1] -= 1
                counts_b[counts_a[0] + 1] -= 1
                in_sub[eid] = 0
                num_in_sub -= 1
                if hashing:
                    current_hash = (
                        current_hash
                        - hash_deltas[counts_a[0] * num_labels + counts_b[0]]
                    ) % hash_mod
                else:
                    dirty_add(a)
                    dirty_add(b)
                    if new_node >= 0:
                        old = row_of.pop(new_node, None)
                        if old is not None:
                            del rows[bisect_left(rows, old)]
                        dirty.discard(new_node)
                if new_node >= 0:
                    del members[new_node]
                banned[eid] = 1
                frame[2].append(eid)
            if pushed:
                continue
            if batch_count:
                counts[batch_key] += batch_count
            for eid in frame[2]:
                banned[eid] = 0
            stack.pop()
        # Fold in the deferred last-slot counts; every such key is already
        # in place, so no key moves.
        for _, cells in self.leaf_keys.values():
            for key, n in cells.values():
                if n:
                    counts[key] += n
        self.codes_built = built
        self.frames = frames
        return counts


def subgraph_census(
    graph: HeteroGraph,
    root: int,
    config: CensusConfig | None = None,
    *,
    engine: EngineMode | None = None,
    sampled: "SampledCensusConfig | None" = None,
    extension_keys: dict | None = None,
) -> Counter:
    """Count rooted heterogeneous subgraphs around one node.

    Parameters
    ----------
    graph:
        The heterogeneous network.
    root:
        Internal node index of the start node.
    config:
        Census parameters; defaults to ``CensusConfig()``.
    engine:
        ``"fast"`` (default) runs the exact incremental flat-adjacency
        enumeration; ``"sampled"`` runs the budgeted probe estimator of
        :mod:`repro.core.sampled` and returns a
        :class:`~repro.core.sampled.SampledCensus` of per-key float
        estimates carrying a confidence report.
    sampled:
        Estimator knobs for ``engine="sampled"`` (budget, seed,
        relative-error target); defaults to ``SampledCensusConfig()``.
        Rejected for the exact engine.
    extension_keys:
        A dict the exact engine shares its extension keys through across
        calls; ``None`` keeps them per call.  Results do not depend on it.

    Returns
    -------
    Counter
        Maps subgraph keys (canonical codes, strings, or hash values,
        depending on ``config.key``) to occurrence counts around ``root``
        (exact ints, or float estimates from the sampled engine).
    """
    if config is None:
        config = CensusConfig()
    root = int(root)
    if not 0 <= root < graph.num_nodes:
        raise CensusError(f"root index {root} out of range")
    engine = resolve_engine(
        "fast" if engine is None else engine,
        ENGINES,
        param="census engine",
        error=CensusError,
    )
    telemetry = get_telemetry()
    if engine == ENGINE_SAMPLED:
        from repro.core.sampled import SampledCensusConfig, run_sampled_census

        if sampled is None:
            sampled = SampledCensusConfig()
        counts = run_sampled_census(graph, root, config, sampled)
        report = counts.report
        telemetry.count("census/sampled_roots")
        telemetry.count("census/sampled_draws", report.draws)
        # The straggler budget: the largest number of draws any single
        # root spent this run (== budget unless early stops fired).
        telemetry.gauge_max("census/sampled_draws_max", report.draws)
        if report.early_stopped:
            telemetry.count("census/sampled_early_stops")
        elif sampled.rel_err is not None:
            # Budget ran dry before the rel_err contract was met — the
            # straggler roots a budget bump would help.
            telemetry.count("census/sampled_budget_exhausted")
        # Achieved CI half widths: one observation per root (its max is
        # the widest interval of the run).
        telemetry.observe("census/sampled_half_width", report.half_width)
    else:
        if sampled is not None:
            raise CensusError(
                "sampled= is only valid with engine='sampled', "
                f"got engine={engine!r}"
            )
        run = _FastCensusRun(graph, root, config, extension_keys)
        counts = run.run()
        # Work counters, accumulated in run locals and recorded once per
        # call: keys the run needed beyond its own reuse (by grouping or
        # its last-slot cells; a shared-table hit still counts) and DFS
        # frames pushed.
        telemetry.count("census/codes_built", run.codes_built)
        telemetry.count("census/frames", run.frames)
    # Coarse per-call accounting only — the enumeration inner loop stays
    # untouched so the engine perf gates keep measuring real work.
    telemetry.count("census/calls")
    telemetry.count("census/subgraphs", sum(counts.values()))
    telemetry.annotate(
        "census/storage", getattr(graph, "storage_kind", "dict")
    )
    return counts


def census_total(counts: Counter) -> int:
    """Total number of rooted subgraphs in a census result."""
    return sum(counts.values())

