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
from dataclasses import dataclass, field
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


class _FastCensusRun:
    """Fast census engine: flat snapshot, incremental code, iterative DFS.

    Three changes over the straightforward recursive enumeration (kept as
    the parity oracle in ``tests/oracles/census.py``), none of which alter
    the emitted keys or counts:

    * **Flat per-run arrays.** The graph is snapshotted once per process
      (``HeteroGraph.flat()``) into plain-int CSR adjacency with dense edge
      ids, so the inner loop does list indexing and bytearray flag tests
      instead of numpy scalar extraction, ``(u, v)`` tuple hashing, and
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
    """

    __slots__ = (
        "config",
        "root",
        "labelset",
        "num_labels",
        "labels",
        "root_label",
        "degrees",
        "indptr",
        "edge_ids",
        "edge_u",
        "edge_v",
        "dmax",
        "in_sub",
        "banned",
        "num_in_sub",
        "counts",
        "members",
        "hash_mod",
        "hash_deltas",
        "use_hash",
        "current_hash",
        "row_of",
        "rows",
        "dirty",
        "emitted",
    )

    def __init__(self, graph: HeteroGraph, root: int, config: CensusConfig) -> None:
        flat = graph.flat()
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
        self.edge_ids = flat.edge_ids
        self.edge_u = flat.edge_u
        self.edge_v = flat.edge_v
        self.dmax = config.max_degree
        num_edges = len(flat.edge_u)
        self.in_sub = bytearray(num_edges)
        self.banned = bytearray(num_edges)
        self.num_in_sub = 0
        self.counts: Counter = Counter()
        # Per-member state: [effective label, t_0, ..., t_k] — the row
        # tuple of Eq. 1/2 is exactly tuple(list).
        self.members: dict[int, list[int]] = {
            root: [self.root_label] + [0] * num_labels
        }
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
        self.current_hash = 0
        row = (self.root_label, *([0] * num_labels))
        self.row_of: dict[int, tuple] = {root: row}
        self.rows: list[tuple] = [row]
        self.dirty: set[int] = set()
        self.emitted = 0

    # -- candidate generation ----------------------------------------------
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

    def _key(self):
        if self.use_hash:
            return self.current_hash
        rows = self._flush_rows() if self.dirty else self.rows
        code = tuple(rows[::-1])
        if self.config.key == "string":
            return code_to_string(code, self.labelset)
        return code

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
        stringify = config.key == "string"
        labelset = self.labelset
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
        current_hash = 0
        num_in_sub = 0
        flush = self._flush_rows
        # Per-run memo tables: single-edge leaf rows by (leaf, anchor)
        # label pair, and rendered strings by canonical code (the paper's
        # "conversion to strings can be costly" — render each class once).
        leaf_rows: dict[int, tuple] = {}
        strings: dict = {}
        emitted = 0

        if config.include_trivial:
            counts[self._key()] += 1
            emitted += 1
            if cap is not None and emitted > cap:
                self.emitted = emitted
                self._raise_cap()

        root_candidates = self._expansion(root)
        # Frame layout: [candidates, next index, local bans, group anchor,
        # batch key, batch count, pending edge id (-1 = none), pending new
        # node].  "Batch" is the Counter-update batch: consecutive
        # emissions of one reused key are counted locally and flushed to
        # the Counter in one update (hashing a canonical tuple key is not
        # free, and grouped runs reuse the same key many times).
        stack = (
            [[root_candidates, 0, [], None, None, 0, -1, -1]]
            if root_candidates
            else []
        )
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

                # ---- mutation-free leaf path ----
                # At the last edge slot no descent can follow, so when the
                # edge attaches a *new* leaf node the subgraph state never
                # needs to change: either the grouping heuristic reuses the
                # previous key outright, or the key is synthesized from the
                # clean parent rows (leaf row from a memo table, anchor row
                # bumped by one count) — no add/remove churn either way.
                # (Every candidate has >= 1 endpoint in the subgraph, so
                # the new node — if any — is the endpoint that is not.)
                if num_in_sub + 1 == max_edges:
                    if a in members:
                        leaf = -1 if b in members else b
                    else:
                        leaf = a
                    if leaf >= 0:
                        anchor = a if leaf == b else b
                        leaf_label = labels[leaf]
                        anchor_state = frame[3]
                        if (
                            grouping
                            and batch_count
                            and anchor_state is not None
                            and anchor_state[1] == leaf_label
                            and anchor_state[0] == anchor
                        ):
                            batch_count += 1
                        else:
                            if batch_count:
                                counts[batch_key] += batch_count
                            anchor_label = members[anchor][0]
                            if hashing:
                                batch_key = (
                                    current_hash
                                    + hash_deltas[
                                        anchor_label * num_labels + leaf_label
                                    ]
                                ) % hash_mod
                            else:
                                if dirty:
                                    flush()
                                old_row = row_of[anchor]
                                idx = leaf_label + 1
                                new_row = (
                                    old_row[:idx]
                                    + (old_row[idx] + 1,)
                                    + old_row[idx + 1:]
                                )
                                pair = leaf_label * num_labels + anchor_label
                                leaf_row = leaf_rows.get(pair)
                                if leaf_row is None:
                                    template = [leaf_label] + zeros
                                    template[anchor_label + 1] = 1
                                    leaf_row = leaf_rows[pair] = tuple(template)
                                work = rows.copy()
                                del work[bisect_left(work, old_row)]
                                insort(work, new_row)
                                insort(work, leaf_row)
                                batch_key = tuple(work[::-1])
                                if stringify:
                                    rendered = strings.get(batch_key)
                                    if rendered is None:
                                        rendered = strings[batch_key] = (
                                            code_to_string(batch_key, labelset)
                                        )
                                    batch_key = rendered
                            batch_count = 1
                            frame[3] = (anchor, leaf_label) if grouping else None
                        emitted += 1
                        if cap is not None and emitted > cap:
                            counts[batch_key] += batch_count
                            self.emitted = emitted
                            self._raise_cap()
                        banned[eid] = 1
                        frame[2].append(eid)
                        continue

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
                    if hashing:
                        batch_key = current_hash
                    else:
                        if dirty:
                            flush()
                        batch_key = tuple(rows[::-1])
                        if stringify:
                            rendered = strings.get(batch_key)
                            if rendered is None:
                                rendered = strings[batch_key] = code_to_string(
                                    batch_key, labelset
                                )
                            batch_key = rendered
                    batch_count = 1
                    if grouping and new_node >= 0:
                        frame[3] = ((a if b == new_node else b), labels[new_node])
                    else:
                        frame[3] = None
                emitted += 1
                if cap is not None and emitted > cap:
                    counts[batch_key] += batch_count
                    self.emitted = emitted
                    self._raise_cap()

                if num_in_sub < max_edges:
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
        self.emitted = emitted
        return counts

    def _raise_cap(self) -> None:
        raise _cap_exceeded(self.root, self.config.max_subgraphs)


def subgraph_census(
    graph: HeteroGraph,
    root: int,
    config: CensusConfig | None = None,
    *,
    engine: EngineMode | None = None,
    sampled: "SampledCensusConfig | None" = None,
    sample_root_key: int | None = None,
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
    sample_root_key:
        Seed key for the per-root probe RNG (defaults to ``root``).  The
        sharded driver passes the *global* node id here so estimates are
        bit-identical at any partition count.

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
        counts = run_sampled_census(
            graph, root, config, sampled, root_key=sample_root_key
        )
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
        # ``timer`` doubles as a count/total/max stat aggregator here:
        # the "seconds" are achieved CI half widths, not wall clock.
        telemetry.timer("census/sampled_half_width", report.half_width)
        telemetry.gauge_max(
            "census/sampled_half_width_max", report.half_width
        )
    else:
        if sampled is not None:
            raise CensusError(
                "sampled= is only valid with engine='sampled', "
                f"got engine={engine!r}"
            )
        counts = _FastCensusRun(graph, root, config).run()
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


@dataclass
class CensusStats:
    """Aggregate statistics over per-root censuses (used by Table 3)."""

    roots: int = 0
    total_subgraphs: int = 0
    distinct_codes: set = field(default_factory=set)

    def update(self, counts: Counter) -> None:
        self.roots += 1
        self.total_subgraphs += census_total(counts)
        self.distinct_codes.update(counts)

    @property
    def vocabulary_size(self) -> int:
        return len(self.distinct_codes)
