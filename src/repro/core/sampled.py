"""Sampled census engine: budgeted DFS-branch probes with error bounds.

Exact rooted censuses blow up combinatorially at ``e_max = 4, 5`` and on
hub roots — exactly the regimes the paper says carry the most signal.
``engine="sampled"`` trades bounded estimation error for order-of-
magnitude speedups: instead of enumerating the DFS tree of the exclusion
discipline (see :mod:`repro.core.census`), it walks a fixed budget of
random root-to-leaf *probes* through that same tree and reweights what
each probe sees.

The estimator is Knuth's classic tree-size sampler with per-key
Horvitz–Thompson weights.  One probe starts at the empty subgraph and
repeatedly picks one of the ``m`` valid branches uniformly at random,
multiplying a running weight by ``m`` at each step; every state the
probe passes through contributes its subgraph key with the current
weight.  A state at depth ``d`` reached through branching factors
``m_1..m_d`` is visited with probability ``1 / (m_1 * ... * m_d)`` and
contributes exactly that product, so averaging the accumulated weights
over the number of draws gives an unbiased estimate of every per-key
count simultaneously (and of the total).

Crucially, the probe replays the *exclusion discipline* of the exact
engines: choosing branch ``j`` of a state bans branches ``0..j-1`` for
the rest of the probe, exactly as the exact DFS bans a candidate edge
once its branch has completed.  Without those bans a deeper state could
re-expose an earlier sibling's edge and the probe would walk a *larger*
tree than the one being counted — a biased estimate.  The ``d_max`` hub
cut-off (root exempt) and start-label masking apply unchanged.

Confidence intervals come from the per-probe totals: the probe totals
are i.i.d. with mean equal to the true total subgraph count, so a
normal-approximation interval ``mean ± z * s / sqrt(n)`` (Welford
variance, ``z`` from the configured confidence level) bounds the total
estimate.  With ``rel_err`` set, sampling stops early once the half
width undercuts ``rel_err * mean`` (after ``min_draws`` draws), which is
what makes easy roots cheap and keeps stragglers bounded by ``budget``.

Determinism contract: the probe RNG is seeded from ``(seed, root)``,
so a fixed :class:`SampledCensusConfig` yields bit-identical estimates
at any ``n_jobs`` and on any remote worker (workers hold the whole
graph, so a root has the same index everywhere).

``max_subgraphs`` is ignored by this engine: the sample budget already
bounds per-root work, which is the very explosion the cap guards
against in the exact engines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import sqrt
from statistics import NormalDist

from repro.core.census import CensusConfig, _CensusRunState
from repro.core.encoding import code_to_string
from repro.core.graph import HeteroGraph
from repro.exceptions import CensusError


@dataclass(frozen=True)
class SampledCensusConfig:
    """Configuration of the sampled census estimator.

    Attributes
    ----------
    budget:
        Maximum number of probes (draws) per root.  This is the main
        accuracy-vs-speed knob; see ``docs/sampled_census.md`` for
        guidance.
    seed:
        Base RNG seed.  The per-root stream is derived from
        ``(seed, root)``, so estimates are bit-identical at any worker
        count.
    rel_err:
        Optional relative-error target for the *total* estimate.  When
        set, sampling stops as soon as the CI half width is at most
        ``rel_err * mean`` (checked after ``min_draws`` draws); when
        the budget runs out first, the root is recorded as a straggler.
        ``None`` always spends the full budget.
    confidence:
        Confidence level of the reported interval (default 0.95).
    min_draws:
        Draws required before the early-stop check may fire (a variance
        estimate from too few probes is noise).
    """

    budget: int = 2000
    seed: int = 0
    rel_err: float | None = None
    confidence: float = 0.95
    min_draws: int = 32

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise CensusError(f"sample budget must be >= 1, got {self.budget}")
        if self.rel_err is not None and self.rel_err <= 0:
            raise CensusError(f"rel_err must be > 0, got {self.rel_err}")
        if not 0.0 < self.confidence < 1.0:
            raise CensusError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_draws < 2:
            raise CensusError(f"min_draws must be >= 2, got {self.min_draws}")


def sampled_config_key(sampled: SampledCensusConfig) -> tuple:
    """Flatten a sampled config to the plain tuple used in cache keys.

    Budget and seed change the returned estimates, so they (and every
    other estimator knob) must be part of the artifact-store key — a
    sampled census must never collide with an exact one, nor with a
    sampled one under a different budget or seed.
    """
    return (
        "sampled",
        sampled.budget,
        sampled.seed,
        sampled.rel_err,
        sampled.confidence,
        sampled.min_draws,
    )


@dataclass(frozen=True)
class SampledCensusReport:
    """Per-root accuracy report of one sampled census.

    Attributes
    ----------
    root:
        The root the estimate is for.
    draws:
        Probes actually spent (``< budget`` when early-stopped).
    budget:
        The configured probe budget.
    total_estimate:
        Estimated total subgraph count around the root (the sampled
        counterpart of :func:`~repro.core.census.census_total`).
    half_width:
        Normal-approximation CI half width for ``total_estimate`` at
        ``confidence``.
    confidence:
        The configured confidence level.
    early_stopped:
        Whether the ``rel_err`` contract was met before the budget ran
        out.
    """

    root: int
    draws: int
    budget: int
    total_estimate: float
    half_width: float
    confidence: float
    early_stopped: bool


def _rebuild_sampled(counts: dict, report) -> "SampledCensus":
    return SampledCensus(counts, report=report)


class SampledCensus(Counter):
    """A census estimate: per-key floats plus a confidence report.

    Drop-in for the exact engines' ``Counter`` everywhere downstream
    (the feature extractor writes values into float matrices unchanged);
    the extra :attr:`report` carries the CI contract.  ``copy()`` and
    pickling preserve the report, so duplicate-root fan-out and process
    pools cannot silently strip it.
    """

    def __init__(self, *args, report: SampledCensusReport | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.report = report

    def copy(self) -> "SampledCensus":
        return SampledCensus(self, report=self.report)

    def __reduce__(self):
        return (_rebuild_sampled, (dict(self), self.report))


def _probe_seed(seed: int, root: int) -> int:
    """Deterministic 64-bit mix of the config seed and the root key."""
    return ((seed * 0x9E3779B97F4A7C15) ^ (root * 0xBF58476D1CE4E5B9)) & (
        (1 << 64) - 1
    )


class _SampledCensusRun(_CensusRunState):
    """One rooted estimation: budgeted probes over the exact engine's
    run state (flat snapshot, edge flags, hash deltas, ``d_max`` filter)."""

    __slots__ = ("sampled", "members")

    def __init__(
        self,
        graph: HeteroGraph,
        root: int,
        config: CensusConfig,
        sampled: SampledCensusConfig,
    ) -> None:
        super().__init__(graph, root, config)
        self.sampled = sampled
        self.members: dict[int, list[int]] = {}

    def run(self) -> SampledCensus:
        import random

        config = self.config
        sampled = self.sampled
        max_edges = config.max_edges
        stringify = config.key == "string"
        hashing = self.use_hash
        labelset = self.labelset
        num_labels = self.num_labels
        labels = self.labels
        root = self.root
        root_label = self.root_label
        zeros = [0] * num_labels
        members = self.members
        banned = self.banned
        in_sub = self.in_sub
        edge_u = self.edge_u
        edge_v = self.edge_v
        hash_deltas = self.hash_deltas
        hash_mod = self.hash_mod

        rng = random.Random(_probe_seed(sampled.seed, self.root))
        randrange = rng.randrange

        root_row = [root_label] + zeros
        # The trivial (root-only) subgraph is deterministic, so it is
        # counted exactly: a constant 1.0 per probe averages to 1.0 and
        # adds zero variance.
        trivial_key = None
        trivial_offset = 0.0
        if config.include_trivial:
            trivial_offset = 1.0
            if hashing:
                trivial_key = 0
            else:
                trivial_key = ((root_label, *zeros),)
                if stringify:
                    trivial_key = code_to_string(trivial_key, labelset)

        # Probe-invariant: the root's expansion never depends on probe
        # state (no bans, no sub edges at probe start).
        root_candidates = self._expansion(root)

        acc: dict = {}
        strings: dict = {}
        # Welford accumulators over per-probe totals.
        n = 0
        mean = 0.0
        m2 = 0.0
        z = NormalDist().inv_cdf(0.5 + sampled.confidence / 2.0)
        rel_err = sampled.rel_err
        min_draws = sampled.min_draws
        budget = sampled.budget
        early_stopped = False
        half_width = 0.0

        while n < budget:
            weight = 1.0
            probe_total = trivial_offset
            members[root] = root_row
            current_hash = 0
            applied: list[int] = []
            probe_bans: list[int] = []
            added_nodes: list[int] = []
            candidates = root_candidates
            depth = 0
            while depth < max_edges:
                valid = [
                    eid
                    for eid in candidates
                    if not banned[eid] and not in_sub[eid]
                ]
                m = len(valid)
                if m == 0:
                    break
                j = randrange(m)
                weight *= m
                # Exclusion discipline: the chosen branch corresponds to
                # the exact DFS state in which branches 0..j-1 completed
                # first — so their edges are banned for the rest of the
                # probe (undone at probe end).
                for eid in valid[:j]:
                    banned[eid] = 1
                probe_bans.extend(valid[:j])
                eid = valid[j]
                a = edge_u[eid]
                b = edge_v[eid]
                new_node = -1
                counts_a = members.get(a)
                if counts_a is None:
                    counts_a = members[a] = [
                        root_label if a == root else labels[a]
                    ] + zeros
                    new_node = a
                    added_nodes.append(a)
                counts_b = members.get(b)
                if counts_b is None:
                    counts_b = members[b] = [
                        root_label if b == root else labels[b]
                    ] + zeros
                    new_node = b
                    added_nodes.append(b)
                counts_a[counts_b[0] + 1] += 1
                counts_b[counts_a[0] + 1] += 1
                in_sub[eid] = 1
                applied.append(eid)
                depth += 1

                if hashing:
                    current_hash = (
                        current_hash
                        + hash_deltas[counts_a[0] * num_labels + counts_b[0]]
                    ) % hash_mod
                    key = current_hash
                else:
                    key = tuple(
                        sorted(
                            (tuple(row) for row in members.values()),
                            reverse=True,
                        )
                    )
                    if stringify:
                        rendered = strings.get(key)
                        if rendered is None:
                            rendered = strings[key] = code_to_string(
                                key, labelset
                            )
                        key = rendered
                acc[key] = acc.get(key, 0.0) + weight
                probe_total += weight

                if depth < max_edges:
                    remaining = valid[j + 1:]
                    exposed = (
                        self._expansion(new_node) if new_node >= 0 else ()
                    )
                    if exposed:
                        remaining_set = set(remaining)
                        candidates = remaining + [
                            e for e in exposed if e not in remaining_set
                        ]
                    else:
                        candidates = remaining
                    if not candidates:
                        break

            # Probe end: undo every mutation (edges, bans, member rows).
            for eid in applied:
                in_sub[eid] = 0
            for eid in probe_bans:
                banned[eid] = 0
            for node in added_nodes:
                del members[node]
            del members[root]
            for idx in range(1, num_labels + 1):
                root_row[idx] = 0

            n += 1
            delta = probe_total - mean
            mean += delta / n
            m2 += delta * (probe_total - mean)
            if rel_err is not None and n >= min_draws:
                half_width = z * sqrt(m2 / (n - 1) / n)
                if half_width <= rel_err * mean:
                    early_stopped = True
                    break

        if n >= 2:
            half_width = z * sqrt(m2 / (n - 1) / n)
        else:
            half_width = 0.0
        report = SampledCensusReport(
            root=self.root,
            draws=n,
            budget=budget,
            total_estimate=mean,
            half_width=half_width,
            confidence=sampled.confidence,
            early_stopped=early_stopped,
        )
        estimates = {key: total / n for key, total in acc.items()}
        if trivial_key is not None:
            estimates[trivial_key] = estimates.get(trivial_key, 0.0) + 1.0
        return SampledCensus(estimates, report=report)


def run_sampled_census(
    graph: HeteroGraph,
    root: int,
    config: CensusConfig,
    sampled: SampledCensusConfig,
) -> SampledCensus:
    """Estimate the rooted census by budgeted DFS-branch sampling."""
    return _SampledCensusRun(graph, root, config, sampled).run()
