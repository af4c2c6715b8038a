"""The stateful core of the serving daemon: graph + warm censuses + repair.

:class:`FeatureService` owns one :class:`~repro.core.graph.MutableHeteroGraph`
and an :class:`~repro.runtime.store.ArtifactStore` acting as the warm KV
tier: every census it computes is content-addressed under the graph's
current fingerprint, so reads are dict lookups once a root is warm.

Two census *variants* are maintained side by side:

``plain``
    The unmasked census (``features`` and ``rank`` queries).
``masked``
    ``mask_start_label=True`` (``label`` queries) — predicting a node's
    label from features that encode that very label would be leakage.

The write path (:meth:`FeatureService.apply_mutation`) is the heart of
the incremental story: an edge mutation adds (or subtracts) the subgraphs
through the edge into the live censuses of the roots in its d_max-pruned
ball that count them, plus, when it moves an endpoint across d_max, the
sets whose count that flip changes (:mod:`repro.serve.repair`) — no
census, no store call.  The store holds cold censuses only, each under
the fingerprint it was computed on, which remains a true content address.
The result is bit-identical to a cold full recompute —
``tests/test_serve_incremental.py`` asserts exactly that.

Thread model: read handlers may run concurrently (the daemon holds the
shared side of its reader/writer lock) and synchronise their metadata
updates on one internal lock; :meth:`apply_mutation` requires exclusivity,
which the daemon provides by holding the write side.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.census import CensusConfig, census_total, effective_labelset
from repro.core.encoding import code_to_string
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph, MutableHeteroGraph
from repro.exceptions import GraphError
from repro.net.protocol import NetError, require
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import ENGINE_FAST, RunContext
from repro.runtime.store import ArtifactStore
from repro.serve.repair import edge_census, repair_ball

logger = get_logger(__name__)

#: The two census variants every service maintains.
VARIANTS = ("plain", "masked")


@dataclass(frozen=True)
class ServeConfig:
    """Census and ranking knobs of one serving process.

    ``engine`` must be the exact ``fast`` census: incremental repair
    promises bit-identity with a cold recompute, which a budgeted sampled
    estimate keyed on per-root rng seeds cannot (its per-root seeds are
    fingerprint-independent, but serving estimates would still conflate
    "repaired" with "re-sampled" in client-visible counts).
    """

    emax: int = 4
    dmax: int | None = None
    engine: str = "fast"
    n_jobs: int = 1
    top_k: int = 10

    def __post_init__(self) -> None:
        if self.emax < 1:
            raise ValueError(f"emax must be >= 1, got {self.emax}")
        if self.engine != ENGINE_FAST:
            raise ValueError(
                f"serve engine must be {ENGINE_FAST!r}, got {self.engine!r}"
            )
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


def _cosine(a: Counter, b: Counter, norm_a: float, norm_b: float) -> float:
    if not norm_a or not norm_b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b.get(code, 0) for code, count in a.items())
    return dot / (norm_a * norm_b)


def _norm(census: Counter) -> float:
    return math.sqrt(sum(count * count for count in census.values()))


def _add_delta(counts: Counter, delta: dict, sign: int) -> None:
    """Add ``sign * delta`` into ``counts`` in place; keys that reach 0 go."""
    for code, n in delta.items():
        counts[code] += sign * n
        if not counts[code]:
            del counts[code]


class FeatureService:
    """Feature/rank/label queries plus incremental edge mutations."""

    def __init__(
        self,
        graph: HeteroGraph,
        config: ServeConfig | None = None,
        *,
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.graph = (
            graph
            if isinstance(graph, MutableHeteroGraph)
            else MutableHeteroGraph.from_graph(graph)
        )
        self.store = store if store is not None else ArtifactStore()
        self._census_configs = {
            variant: CensusConfig(
                max_edges=self.config.emax,
                max_degree=self.config.dmax,
                mask_start_label=variant == "masked",
            )
            for variant in VARIANTS
        }
        ctx = RunContext(
            engine=self.config.engine, n_jobs=self.config.n_jobs, store=self.store
        )
        self._extractors = {
            variant: SubgraphFeatureExtractor(census_config, ctx=ctx)
            for variant, census_config in self._census_configs.items()
        }
        self._labelsets = {
            variant: effective_labelset(self.graph, census_config)
            for variant, census_config in self._census_configs.items()
        }
        # Tracked roots per variant: those with a live census.
        self._tracked: dict[str, set[int]] = {v: set() for v in VARIANTS}
        # The live census of every tracked root (the only place reads look
        # for one), its L2 norm, and the rendered features response.  All
        # three are replaced for repaired roots on mutation.
        self._counters: dict[tuple[str, int], Counter] = {}
        self._norms: dict[tuple[str, int], float] = {}
        self._rendered: dict[tuple[str, int], dict] = {}
        # Per-label masked census sums over the tracked roots, patched by
        # writes; None = rebuild lazily on the next label query.
        self._centroids: dict[int, Counter] | None = None
        self._meta_lock = threading.Lock()
        self.mutations = 0
        self.repaired_roots = 0
        self.migrated_roots = 0

    # -- plumbing ---------------------------------------------------------
    def _resolve(self, node_id) -> int:
        try:
            return self.graph.index(node_id)
        except GraphError as exc:
            raise NetError("unknown_node", str(exc)) from None

    def census(self, variant: str, root: int) -> Counter:
        """The (warm) census of one root; computes and tracks on a miss."""
        with self._meta_lock:
            cached = self._counters.get((variant, root))
        return cached if cached is not None else self._track(variant, [root])[0]

    def _track(self, variant: str, roots: list[int]) -> list[Counter]:
        """Cold censuses of ``roots``, tracked from now on as live ones."""
        censuses = self._extractors[variant].census_many(self.graph, roots)
        with self._meta_lock:
            for root, census in zip(roots, censuses):
                self._counters[(variant, root)] = census
                self._tracked[variant].add(root)
            if roots and variant == "masked":
                self._centroids = None  # they sum the tracked roots only
        return censuses

    def _norm_of(self, variant: str, root: int) -> float:
        key = (variant, root)
        with self._meta_lock:
            norm = self._norms.get(key)
        if norm is None:
            norm = _norm(self.census(variant, root))
            with self._meta_lock:
                self._norms[key] = norm
        return norm

    def warm(self, roots=None) -> int:
        """Pre-census ``roots`` (default: every node) for both variants.

        Returns the number of roots warmed.  Batched through the
        extractor, so ``n_jobs > 1`` fans the cold censuses across
        worker processes.  Already tracked roots are skipped: their live
        census is current.
        """
        if roots is None:
            roots = range(self.graph.num_nodes)
        roots = [int(root) for root in roots]
        for variant in VARIANTS:
            tracked = self._tracked[variant]
            self._track(variant, [root for root in roots if root not in tracked])
        get_telemetry().count("serve/warmed_roots", len(roots))
        return len(roots)

    # -- read operations --------------------------------------------------
    def features(self, node_id, masked: bool = False) -> dict:
        """Rendered census of one node: total, class count, per-code counts."""
        root = self._resolve(node_id)
        variant = "masked" if masked else "plain"
        key = (variant, root)
        with self._meta_lock:
            rendered = self._rendered.get(key)
        if rendered is not None:
            return rendered
        census = self.census(variant, root)
        labelset = self._labelsets[variant]
        counts = {
            code_to_string(code, labelset): count
            for code, count in sorted(
                census.items(), key=lambda item: (-item[1], item[0])
            )
        }
        rendered = {
            "node": str(node_id),
            "masked": masked,
            "total": census_total(census),
            "classes": len(census),
            "counts": counts,
        }
        with self._meta_lock:
            self._rendered[key] = rendered
        return rendered

    def rank(self, node_id, k: int | None = None) -> dict:
        """Top-k warm roots by census cosine similarity to ``node_id``."""
        root = self._resolve(node_id)
        k = self.config.top_k if k is None else int(k)
        if k < 1:
            raise NetError("bad_request", f"k must be >= 1, got {k}")
        query = self.census("plain", root)
        query_norm = self._norm_of("plain", root)
        with self._meta_lock:
            candidates = sorted(self._tracked["plain"] - {root})
        scored = [
            (
                _cosine(
                    query,
                    self.census("plain", candidate),
                    query_norm,
                    self._norm_of("plain", candidate),
                ),
                candidate,
            )
            for candidate in candidates
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return {
            "node": str(node_id),
            "candidates": len(candidates),
            "top": [
                {"node": str(self.graph.node_id(candidate)), "score": score}
                for score, candidate in scored[:k]
            ],
        }

    def _build_centroids(self) -> dict[int, Counter]:
        """Per-label masked census sums over the warm roots (lazy).

        Cosine scoring is scale-invariant, so the un-normalised sum *is*
        the centroid; a query root tracked under its own label is
        excluded at scoring time by subtracting its counter.
        """
        with self._meta_lock:
            centroids = self._centroids
            tracked = sorted(self._tracked["masked"])
        if centroids is not None:
            return centroids
        get_telemetry().count("serve/centroid_builds")
        centroids = {}
        for candidate in tracked:
            label = self.graph.label_of(candidate)
            into = centroids.get(label)
            if into is None:
                into = centroids[label] = Counter()
            into.update(self.census("masked", candidate))
        with self._meta_lock:
            if len(self._tracked["masked"]) == len(tracked):  # none tracked since
                self._centroids = centroids
        return centroids

    def label(self, node_id) -> dict:
        """Nearest-centroid label prediction from the masked census."""
        root = self._resolve(node_id)
        query = self.census("masked", root)
        query_norm = _norm(query)
        centroids = self._build_centroids()
        with self._meta_lock:
            tracked = root in self._tracked["masked"]
        actual = self.graph.label_of(root)
        scores = {}
        for label, centroid in centroids.items():
            if tracked and label == actual:
                centroid = centroid - query  # leave-one-out
            scores[self.graph.labelset.name(label)] = _cosine(
                query, centroid, query_norm, _norm(centroid)
            )
        predicted = max(scores, key=scores.get) if scores else None
        return {
            "node": str(node_id),
            "predicted": predicted,
            "actual": self.graph.labelset.name(actual),
            "scores": scores,
        }

    def stats(self) -> dict:
        """Service-level snapshot: graph, warm sets, store, repair tallies."""
        with self._meta_lock:
            tracked = {variant: len(self._tracked[variant]) for variant in VARIANTS}
        # Plain tallies only: store.stats() pickles every entry to size it.
        store = self.store
        store_stats = {
            "entries": len(store),
            "hits": store.hits,
            "misses": store.misses,
            "evictions": store.evictions,
        }
        return {
            "graph": {
                "nodes": self.graph.num_nodes,
                "edges": self.graph.num_edges,
                "labels": list(self.graph.labelset.names),
                "fingerprint": self.graph.fingerprint(),
            },
            "config": {
                "emax": self.config.emax,
                "dmax": self.config.dmax,
                "engine": self.config.engine,
                "n_jobs": self.config.n_jobs,
            },
            "tracked": tracked,
            "store": store_stats,
            "mutations": self.mutations,
            "repaired_roots": self.repaired_roots,
            "migrated_roots": self.migrated_roots,
        }

    # -- write path -------------------------------------------------------
    def apply_mutation(self, op: str, u_id, v_id) -> dict:
        """Apply one edge mutation and repair the affected censuses.

        MUST run exclusively (the daemon holds the write lock): the graph
        fingerprint changes mid-flight and concurrent reads could see a
        half-repaired ball.

        Steps: mutate the graph; enumerate the subgraphs through the edge
        on the version containing it, and those whose count a hub flip of
        an endpoint changes on the version without it; add (or subtract)
        them into a copy of each counting root's live census and of its
        label centroid.  The receipt counts the repair ball's tracked
        roots as ``repaired_roots`` and the rest, untouched, as
        ``migrated_roots``.
        Raises :class:`~repro.exceptions.GraphError` on invalid mutations
        and :class:`NetError` (``unknown_node``) on unresolvable ids.
        """
        graph = self.graph
        u, v = self._resolve(u_id), self._resolve(v_id)
        before = graph.flat()  # snapshots are never edited: it stays valid
        if op == "add_edge":
            graph.add_edge(u_id, v_id)
        elif op != "remove_edge":  # pragma: no cover - guarded by the protocol
            raise NetError("unknown_op", f"unknown mutation op {op!r}")
        elif u == v or not graph.has_edge(u, v):
            raise GraphError(f"no such edge ({u_id!r}, {v_id!r})")
        ball = repair_ball(graph, u, v, self._census_configs["plain"])
        if op == "remove_edge":
            graph.remove_edge(u_id, v_id)
            with_edge, without = before, graph.flat()
        else:
            with_edge, without = graph.flat(), before
        # The deltas of adding the edge; a remove subtracts them.
        width, configs = len(graph.labelset), self._census_configs
        deltas = {variant: defaultdict(Counter) for variant in VARIANTS}
        sets = edge_census(with_edge, width, (u, v), configs, self._tracked, deltas)
        flipped = tuple(w for w in (u, v) if without.degrees[w] == self.config.dmax)
        for x in flipped:
            sets += edge_census(without, width, (x,), configs, self._tracked, deltas, flipped)
        new_fp = graph.fingerprint()
        telemetry = get_telemetry()
        telemetry.count("serve/hub_flips", int(bool(flipped)))
        telemetry.count("serve/repair_subgraphs", sets)
        sign = 1 if op == "add_edge" else -1
        repaired = migrated = 0
        for variant in VARIANTS:
            tracked = self._tracked[variant]
            affected = len(tracked & ball)
            migrated += len(tracked) - affected
            repaired += affected
            for root, delta in deltas[variant].items():
                live = self._counters[(variant, root)].copy()
                _add_delta(live, delta, sign)
                self._drop_root_caches(variant, root)
                self._counters[(variant, root)] = live
            if variant == "masked" and self._centroids is not None:
                self._patch_centroids(deltas[variant], sign)
        self.mutations += 1
        self.repaired_roots += repaired
        self.migrated_roots += migrated
        telemetry.count("serve/mutations")
        telemetry.count("serve/repaired_roots", repaired)
        telemetry.count("serve/migrated_roots", migrated)
        telemetry.count("serve/ball_nodes", len(ball))
        logger.debug(
            "%s (%r, %r): ball=%d repaired=%d migrated=%d",
            op, u_id, v_id, len(ball), repaired, migrated,
        )
        return {
            "op": op,
            "u": str(u_id),
            "v": str(v_id),
            "num_edges": graph.num_edges,
            "ball_size": len(ball),
            "repaired_roots": repaired,
            "migrated_roots": migrated,
            "fingerprint": new_fp,
        }

    def _patch_centroids(self, deltas: dict[int, dict], sign: int) -> None:
        """Add masked deltas into copies of their roots' label centroids,
        published in one assignment (integer counts: bit-equal scores)."""
        centroids = self._centroids
        patched = dict(centroids)
        for root, delta in deltas.items():
            label = self.graph.label_of(root)
            if patched[label] is centroids[label]:
                patched[label] = centroids[label].copy()
            _add_delta(patched[label], delta, sign)
        self._centroids = patched

    def _drop_root_caches(self, variant: str, root: int) -> None:
        key = (variant, root)
        self._counters.pop(key, None)
        self._norms.pop(key, None)
        self._rendered.pop(key, None)

    # -- dispatch ---------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Execute one decoded request; returns the result payload.

        Raises :class:`NetError` for protocol-level failures; the
        daemon maps :class:`GraphError` to the ``graph_error`` code.
        """
        op = request["op"]
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self.stats()
        node_kinds = (str, int)  # external ids are strings or ints
        if op == "features":
            masked = request.get("masked", False)
            if not isinstance(masked, bool):
                raise NetError("bad_request", "'masked' must be a boolean")
            return self.features(require(request, "node", node_kinds), masked=masked)
        if op == "rank":
            k = request.get("k")
            if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
                raise NetError("bad_request", "'k' must be an integer")
            return self.rank(require(request, "node", node_kinds), k=k)
        if op == "label":
            return self.label(require(request, "node", node_kinds))
        if op in ("add_edge", "remove_edge"):
            return self.apply_mutation(
                op, require(request, "u", node_kinds), require(request, "v", node_kinds)
            )
        raise NetError("unknown_op", f"unknown op {op!r}")
