"""The stateful core of the serving daemon: graph + warm censuses + repair.

:class:`FeatureService` owns one :class:`~repro.core.graph.MutableHeteroGraph`
and an :class:`~repro.runtime.store.ArtifactStore` holding the cold
censuses, content-addressed under the fingerprint they were computed on.

Two census *variants* are maintained side by side:

``plain``
    The unmasked census (``features`` and ``rank`` queries).
``masked``
    ``mask_start_label=True`` (``label`` queries) — predicting a node's
    label from features that encode that very label would be leakage.

The write path (:meth:`FeatureService.apply_mutation`) adds (or
subtracts) the subgraphs through the edge into the live censuses of the
roots in its d_max-pruned ball that count them, plus, when it moves an
endpoint across d_max, the sets whose count that flip changes
(:mod:`repro.serve.repair`) — no census, no store call.  The result is
bit-identical to a cold full recompute (``tests/test_serve_incremental.py``).

Live censuses, write deltas, label centroids and rank rows are keyed by
column id in one append-only :class:`~repro.serve.repair.CodeTable`, which
also memoises set-shape encodes across writes; codes come back only at the
API edge (``features``, :meth:`FeatureService.census`).

Thread model: a state change (a write, tracking a root, building the label
centroids) builds the next immutable :class:`_Version` beside the current
one and publishes it in one assignment; state changes run one at a time
(on the daemon's writer thread).  A read of a tracked root answers from the
version it reads at its start, on any thread, with no lock.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import chain
from operator import mul

import numpy as np

from repro.core.census import CensusConfig, census_total, effective_labelset
from repro.core.encoding import code_to_string
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import FlatAdjacency, HeteroGraph, MutableHeteroGraph
from repro.exceptions import GraphError
from repro.net.protocol import NetError, require
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import ENGINE_FAST, RunContext
from repro.runtime.store import ArtifactStore
from repro.serve.repair import CodeTable, edge_census, repair_ball

logger = get_logger(__name__)

#: The two census variants every service maintains.
VARIANTS = ("plain", "masked")


@dataclass(frozen=True)
class ServeConfig:
    """Census and ranking knobs of one serving process.

    ``engine`` must be the exact ``fast`` census: incremental repair
    promises bit-identity with a cold recompute, which a sampled estimate
    cannot.
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


def _cosine(a: dict, b: dict, norm_a: float, norm_b: float) -> float:
    if not norm_a or not norm_b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b.get(code, 0) for code, count in a.items())
    return dot / (norm_a * norm_b)


def _norm(census: dict) -> float:
    return math.sqrt(sum(count * count for count in census.values()))


def _add_delta(counts: dict, delta: dict, sign: int) -> None:
    """Add ``sign * delta`` into ``counts`` in place; keys that reach 0 go."""
    for code, n in delta.items():
        count = counts.get(code, 0) + sign * n
        if count:
            counts[code] = count
        else:
            counts.pop(code, None)


#: Below this product of two norms, their rows' dot product fits in int64
#: (Cauchy-Schwarz, with room for the norms' rounding).
_EXACT_DOTS = 2.0**62


@dataclass(frozen=True)
class _RankRows:
    """The tracked plain censuses as one int64 sparse matrix, for ``rank``.

    Row ``root`` is entries ``starts[root]:ends[root]`` of ``indices``
    (the census's column ids in the service's code table) and ``data``
    (counts).  ``norms`` holds each row's :func:`_norm`
    and ``tracked`` marks tracked roots.  A version change appends the
    rows it replaces and repoints them; stale entries are dropped once
    they outnumber the live ones.
    """

    starts: np.ndarray
    ends: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    norms: np.ndarray
    tracked: np.ndarray

    def spliced(self, censuses: dict[int, dict]) -> "_RankRows":
        """A copy with the rows of ``censuses`` (root -> live census) in place."""
        if not censuses:
            return self
        roots = np.fromiter(censuses, np.int64, len(censuses))
        values = [census.values() for census in censuses.values()]
        squares = [sum(map(mul, counts, counts)) for counts in values]
        keys, size = chain.from_iterable(censuses.values()), sum(map(len, values))
        indices = np.concatenate((self.indices, np.fromiter(keys, np.int64, size)))
        data = np.concatenate((self.data, np.fromiter(chain.from_iterable(values), np.int64, size)))
        starts, ends = self.starts.copy(), self.ends.copy()
        norms, tracked = self.norms.copy(), self.tracked.copy()
        bounds = len(self.data) + np.cumsum([0, *map(len, values)])
        starts[roots], ends[roots] = bounds[:-1], bounds[1:]
        norms[roots], tracked[roots] = list(map(math.sqrt, squares)), True
        lengths = ends - starts
        if len(data) > 2 * lengths.sum():  # compact: gather the live rows
            ends = np.cumsum(lengths)
            gather = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
            indices, data, starts = indices[gather], data[gather], ends - lengths
        return _RankRows(starts, ends, indices, data, norms, tracked)

    def cosines(self, root: int) -> np.ndarray:
        """Every row's cosine with ``root``'s, bit-equal to :func:`_cosine`:
        exact integer dot products over the float norms."""
        start, end = self.starts[root], self.ends[root]
        query = np.zeros(int(self.indices.max(initial=-1)) + 1, dtype=np.int64)
        query[self.indices[start:end]] = self.data[start:end]
        # Row sums as differences of one wrapping int64 prefix sum: exact
        # while each row's dot product fits in int64 (see _EXACT_DOTS).
        sums = np.concatenate(([0], np.cumsum(self.data * query[self.indices])))
        norms = self.norms[root] * self.norms
        dots = sums[self.ends] - sums[self.starts]
        return np.divide(dots, norms, out=np.zeros(len(dots)), where=norms > 0)


@dataclass(frozen=True)
class _Version:
    """One published state of the service; a read answers from one version.

    ``counters``: variant -> tracked root -> live census, keyed by column
    id and never edited once published; the plain ones also as ``rows``.
    ``centroids``: label -> masked census sum over the tracked roots (also
    by column id), None until a ``label`` read builds it.
    """

    flat: FlatAdjacency
    fingerprint: str
    counters: dict[str, dict[int, dict]]
    rows: _RankRows
    centroids: dict[int, Counter] | None


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
        self._columns = CodeTable()  # census code <-> column id
        n, graph = self.graph.num_nodes, self.graph
        empty = np.zeros((2, 0), np.int64)  # no entries yet
        rows = _RankRows(*np.zeros((2, n), np.int64), *empty, np.zeros(n), np.zeros(n, bool))
        counters = {variant: {} for variant in VARIANTS}
        self._version = _Version(graph.flat(), graph.fingerprint(), counters, rows, None)
        # (variant, root) -> (live census, its features answer): a hit is
        # valid while that census object is the root's live one.
        self._rendered: dict[tuple[str, int], tuple[dict, dict]] = {}
        self.mutations = self.repaired_roots = self.migrated_roots = 0

    # -- plumbing ---------------------------------------------------------
    @property
    def _tracked(self) -> dict:
        """Tracked roots per variant: those with a live census."""
        return {variant: self._version.counters[variant].keys() for variant in VARIANTS}

    @property
    def _centroids(self) -> dict[int, Counter] | None:
        return self._version.centroids

    @_centroids.setter
    def _centroids(self, centroids: dict[int, Counter] | None) -> None:
        self._version = replace(self._version, centroids=centroids)

    def _resolve(self, node_id) -> int:
        try:
            return self.graph.index(node_id)
        except GraphError as exc:
            raise NetError("unknown_node", str(exc)) from None

    def census(self, variant: str, root: int) -> Counter:
        """The (warm) census of one root, by code; computes and tracks on a miss."""
        live = self._pinned(variant, root).counters[variant][root]
        return Counter(dict(zip(map(self._columns.codes.__getitem__, live), live.values())))

    def _pinned(self, variant: str, root: int) -> _Version:
        """The version to answer from, with ``root`` tracked in ``variant``."""
        if root not in self._version.counters[variant]:
            self._track(variant, [root])
        return self._version

    def _track(self, variant: str, roots: list[int]) -> None:
        """Cold censuses of ``roots``, tracked from now on as live ones."""
        if roots:
            censuses = self._extractors[variant].census_many(self.graph, roots)
            fresh = dict(zip(roots, map(self._columns.interned, censuses)))
            self._publish({variant: fresh}, fresh if variant == "masked" else {}, 1)

    def _publish(self, censuses: dict, masked_deltas: dict, sign: int, **changes) -> None:
        """Publish the next version in one assignment: ``censuses`` (variant
        -> root -> live census) replace or join the current ones, and
        ``sign * masked_deltas`` (root -> counts) patch the label centroids
        (integer counts: bit-equal to a rebuild)."""
        version = self._version
        counters = dict(version.counters)
        for variant, changed in censuses.items():
            counters[variant] = {**counters[variant], **changed}
        centroids = version.centroids
        if centroids is not None and masked_deltas:
            centroids = dict(centroids)
            for root, delta in masked_deltas.items():
                label = self.graph.label_of(root)
                if centroids.get(label) is version.centroids.get(label):
                    centroids[label] = Counter(centroids.get(label, ()))
                _add_delta(centroids[label], delta, sign)
        rows = version.rows.spliced(censuses.get("plain", {}))
        self._version = replace(
            version, counters=counters, rows=rows, centroids=centroids, **changes
        )
        get_telemetry().gauge("serve/codes", len(self._columns))

    def answerable(self, request: dict) -> bool:
        """Whether the published version answers ``request`` as it stands,
        changing no state: its root is tracked (and, for ``label``, the
        centroids built).  Roots stay tracked, so True never goes stale."""
        op, version = request["op"], self._version
        if op not in ("features", "rank", "label"):
            return op in ("ping", "stats")
        try:
            root = self.graph.index(request.get("node"))
        except (GraphError, TypeError):
            return True  # answered with the typed error
        masked = op == "label" or request.get("masked") is True
        tracked = root in version.counters["masked" if masked else "plain"]
        return tracked and (op != "label" or version.centroids is not None)

    def warm(self, roots=None) -> int:
        """Pre-census ``roots`` (default: every node) for both variants;
        returns how many roots it censused.  Tracked roots are skipped (their
        live census is current); ``n_jobs > 1`` fans the rest across processes.
        """
        if roots is None:
            roots = range(self.graph.num_nodes)
        roots = list(dict.fromkeys(map(int, roots)))
        censused = set()
        for variant in VARIANTS:
            tracked = self._version.counters[variant]
            fresh = [root for root in roots if root not in tracked]
            self._track(variant, fresh)
            censused.update(fresh)
        get_telemetry().count("serve/warmed_roots", len(censused))
        return len(censused)

    # -- read operations --------------------------------------------------
    def features(self, node_id, masked: bool = False) -> dict:
        """Rendered census of one node: total, class count, per-code counts."""
        root = self._resolve(node_id)
        variant = "masked" if masked else "plain"
        census = self._pinned(variant, root).counters[variant][root]
        memo = self._rendered.get((variant, root))
        if memo is not None and memo[0] is census:
            return memo[1]
        labelset = self._labelsets[variant]
        pairs = zip(map(self._columns.codes.__getitem__, census), census.values())
        by_count = sorted(pairs, key=lambda item: (-item[1], item[0]))
        counts = {code_to_string(code, labelset): count for code, count in by_count}
        rendered = {
            "node": str(node_id),
            "masked": masked,
            "total": census_total(census),
            "classes": len(census),
            "counts": counts,
        }
        self._rendered[(variant, root)] = (census, rendered)
        return rendered

    def rank(self, node_id, k: int | None = None) -> dict:
        """Top-k tracked roots by census cosine similarity to ``node_id``:
        one integer mat-vec, sorted by ``(-score, root)``."""
        root = self._resolve(node_id)
        k = self.config.top_k if k is None else int(k)
        if k < 1:
            raise NetError("bad_request", f"k must be >= 1, got {k}")
        version = self._pinned("plain", root)
        rows, norms = version.rows, version.rows.norms
        if norms[root] * norms.max() < _EXACT_DOTS:
            scores = rows.cosines(root)
        else:  # counts past int64 dot products: exact Python ones
            live = version.counters["plain"]
            scores = np.array([
                _cosine(live[root], live.get(other, {}), norms[root], norm)
                for other, norm in enumerate(norms)
            ])
        order = np.argsort(-scores, kind="stable")  # ties: ascending root
        order = order[rows.tracked[order] & (order != root)]
        return {
            "node": str(node_id),
            "candidates": len(order),
            "top": [
                {"node": str(self.graph.node_id(i)), "score": float(scores[i])}
                for i in order[:k].tolist()
            ],
        }

    def _build_centroids(self) -> dict[int, Counter]:
        """Per-label masked census sums over the tracked roots (lazy): cosine
        scoring is scale-invariant, so the sum *is* the centroid.  ``label``
        leaves the query root out by subtracting its counter."""
        version = self._version
        if version.centroids is None:
            get_telemetry().count("serve/centroid_builds")
            centroids: dict[int, Counter] = {}
            for root, census in sorted(version.counters["masked"].items()):
                centroids.setdefault(self.graph.label_of(root), Counter()).update(census)
            version = self._version = replace(version, centroids=centroids)
        return version.centroids

    def label(self, node_id) -> dict:
        """Nearest-centroid label prediction from the masked census."""
        root = self._resolve(node_id)
        self._pinned("masked", root)
        self._build_centroids()
        version = self._version
        query = version.counters["masked"][root]
        query_norm = _norm(query)
        actual = self.graph.label_of(root)
        scores = {}
        for label, centroid in sorted(version.centroids.items()):
            if label == actual:  # leave-one-out
                centroid = dict(centroid)
                _add_delta(centroid, query, -1)
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
        version, store = self._version, self.store
        return {
            "graph": {
                "nodes": self.graph.num_nodes,
                "edges": len(version.flat.edge_u),
                "labels": list(self.graph.labelset.names),
                "fingerprint": version.fingerprint,
            },
            "config": {
                "emax": self.config.emax,
                "dmax": self.config.dmax,
                "engine": self.config.engine,
                "n_jobs": self.config.n_jobs,
            },
            "tracked": {variant: len(version.counters[variant]) for variant in VARIANTS},
            # Plain tallies only: store.stats() pickles every entry to size it.
            "store": {
                "entries": len(store),
                "hits": store.hits,
                "misses": store.misses,
                "evictions": store.evictions,
            },
            "mutations": self.mutations,
            "repaired_roots": self.repaired_roots,
            "migrated_roots": self.migrated_roots,
        }

    # -- write path -------------------------------------------------------
    def apply_mutation(self, op: str, u_id, v_id) -> dict:
        """Apply one edge mutation and repair the affected censuses.

        A state change: runs on the writer thread.  The graph changes in
        place, but reads use only its fixed node facts and answer from the
        version published at the end.

        Steps: mutate the graph; enumerate the subgraphs through the edge
        on the version containing it, and those whose count a hub flip of
        an endpoint changes on the version without it; add (or subtract)
        them into a copy of each counting root's live census and of its
        label centroid; publish the next version.  The receipt counts the repair ball's tracked
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
        width, configs, table = len(graph.labelset), self._census_configs, self._columns
        deltas = {variant: defaultdict(dict) for variant in VARIANTS}
        tracked = self._tracked
        sets = edge_census(with_edge, width, (u, v), configs, tracked, deltas, table)
        flipped = tuple(w for w in (u, v) if without.degrees[w] == self.config.dmax)
        for x in flipped:
            sets += edge_census(without, width, (x,), configs, tracked, deltas, table, flipped)
        new_fp = graph.fingerprint()
        telemetry = get_telemetry()
        telemetry.count("serve/hub_flips", int(bool(flipped)))
        telemetry.count("serve/repair_subgraphs", sets)
        sign = 1 if op == "add_edge" else -1
        version = self._version
        repaired = migrated = 0
        censuses = {variant: {} for variant in VARIANTS}
        for variant in VARIANTS:
            live = version.counters[variant]
            affected = len(live.keys() & ball)
            migrated += len(live) - affected
            repaired += affected
            for root, delta in deltas[variant].items():
                census = censuses[variant][root] = dict(live[root])
                _add_delta(census, delta, sign)
        self._publish(censuses, deltas["masked"], sign, flat=graph.flat(), fingerprint=new_fp)
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
