"""Subgraph feature extraction and matrix building (Section 3.2 / 4).

The census of :mod:`repro.core.census` yields one ``Counter`` per root node.
To feed machine-learning models, those sparse counters must be aligned into
a single feature space: each distinct subgraph code is one feature column,
and a node's value in that column is its rooted count (Eq. 4).

:class:`FeatureSpace` owns the code→column vocabulary (fit on training
nodes, reused on test nodes so the matrices align), and
:class:`SubgraphFeatureExtractor` drives the per-node censuses, optionally
in parallel — the census is trivially parallelisable by start node because
the graph is shared read-only, exactly as the paper argues for its
``O(tV + E)`` memory bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.cache import census_config_key, census_store_config, stored_census
from repro.core.census import CensusConfig, subgraph_census
from repro.core.graph import HeteroGraph
from repro.core.sampled import SampledCensusConfig
from repro.core.sparse import CSRMatrix
from repro.exceptions import CensusError, FeatureError
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import ENGINE_SAMPLED, VALID_ENGINES, RunContext
from repro.runtime.executor import run_tasks
from repro.runtime.store import STAGE_CENSUS, STAGE_FEATURES


class FeatureSpace:
    """An ordered vocabulary of subgraph codes.

    Columns are assigned in first-seen order, so fitting on the same data in
    the same order is deterministic.
    """

    __slots__ = ("_index", "_keys")

    def __init__(self, keys: Iterable = ()) -> None:
        self._keys: list = []
        self._index: dict = {}
        for key in keys:
            self.add(key)

    def add(self, key) -> int:
        """Register ``key`` (idempotent) and return its column index."""
        column = self._index.get(key)
        if column is None:
            column = len(self._keys)
            self._index[key] = column
            self._keys.append(key)
        return column

    def fit(self, censuses: Iterable[Counter]) -> "FeatureSpace":
        """Absorb every key occurring in the given censuses."""
        for census in censuses:
            for key in census:
                self.add(key)
        return self

    def index(self, key) -> int:
        """Column of ``key``; raises :class:`FeatureError` when unknown."""
        try:
            return self._index[key]
        except KeyError:
            raise FeatureError(f"unknown feature key {key!r}") from None

    def __contains__(self, key) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> tuple:
        """All codes in column order."""
        return tuple(self._keys)

    def key_at(self, column: int):
        """The code occupying ``column``."""
        if not 0 <= column < len(self._keys):
            raise FeatureError(f"column {column} out of range")
        return self._keys[column]

    def merged(self, other: "FeatureSpace") -> "FeatureSpace":
        """A new space containing this vocabulary followed by ``other``'s
        novel keys — used to union train-time vocabularies from several
        extractions without disturbing existing column assignments."""
        merged = FeatureSpace(self._keys)
        for key in other.keys:
            merged.add(key)
        return merged

    def prune(
        self, censuses: "Sequence[Counter] | CSRMatrix", min_nodes: int = 2
    ) -> "FeatureSpace":
        """A new space keeping only codes observed around at least
        ``min_nodes`` distinct roots.

        Rare subgraph classes are one-hot noise for most models; pruning
        them shrinks matrices substantially on heavy-tailed vocabularies
        while keeping the informative mass.

        ``censuses`` may be the raw counters or a :class:`CSRMatrix` built
        by ``to_matrix(..., layout="sparse")`` *from this space*: its
        stored entries are exactly the indexed (key, root) observations,
        so support is one ``bincount`` over the CSR columns instead of a
        re-iteration of every counter.  Keys absent from this space's own
        index never count toward support either way (masked censuses can
        carry codes the vocabulary dropped).
        """
        if min_nodes < 1:
            raise FeatureError(f"min_nodes must be >= 1, got {min_nodes}")
        if isinstance(censuses, CSRMatrix):
            if censuses.shape[1] != len(self):
                raise FeatureError(
                    f"matrix has {censuses.shape[1]} columns, space has {len(self)}"
                )
            support_per_column = censuses.column_support()
            return FeatureSpace(
                key
                for column, key in enumerate(self._keys)
                if support_per_column[column] >= min_nodes
            )
        support: Counter = Counter()
        for census in censuses:
            for key in census:
                if key in self._index:
                    support[key] += 1
        return FeatureSpace(
            key for key in self._keys if support[key] >= min_nodes
        )

    def to_matrix(
        self, censuses: Sequence[Counter], layout: str = "dense"
    ) -> "np.ndarray | CSRMatrix":
        """Stack censuses into a ``(len(censuses), len(self))`` matrix.

        ``layout="dense"`` returns the float64 ndarray; ``layout="sparse"``
        builds a :class:`CSRMatrix` directly from the counters without ever
        materialising the zeros — same values at the same positions, so
        models fed either layout are bit-identical.

        Keys absent from the vocabulary are silently dropped — that is the
        correct behaviour for *test* nodes whose neighbourhood contains
        subgraph types never seen during training.
        """
        if not len(self):
            raise FeatureError("cannot build a matrix from an empty feature space")
        if layout == "sparse":
            return CSRMatrix.from_counters(censuses, self._index, len(self))
        if layout != "dense":
            raise FeatureError(f"layout must be 'dense' or 'sparse', got {layout!r}")
        matrix = np.zeros((len(censuses), len(self)), dtype=np.float64)
        index = self._index
        for row, census in enumerate(censuses):
            for key, count in census.items():
                column = index.get(key)
                if column is not None:
                    matrix[row, column] = count
        return matrix


@dataclass
class SubgraphFeatures:
    """Aligned feature matrix for a set of root nodes.

    Attributes
    ----------
    matrix:
        ``(num_nodes, num_features)`` count matrix — dense ndarray or
        :class:`~repro.core.sparse.CSRMatrix` depending on the extraction
        ``layout``; both carry identical values.
    space:
        The vocabulary mapping columns back to subgraph codes.
    nodes:
        Root node indices, aligned with matrix rows.
    """

    matrix: "np.ndarray | CSRMatrix"
    space: FeatureSpace
    nodes: tuple[int, ...]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]


def _census_chunk(shared: tuple, chunk: list[int]) -> list[Counter]:
    """Census one chunk of roots: the census fan-out task.

    ``shared`` is ``(graph, config, engine, sampled, extension_keys)``;
    ``extension_keys`` is ``None`` in workers: each chunk starts its own.

    ``subgraph_census`` is looked up through this module's globals on
    every call, so wrapping ``repro.core.features.subgraph_census`` (a
    profiler, a test's call counter) sees every root.
    """
    graph, config, engine, sampled, extension_keys = shared
    extension_keys = {} if extension_keys is None else extension_keys
    telemetry = get_telemetry()
    censuses = []
    with telemetry.span("census/chunk"):
        for root in chunk:
            with telemetry.span("census/root"):
                censuses.append(
                    subgraph_census(
                        graph, root, config, engine=engine, sampled=sampled,
                        extension_keys=extension_keys,
                    )
                )
    return censuses


class SubgraphFeatureExtractor:
    """Extracts heterogeneous subgraph features for sets of root nodes.

    Parameters
    ----------
    config:
        Census parameters (``e_max``, ``d_max``, masking, ...).
    sampled:
        Estimator knobs for the sampled engine (budget, seed, rel_err).
        Requires the context engine to resolve to ``"sampled"``;
        conversely, ``engine="sampled"`` with no explicit knobs uses
        ``SampledCensusConfig()``.  Estimates flow through the matrix
        pipeline unchanged (float counts instead of ints).
    ctx:
        Optional :class:`~repro.runtime.context.RunContext` carrying the
        execution settings: the census ``engine``; ``n_jobs`` worker
        processes (1 by default runs in-process; ``0`` means all cores;
        workers each receive the read-only graph, mirroring the paper's
        shared edge-list parallelisation); ``workers``, ``repro worker``
        endpoints that take the census remotely (see :mod:`repro.dist`:
        uncached roots go in the same chunks to daemons holding the whole
        graph, with bit-identical results); and the artifact store.  With
        a context store, stored roots are served without recomputation
        and fresh censuses are written back, so ablation grids that
        re-census overlapping node sets under one config pay for each
        root once; the store also memoises whole matrices in
        :meth:`fit_transform`.
    mp_context:
        Multiprocessing start method for the worker pool (``"fork"``,
        ``"spawn"``, ``"forkserver"``, or a ready context object);
        ``None`` keeps the platform default.  With an
        :class:`~repro.core.mmap_graph.MmapGraph` each worker receives
        only the file path and workers re-open the mapping, so even
        ``"spawn"`` pools start without serialising the graph.
    """

    def __init__(
        self,
        config: CensusConfig | None = None,
        *,
        sampled: SampledCensusConfig | None = None,
        ctx: RunContext | None = None,
        mp_context=None,
    ) -> None:
        ctx = ctx if ctx is not None else RunContext()
        self.config = config if config is not None else CensusConfig()
        self.n_jobs = ctx.resolved_n_jobs(default=1)
        self.ctx = ctx
        #: Census engine, validated up front; threaded into every
        #: subgraph_census call, including pool workers.
        self.engine = ctx.resolve_engine(
            VALID_ENGINES, param="census engine", error=CensusError
        )
        if sampled is not None and self.engine != ENGINE_SAMPLED:
            raise FeatureError(
                "sampled= requires engine='sampled', "
                f"got engine={ctx.engine!r}"
            )
        if sampled is None and self.engine == ENGINE_SAMPLED:
            sampled = SampledCensusConfig()
        #: Sampled-estimator knobs (None unless the engine is "sampled");
        #: part of every census store key so estimates never collide with
        #: exact counts.
        self.sampled = sampled
        self.mp_context = mp_context
        # subgraph_census's extension_keys for the roots censused in
        # process; never shipped to workers.
        self._extension_keys: dict = {}

    def census_many(
        self, graph: HeteroGraph, nodes: Sequence[int]
    ) -> list[Counter]:
        """Run the rooted census for every node in ``nodes``.

        Results align with ``nodes`` positionally.  Duplicate roots are
        censused once and fanned out to every occurrence (the saving is
        counted as ``census/dedup_saved`` in the run telemetry).  Parallel
        runs schedule roots in descending-degree order — hub censuses
        dominate the wall clock (the paper's Table 3 outlier columns), so
        starting them first keeps the stragglers from serialising the
        tail — and the original order is restored before returning.  The
        pool is skipped entirely when there is too little work to
        amortise its startup (``nodes`` empty, or fewer pending roots
        than workers); worker-side timing and census counters are
        merged back into the parent's telemetry either way.

        A context with ``workers`` sends the same chunks of uncached roots
        to those ``repro worker`` daemons instead, each holding the whole
        graph (shipped once per fingerprint; :mod:`repro.dist.remote`).
        Results are bit-identical either way.
        """
        config = self.config
        store = self.ctx.store
        sampled = self.sampled
        telemetry = get_telemetry()
        telemetry.annotate(
            "census/storage", getattr(graph, "storage_kind", "dict")
        )
        # node -> positions in the output; computing per *unique* node is
        # the dedup bugfix: duplicates used to miss the store once per
        # occurrence because every get() ran before any put().
        positions: dict[int, list[int]] = {}
        for pos, node in enumerate(nodes):
            positions.setdefault(int(node), []).append(pos)
        results: list[Counter | None] = [None] * len(nodes)
        duplicates = len(results) - len(positions)
        telemetry.count("census/requested", len(results))
        if duplicates:
            telemetry.count("census/dedup_saved", duplicates)
        computed: dict[int, Counter] = {}
        if store is not None:
            pending = []
            for node in positions:
                hit = stored_census(store, graph, config, node, sampled)
                if hit is None:
                    pending.append(node)
                else:
                    computed[node] = hit
            telemetry.count("census/cache_hits", len(positions) - len(pending))
            telemetry.count("census/cache_misses", len(pending))
        else:
            pending = list(positions)
        if pending:
            workers = self.ctx.workers
            slots = len(workers) if workers else self.n_jobs
            # Stricter than the executor's rule: fewer pending roots than
            # slots run as one chunk locally.  Remote runs always chunk,
            # which bounds each response frame and each failover.
            if len(pending) < slots:
                slots = 1
            chunksize = len(pending)
            if workers or slots > 1:
                degrees = graph.flat().degrees
                pending = sorted(
                    pending, key=lambda node: degrees[node], reverse=True
                )
                # ~4 chunks per slot balances scheduling overhead against
                # load skew from uneven per-root cost.
                chunksize = max(1, len(pending) // (slots * 4))
            chunks = [
                pending[start: start + chunksize]
                for start in range(0, len(pending), chunksize)
            ]
            if workers:
                from repro.dist import RemoteExecutor

                censuses = RemoteExecutor(workers).census_map(
                    graph, chunks, config, engine=self.engine, sampled=sampled
                )
            else:
                extension_keys = self._extension_keys if slots == 1 else None
                censuses = run_tasks(
                    _census_chunk,
                    chunks,
                    n_jobs=slots,
                    shared=(graph, config, self.engine, sampled, extension_keys),
                    mp_context=self.mp_context,
                )
            for chunk, chunk_censuses in zip(chunks, censuses):
                computed.update(zip(chunk, chunk_censuses))
            if store is not None:
                fingerprint = graph.fingerprint()
                for node in pending:
                    store.put(
                        fingerprint,
                        STAGE_CENSUS,
                        census_store_config(config, node, sampled),
                        computed[node],
                    )
        for node, node_positions in positions.items():
            census = computed[node]
            results[node_positions[0]] = census
            for pos in node_positions[1:]:
                # Fan out copies so callers mutating one row cannot
                # corrupt its duplicates (copy() rather than Counter():
                # a SampledCensus copy keeps its confidence report).
                results[pos] = census.copy()
        return results

    def fit_transform(
        self, graph: HeteroGraph, nodes: Sequence[int], layout: str = "dense"
    ) -> SubgraphFeatures:
        """Census the nodes, build a fresh vocabulary, return the matrix.

        When the extractor's context carries an artifact store, the
        finished matrix is cached under the ``"features"`` stage (keyed
        by census config, node set, and layout) and a warm rerun returns
        it without re-censusing.
        """
        node_tuple = tuple(int(n) for n in nodes)
        store = self.ctx.store
        feature_config = None
        if store is not None:
            feature_config = (
                *census_config_key(self.config, self.sampled),
                layout,
                node_tuple,
            )
            cached = store.get(graph.fingerprint(), STAGE_FEATURES, feature_config)
            if cached is not None:
                return cached
        censuses = self.census_many(graph, nodes)
        space = FeatureSpace().fit(censuses)
        if not len(space):
            raise FeatureError(
                "no subgraphs found around any root; are the nodes isolated?"
            )
        features = SubgraphFeatures(
            space.to_matrix(censuses, layout=layout), space, node_tuple
        )
        if store is not None:
            store.put(graph.fingerprint(), STAGE_FEATURES, feature_config, features)
        return features

    def transform(
        self,
        graph: HeteroGraph,
        nodes: Sequence[int],
        space: FeatureSpace,
        layout: str = "dense",
    ) -> SubgraphFeatures:
        """Census the nodes and align them to an existing vocabulary."""
        censuses = self.census_many(graph, nodes)
        return SubgraphFeatures(
            space.to_matrix(censuses, layout=layout),
            space,
            tuple(int(n) for n in nodes),
        )
