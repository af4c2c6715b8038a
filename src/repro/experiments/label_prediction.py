"""Label-prediction evaluation (Section 4.3, Figure 5, Tables 2–3 inputs).

For each evaluation network: sample up to 250 nodes per label, extract
subgraph features (with the start-node label masked, Section 4.3.2) and the
three embedding baselines, train one-vs-rest logistic regression with tuned
L2 strength, and score macro-F1 over repeated random train/test splits.

Two experiment axes map to Figure 5:

* :meth:`LabelPredictionExperiment.run_training_sweep` — macro-F1 as the
  training fraction varies (Figure 5A–C);
* :meth:`LabelPredictionExperiment.run_label_removal` — macro-F1 as node
  labels are replaced by an ``unlabeled`` label in the graph while the
  evaluation targets keep their true labels (Figure 5D–F).  Embeddings are
  structure-only and therefore invariant, exactly as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.census import CensusConfig
from repro.core.features import FeatureSpace, SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet
from repro.core.sampled import SampledCensusConfig
from repro.datasets.load import sample_nodes_per_label
from repro.experiments.common import (
    EMBEDDING_METHODS,
    EmbeddingParams,
    embedding_matrix,
    percentile_degree,
)
from repro.ml import StandardScaler, macro_f1, train_test_split, tune_regularization
from repro.ml.preprocessing import log1p_counts
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext, resolve_n_jobs
from repro.runtime.executor import run_tasks

FEATURE_TYPES = ("subgraph", *EMBEDDING_METHODS)

#: Label name standing in for removed node labels (Figure 5D–F).
UNLABELED = "unlabeled"

logger = get_logger(__name__)


def _draw_split_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Pre-draw ``count`` split seeds from the sequential RNG stream.

    Drawing seeds up front (in the exact order the sequential loop would
    consume them) is what makes the training-sweep fan-out bit-identical
    for every worker count.
    """
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(count)]


def _score_feature(experiment, task) -> dict:
    """Score every (fraction, seeds) cell of one feature type: the
    training-sweep fan-out task."""
    feature, cells = task
    X = experiment.feature_matrix(feature)
    return {
        (feature, fraction): experiment._score_splits(X, fraction, seeds)
        for fraction, seeds in cells
    }


@dataclass
class LabelTaskConfig:
    """Parameters of one label-prediction run.

    Paper values: ``per_label=250``, ``emax=5``, ``dmax_percentile=90``,
    100 split repetitions.  Defaults here are bench-sized; pass paper
    values explicitly for a full run.
    """

    per_label: int = 40
    emax: int = 3
    dmax_percentile: float = 90.0
    #: Never sample roots above this global degree percentile (Section
    #: 4.3.5: skipping the top 5% of degrees leaves prediction performance
    #: intact and removes the runtime tail).  ``None`` disables the filter.
    root_degree_percentile: float | None = 95.0
    train_fractions: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    n_repeats: int = 10
    removal_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    removal_train_fraction: float = 0.9
    embedding_params: EmbeddingParams = field(default_factory=EmbeddingParams.fast)
    logreg_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    seed: int = 0
    #: Matrix layout for the subgraph count features ("dense" or "sparse").
    layout: str = "dense"
    #: Census engine for the subgraph features ("fast" exact, or
    #: "sampled" for an approximate census).  The embedding pipelines
    #: have one implementation and ignore it.
    engine: str = "fast"
    #: Estimator knobs when ``engine="sampled"`` (budget, seed, rel_err);
    #: ``None`` with the sampled engine uses ``SampledCensusConfig()``.
    sampled: SampledCensusConfig | None = None
    #: Worker processes for the training sweep's per-feature fan-out;
    #: split seeds are pre-drawn so any count matches ``n_jobs=1``.
    n_jobs: int | None = 1


@dataclass
class SweepResult:
    """Macro-F1 per (feature type, x-axis value), with per-repeat scores."""

    scores: dict[tuple[str, float], list[float]]

    def mean(self, feature: str, x: float) -> float:
        return float(np.mean(self.scores[(feature, x)]))

    def std(self, feature: str, x: float) -> float:
        return float(np.std(self.scores[(feature, x)]))

    def xs(self) -> list[float]:
        return sorted({x for (_f, x) in self.scores})

    def features(self) -> list[str]:
        return sorted({f for (f, _x) in self.scores})


def with_removed_labels(
    graph: HeteroGraph,
    fraction: float,
    rng: np.random.Generator | int | None = None,
) -> HeteroGraph:
    """Replace the label of a random node fraction with ``unlabeled``.

    The returned graph has the same nodes and edges over an alphabet
    extended by the ``unlabeled`` label, mirroring the paper's protocol of
    replacing labels "with an unlabeled-label".
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0:
        return graph
    rng = np.random.default_rng(rng)
    extended = LabelSet(graph.labelset.names + (UNLABELED,))
    num_removed = int(round(fraction * graph.num_nodes))
    removed = set(rng.choice(graph.num_nodes, size=num_removed, replace=False).tolist())
    node_labels = {}
    for index, node_id in enumerate(graph.node_ids):
        if index in removed:
            node_labels[node_id] = UNLABELED
        else:
            node_labels[node_id] = graph.labelset.name(graph.label_of(index))
    edges = [
        (graph.node_id(u), graph.node_id(v)) for u, v in graph.edges()
    ]
    return HeteroGraph.from_edges(node_labels, edges, labelset=extended)


class LabelPredictionExperiment:
    """End-to-end pipeline producing Figure 5 (and Table 2 inputs)."""

    def __init__(
        self,
        graph: HeteroGraph,
        config: LabelTaskConfig | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else LabelTaskConfig()
        if self.config.layout not in ("dense", "sparse"):
            raise ValueError(
                f"layout must be 'dense' or 'sparse', got {self.config.layout!r}"
            )
        self.ctx = ctx if ctx is not None else RunContext()
        # Feature stages take the config's census engine and the context's
        # store; n_jobs stays with the sweep fan-out, not the extractors.
        self._stage_ctx = RunContext(
            engine=self.config.engine,
            store=self.ctx.store,
        )
        rng = np.random.default_rng(self.config.seed)
        self.nodes, self.targets = sample_nodes_per_label(
            graph,
            self.config.per_label,
            rng=rng,
            max_degree_percentile=self.config.root_degree_percentile,
        )
        if self.nodes.size == 0:
            raise ValueError("graph has no non-isolated nodes to sample")
        self._embedding_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def subgraph_matrix(
        self,
        graph: HeteroGraph | None = None,
        dmax_percentile: float | None = None,
        emax: int | None = None,
        max_subgraphs: int | None = None,
    ) -> np.ndarray:
        """Masked subgraph count matrix for the sampled nodes.

        ``graph`` may be a relabelled variant of the experiment graph (for
        the label-removal sweep); it must preserve node ids.
        ``max_subgraphs`` forwards the census's per-root guard — used by the
        Table 2 bench to mirror the paper's "did not finish" at 100%.
        """
        cfg = self.config
        graph = graph if graph is not None else self.graph
        percentile = dmax_percentile if dmax_percentile is not None else cfg.dmax_percentile
        dmax = percentile_degree(graph, percentile)
        census_config = CensusConfig(
            max_edges=emax if emax is not None else cfg.emax,
            max_degree=dmax,
            mask_start_label=True,
            max_subgraphs=max_subgraphs,
        )
        extractor = SubgraphFeatureExtractor(
            census_config, sampled=cfg.sampled, ctx=self._stage_ctx
        )
        with get_telemetry().span("phase/label_features_subgraph"):
            censuses = extractor.census_many(graph, self.nodes)
            space = FeatureSpace().fit(censuses)
            return log1p_counts(space.to_matrix(censuses, layout=cfg.layout))

    def embedding_features(self, method: str) -> np.ndarray:
        """Embedding rows for the sampled nodes (cached: structure-only)."""
        if method not in self._embedding_cache:
            with get_telemetry().span(f"phase/label_features_{method}"):
                self._embedding_cache[method] = embedding_matrix(
                    self.graph,
                    self.nodes,
                    method,
                    self.config.embedding_params,
                    seed=self.config.seed,
                    ctx=self._stage_ctx,
                )
        return self._embedding_cache[method]

    def feature_matrix(self, feature: str) -> np.ndarray:
        if feature == "subgraph":
            return self.subgraph_matrix()
        if feature in EMBEDDING_METHODS:
            return self.embedding_features(feature)
        raise ValueError(f"unknown feature type {feature!r}")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_splits(
        self, X: np.ndarray, train_fraction: float, split_seeds: list[int]
    ) -> list[float]:
        """Macro-F1 over one random stratified split per seed.

        Seeds are pre-drawn by the caller (see :func:`_draw_split_seeds`)
        so cells can be scored in any process without perturbing the RNG
        stream.  Each fold is timed into the ``label/fold`` telemetry
        timer, so a sweep's manifest shows where the wall clock went.
        """
        cfg = self.config
        telemetry = get_telemetry()
        scores = []
        for split_seed in split_seeds:
            with telemetry.span("label/fold"):
                X_train, X_test, y_train, y_test = train_test_split(
                    X,
                    self.targets,
                    test_size=1.0 - train_fraction,
                    rng=split_seed,
                    stratify=self.targets,
                )
                scaler = StandardScaler().fit(X_train)
                model = tune_regularization(
                    scaler.transform(X_train),
                    y_train,
                    grid=cfg.logreg_grid,
                    rng=split_seed,
                )
                predictions = model.predict(scaler.transform(X_test))
                scores.append(macro_f1(y_test, predictions))
        return scores

    def run_training_sweep(self, features=FEATURE_TYPES) -> SweepResult:
        """Figure 5A–C: macro-F1 vs training fraction.

        With ``config.n_jobs > 1`` the per-feature cells fan out over a
        process pool.  All split seeds are pre-drawn from the sequential
        stream first, and results come back in grid order, so they are
        bit-identical for any worker count.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        plan = [
            (
                feature,
                [
                    (fraction, _draw_split_seeds(rng, cfg.n_repeats))
                    for fraction in cfg.train_fractions
                ],
            )
            for feature in features
        ]
        n_jobs = resolve_n_jobs(cfg.n_jobs)
        setup, shared = None, self
        if min(n_jobs, len(plan)) > 1:
            if self.ctx.store is not None:
                logger.warning(
                    "parallel label sweep: workers neither read nor write "
                    "the artifact store"
                )
            # Each worker builds its own experiment, without the store.
            setup = LabelPredictionExperiment
            shared = (self.graph, replace(cfg, n_jobs=1))
        scores: dict[tuple[str, float], list[float]] = {}
        for feature_scores in run_tasks(
            _score_feature, plan, n_jobs=n_jobs, setup=setup, shared=shared
        ):
            scores.update(feature_scores)
        return SweepResult(scores)

    def run_label_removal(self, features=FEATURE_TYPES) -> SweepResult:
        """Figure 5D–F: macro-F1 vs fraction of removed node labels.

        Embedding scores are computed once (they ignore labels) and repeated
        across the x-axis, exactly how the paper plots them as flat lines.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 2)
        scores: dict[tuple[str, float], list[float]] = {}
        embedding_scores: dict[str, list[float]] = {}
        for feature in features:
            if feature in EMBEDDING_METHODS:
                X = self.feature_matrix(feature)
                embedding_scores[feature] = self._score_splits(
                    X,
                    cfg.removal_train_fraction,
                    _draw_split_seeds(rng, cfg.n_repeats),
                )
        for fraction in cfg.removal_fractions:
            if "subgraph" in features:
                relabelled = with_removed_labels(
                    self.graph, fraction, rng=cfg.seed + int(fraction * 1000)
                )
                X = self.subgraph_matrix(graph=relabelled)
                scores[("subgraph", fraction)] = self._score_splits(
                    X,
                    cfg.removal_train_fraction,
                    _draw_split_seeds(rng, cfg.n_repeats),
                )
            for feature, values in embedding_scores.items():
                scores[(feature, fraction)] = list(values)
        return SweepResult(scores)

    def run_dmax_sweep(
        self,
        percentiles=(90, 92, 94, 96, 98, 100),
        max_subgraphs: int | None = None,
    ) -> dict[float, float]:
        """Table 2: mean macro-F1 per ``d_max`` percentile level.

        Uses a single mid-size training fraction per the table's setup.
        When ``max_subgraphs`` is set and a level trips the census guard,
        that level maps to ``nan`` — the paper's "extraction did not
        finish" dashes for the 100% column on large networks.
        """
        from repro.exceptions import CensusError

        rng = np.random.default_rng(self.config.seed + 3)
        result = {}
        for percentile in percentiles:
            try:
                X = self.subgraph_matrix(
                    dmax_percentile=percentile, max_subgraphs=max_subgraphs
                )
            except CensusError:
                result[float(percentile)] = float("nan")
                continue
            scores = self._score_splits(
                X,
                self.config.removal_train_fraction,
                _draw_split_seeds(rng, self.config.n_repeats),
            )
            result[float(percentile)] = float(np.mean(scores))
        return result
