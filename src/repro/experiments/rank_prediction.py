"""Rank-prediction evaluation (Section 4.2, Figure 3, Table 1).

Predicts next-year institution relevance per conference from features of
the preceding year and evaluates NDCG\\@20 against the planted KDD-Cup-style
ground truth of :class:`~repro.datasets.mag.SyntheticMAG`.

Temporal protocol: a sample is ``(institution, conference, year)``.  Its
features come from year ``y - 1`` (publication-history features, the
``y - 1`` conference graph for subgraph and embedding features) and its
target is the relevance in year ``y``.  Training uses ``train_years``,
testing the final year — the paper trains on 2007–2014 and predicts 2015.

The four predictive methods follow Section 4.2.3:

* linear regression and decision tree on the 5 best univariate features,
* random forest (300 trees) on all features,
* Bayesian ridge on the 60 best univariate features.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.census import CensusConfig
from repro.core.features import FeatureSpace, SubgraphFeatureExtractor
from repro.core.sampled import SampledCensusConfig
from repro.core.sparse import CSRMatrix
from repro.datasets.mag import SyntheticMAG
from repro.experiments.classic_features import ClassicFeatureExtractor
from repro.experiments.common import EMBEDDING_METHODS, EmbeddingParams, embedding_matrix
from repro.ml import (
    BayesianRidge,
    DecisionTreeRegressor,
    LinearRegression,
    RandomForestRegressor,
    SelectKBest,
    StandardScaler,
    ndcg_at,
)
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext, resolve_n_jobs
from repro.runtime.executor import run_tasks

FEATURE_FAMILIES = ("classic", "subgraph", "combined", "node2vec", "deepwalk", "line")
REGRESSOR_NAMES = ("LinRegr", "DecTree", "RanForest", "BayRidge")

logger = get_logger(__name__)


def _hstack_blocks(blocks):
    """Column-concatenate feature blocks, staying sparse if any block is."""
    if any(isinstance(block, CSRMatrix) for block in blocks):
        return CSRMatrix.hstack(blocks)
    return np.hstack(blocks)


def _run_conference(experiment, task) -> tuple[dict, dict]:
    """One conference's (conference, family) cells: the grid fan-out task.

    A task is a whole conference so per-conference feature reuse keeps
    working inside a worker.
    """
    conference, families, regressors = task
    ndcg: dict = {}
    timings: dict = {}
    for family in families:
        cell_ndcg, cell_timings = experiment._run_cell(
            conference, family, regressors
        )
        ndcg.update(cell_ndcg)
        timings.update(cell_timings)
    return ndcg, timings


@dataclass
class RankTaskConfig:
    """Parameters of one rank-prediction run.

    ``emax=4`` (instead of the paper's 6) and the ``fast`` embedding preset
    keep the pure-Python run tractable; both deviations are recorded in
    EXPERIMENTS.md and do not change which feature family wins.
    """

    train_years: tuple[int, ...] = tuple(range(2008, 2015))
    test_year: int = 2015
    conferences: tuple[str, ...] | None = None  # None = all in the MAG world
    emax: int = 4
    dmax: int | None = None
    reference_depth: int = 2
    ndcg_n: int = 20
    forest_trees: int = 300
    forest_max_features: str | None = "sqrt"
    select_small: int = 5
    select_large: int = 60
    embedding_params: EmbeddingParams = field(default_factory=EmbeddingParams.fast)
    seed: int = 0
    #: "dense" or "sparse" — matrix layout for the count families.  Models
    #: see identical values either way; sparse skips materialising the
    #: zeros of the heavy-tailed subgraph vocabulary until the model
    #: boundary densifies.
    layout: str = "dense"
    #: Graph storage for the per-conference census graphs: "dict" keeps
    #: the in-memory HeteroGraph; "mmap" converts each graph to
    #: out-of-core mmap storage (see ``docs/out_of_core.md``) so worker
    #: pools re-open the mapping instead of unpickling the graph.
    #: Results are bit-identical either way.
    storage: str = "dict"
    #: Census engine for the subgraph family ("fast" exact, "sampled"
    #: approximate).  Classic and embedding families are unaffected.
    engine: str = "fast"
    #: Estimator knobs when ``engine="sampled"`` (budget, seed, rel_err);
    #: ``None`` with the sampled engine uses ``SampledCensusConfig()``.
    sampled: SampledCensusConfig | None = None
    #: Worker processes.  With several conferences the grid runner fans
    #: (conference, family) cells; with one conference the forest takes
    #: the workers instead.  0/None = all cores.
    n_jobs: int | None = 1

    @classmethod
    def small(cls) -> "RankTaskConfig":
        """Bench-sized run: fewer train years, smaller census."""
        return cls(train_years=tuple(range(2011, 2015)), emax=3)


@dataclass
class RankPredictionResult:
    """NDCG scores per (regressor, feature family, conference).

    ``timings`` keeps the per-cell feature wall clock
    (``features/{family}/{conference}``) for existing consumers; the
    same measurements also land in the run telemetry under
    ``rank/features/{family}`` and ``phase/rank_{family}``.
    """

    config: RankTaskConfig
    ndcg: dict[tuple[str, str, str], float]
    timings: dict[str, float]

    def average(self, regressor: str, family: str) -> float:
        """Average NDCG over conferences (the cells of Table 1)."""
        values = [
            score
            for (reg, fam, _conf), score in self.ndcg.items()
            if reg == regressor and fam == family
        ]
        if not values:
            raise KeyError(f"no scores for ({regressor}, {family})")
        return float(np.mean(values))

    def average_table(self) -> dict[tuple[str, str], float]:
        """Table 1: average NDCG per method and feature family."""
        pairs = {(reg, fam) for (reg, fam, _c) in self.ndcg}
        return {pair: self.average(*pair) for pair in sorted(pairs)}

    def conferences(self) -> list[str]:
        return sorted({conf for (_r, _f, conf) in self.ndcg})


class RankPredictionExperiment:
    """End-to-end pipeline producing Figure 3 / Table 1 numbers."""

    def __init__(
        self,
        mag: SyntheticMAG,
        config: RankTaskConfig | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        self.mag = mag
        self.config = config if config is not None else RankTaskConfig()
        if self.config.layout not in ("dense", "sparse"):
            raise ValueError(
                f"layout must be 'dense' or 'sparse', got {self.config.layout!r}"
            )
        self.ctx = ctx if ctx is not None else RunContext()
        # Stages take the store from the context; the census engine and
        # n_jobs live in the experiment config.
        self._stage_ctx = RunContext(
            engine=self.config.engine,
            store=self.ctx.store,
        )
        self._graphs: dict[tuple[str, int], object] = {}
        self._families: dict[tuple[str, str], dict[int, object]] = {}
        history = [y for y in mag.config.years if y < self.config.test_year]
        self._classic = ClassicFeatureExtractor(mag, history_years=history)

    # ------------------------------------------------------------------
    def _graph(self, conference: str, feature_year: int):
        key = (conference, feature_year)
        if key not in self._graphs:
            graph = self.mag.build_rank_graph(
                conference, feature_year, reference_depth=self.config.reference_depth
            )
            if self.config.storage == "mmap":
                from repro.io.stream import to_mmap_graph

                graph = to_mmap_graph(graph)
            elif self.config.storage != "dict":
                raise ValueError(
                    f"unknown graph storage {self.config.storage!r} "
                    "(choices: dict, mmap)"
                )
            self._graphs[key] = graph
        return self._graphs[key]

    def _feature_years(self) -> list[int]:
        return [*self.config.train_years, self.config.test_year]

    # ------------------------------------------------------------------
    # Feature family construction
    # ------------------------------------------------------------------
    def _classic_by_year(self, conference: str) -> dict[int, np.ndarray]:
        institutions = self.mag.institutions
        return {
            year: self._classic.matrix(institutions, conference, year)
            for year in self._feature_years()
        }

    def _subgraph_with_space(
        self, conference: str
    ) -> tuple[dict[int, np.ndarray], FeatureSpace]:
        cfg = self.config
        census_config = CensusConfig(max_edges=cfg.emax, max_degree=cfg.dmax)
        extractor = SubgraphFeatureExtractor(
            census_config, sampled=cfg.sampled, ctx=self._stage_ctx
        )
        censuses_by_year: dict[int, list] = {}
        for year in self._feature_years():
            graph = self._graph(conference, year - 1)
            roots = [graph.index(inst) for inst in self.mag.institutions]
            censuses_by_year[year] = extractor.census_many(graph, roots)
        space = FeatureSpace()
        for year in self.config.train_years:
            space.fit(censuses_by_year[year])
        by_year = {
            year: space.to_matrix(censuses_by_year[year], layout=cfg.layout)
            for year in self._feature_years()
        }
        return by_year, space

    def _subgraph_by_year(self, conference: str) -> dict[int, np.ndarray]:
        by_year, _space = self._subgraph_with_space(conference)
        return by_year

    def _embedding_by_year(self, conference: str, method: str) -> dict[int, np.ndarray]:
        out = {}
        for year in self._feature_years():
            graph = self._graph(conference, year - 1)
            roots = [graph.index(inst) for inst in self.mag.institutions]
            out[year] = embedding_matrix(
                graph,
                roots,
                method,
                self.config.embedding_params,
                seed=self.config.seed,
                ctx=self._stage_ctx,
            )
        return out

    def _cached_family(self, conference: str, family: str, build):
        key = (conference, family)
        if key not in self._families:
            self._families[key] = build(conference)
        return self._families[key]

    def feature_family(self, conference: str, family: str) -> dict[int, np.ndarray]:
        """Feature matrices keyed by sample year for one family.

        The classic and subgraph blocks are computed once per conference
        and shared: requesting ``combined`` after ``subgraph`` stacks the
        cached matrices instead of re-running the census over the same
        graphs.
        """
        if family == "classic":
            return self._cached_family(conference, family, self._classic_by_year)
        if family == "subgraph":
            return self._cached_family(conference, family, self._subgraph_by_year)
        if family == "combined":
            classic = self.feature_family(conference, "classic")
            subgraph = self.feature_family(conference, "subgraph")
            return {
                year: _hstack_blocks([classic[year], subgraph[year]])
                for year in self._feature_years()
            }
        if family in EMBEDDING_METHODS:
            return self._embedding_by_year(conference, family)
        raise ValueError(f"unknown feature family {family!r}")

    # ------------------------------------------------------------------
    # Regressors of Section 4.2.3
    # ------------------------------------------------------------------
    def _fit_predict(
        self,
        regressor: str,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
    ) -> np.ndarray:
        cfg = self.config
        if regressor == "LinRegr":
            selector = SelectKBest(k=cfg.select_small)
            model = LinearRegression()
        elif regressor == "DecTree":
            selector = SelectKBest(k=cfg.select_small)
            model = DecisionTreeRegressor(random_state=cfg.seed)
        elif regressor == "RanForest":
            selector = None
            model = RandomForestRegressor(
                n_estimators=cfg.forest_trees,
                max_features=cfg.forest_max_features,
                random_state=cfg.seed,
                n_jobs=cfg.n_jobs,
            )
        elif regressor == "BayRidge":
            selector = SelectKBest(k=cfg.select_large)
            model = BayesianRidge()
        else:
            raise ValueError(f"unknown regressor {regressor!r}")

        if selector is not None:
            X_train = selector.fit_transform(X_train, y_train)
            X_test = selector.transform(X_test)
        if regressor in ("LinRegr", "BayRidge"):
            scaler = StandardScaler().fit(X_train)
            X_train = scaler.transform(X_train)
            X_test = scaler.transform(X_test)
        model.fit(X_train, y_train)
        return model.predict(X_test)

    def fit_forest_on_family(self, conference: str, family: str) -> tuple:
        """Train the random forest on one family and return it with its
        feature context — used by the Figure 4 importance analysis.

        Returns ``(model, space_or_None)`` where ``space`` is the subgraph
        :class:`FeatureSpace` when the family is ``"subgraph"``.
        """
        cfg = self.config
        space = None
        if family == "subgraph":
            by_year, space = self._subgraph_with_space(conference)
        else:
            by_year = self.feature_family(conference, family)
        X_train, y_train = self._stack_training(conference, by_year)
        model = RandomForestRegressor(
            n_estimators=cfg.forest_trees,
            max_features=cfg.forest_max_features,
            random_state=cfg.seed,
            n_jobs=cfg.n_jobs,
        )
        model.fit(X_train, y_train)
        return model, space

    # ------------------------------------------------------------------
    def _targets(self, conference: str, year: int) -> np.ndarray:
        relevance = self.mag.relevance(conference, year)
        return np.array([relevance[inst] for inst in self.mag.institutions])

    def _stack_training(self, conference: str, by_year) -> tuple[np.ndarray, np.ndarray]:
        blocks = [by_year[year] for year in self.config.train_years]
        if any(isinstance(block, CSRMatrix) for block in blocks):
            X = CSRMatrix.vstack(
                [
                    b if isinstance(b, CSRMatrix) else CSRMatrix.from_dense(b)
                    for b in blocks
                ]
            )
        else:
            X = np.vstack(blocks)
        y = np.concatenate(
            [self._targets(conference, year) for year in self.config.train_years]
        )
        return X, y

    def _run_cell(
        self, conference: str, family: str, regressors
    ) -> tuple[dict[tuple[str, str, str], float], dict[str, float]]:
        """One (conference, family) grid cell: features, fits, NDCG."""
        cfg = self.config
        telemetry = get_telemetry()
        ndcg: dict[tuple[str, str, str], float] = {}
        timings: dict[str, float] = {}
        with telemetry.span("experiment/cell"):
            with telemetry.span("phase/rank_" + family):
                with telemetry.span(f"rank/features/{family}") as span:
                    by_year = self.feature_family(conference, family)
                timings[f"features/{family}/{conference}"] = span.elapsed
                X_train, y_train = self._stack_training(conference, by_year)
                X_test = by_year[cfg.test_year]
                y_test = self._targets(conference, cfg.test_year)
                for regressor in regressors:
                    with telemetry.span(f"rank/fit/{regressor}"):
                        predictions = self._fit_predict(
                            regressor, X_train, y_train, X_test
                        )
                    ndcg[(regressor, family, conference)] = ndcg_at(
                        y_test, predictions, n=cfg.ndcg_n
                    )
        return ndcg, timings

    def run(
        self,
        families=FEATURE_FAMILIES,
        regressors=REGRESSOR_NAMES,
    ) -> RankPredictionResult:
        """Run the full grid and collect NDCG\\@n per cell.

        With ``config.n_jobs > 1`` and several conferences, the
        (conference, family) cells fan out over a process pool — one chunk
        per conference so the per-conference feature reuse keeps working
        inside each worker — and results come back in the sequential
        grid order.  Cell scores are independent of the fan-out (each cell
        seeds its own models), so any worker count matches ``n_jobs=1``.
        """
        cfg = self.config
        conferences = tuple(cfg.conferences or self.mag.config.conferences)
        n_jobs = resolve_n_jobs(cfg.n_jobs)
        tasks = [(conference, families, regressors) for conference in conferences]
        setup, shared = None, self
        if min(n_jobs, len(tasks)) > 1:
            if self.ctx.store is not None:
                logger.warning(
                    "parallel rank grid: workers neither read nor write "
                    "the artifact store"
                )
            # The grid consumes the workers; cells run forests
            # sequentially (no nested pools).  Each worker builds its own
            # experiment, without the store.
            setup = RankPredictionExperiment
            shared = (self.mag, replace(cfg, n_jobs=1, conferences=None))
        ndcg: dict[tuple[str, str, str], float] = {}
        timings: dict[str, float] = {}
        for task_ndcg, task_timings in run_tasks(
            _run_conference, tasks, n_jobs=n_jobs, setup=setup, shared=shared
        ):
            ndcg.update(task_ndcg)
            timings.update(task_timings)
        return RankPredictionResult(cfg, ndcg, timings)
