"""Feature-extraction runtime measurement (Section 4.3.5, Table 3).

Times the per-node subgraph census (mean plus 75/90/95th percentiles and
max — the paper reports exactly these, because the census runtime follows
the skewed degree distribution) against the per-node cost of the three
embedding baselines (total training time divided by node count, since
embeddings are trained globally rather than per node).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.census import CensusConfig
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.experiments.common import (
    EMBEDDING_METHODS,
    EmbeddingParams,
    embedding_matrix,
    percentile_degree,
)
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import ENGINE_FAST, RunContext


@dataclass
class RuntimeReport:
    """Per-dataset timing summary, mirroring Table 3's columns.

    ``engine`` (the census engine) and ``embedding_n_jobs`` record how
    the row was produced, so Table 3 reproductions are traceable to a
    specific run configuration.
    """

    dataset: str
    census_mean: float
    census_p75: float
    census_p90: float
    census_p95: float
    census_max: float
    embedding_mean: dict[str, float]
    num_nodes_timed: int
    engine: str = "fast"
    embedding_n_jobs: int = 1

    def row(self) -> str:
        cells = [
            f"{self.dataset:<8}",
            f"{self.census_mean:9.4f}",
            f"{self.census_p75:9.4f}",
            f"{self.census_p90:9.4f}",
            f"{self.census_p95:9.4f}",
            f"{self.census_max:9.4f}",
        ]
        for method in EMBEDDING_METHODS:
            # Partial or failed runs legitimately lack methods; a missing
            # column must not crash the whole Table 3 report.
            mean = self.embedding_mean.get(method)
            cells.append(f"{mean:9.5f}" if mean is not None else f"{'n/a':>9}")
        cells.append(
            f"[engine={self.engine}, n_jobs={self.embedding_n_jobs}]"
        )
        return " ".join(cells)


def time_census_per_node(
    graph: HeteroGraph,
    nodes,
    emax: int = 3,
    dmax_percentile: float = 90.0,
    mask_start_label: bool = True,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Wall-clock seconds of the rooted census for each node.

    The context's ``engine`` selects the census engine (``fast`` by
    default, or ``sampled``).  When ``ctx`` carries an artifact store,
    stored roots are served (and counted as hits) — their rows then time
    the lookup, i.e. the *memoised* runtime — and fresh censuses are
    written back.  Per-root timing also lands in the
    ``census/root_timed`` telemetry timer.
    """
    dmax = percentile_degree(graph, dmax_percentile)
    config = CensusConfig(
        max_edges=emax, max_degree=dmax, mask_start_label=mask_start_label
    )
    # One root per call through the extractor: the store lookup (sampled
    # estimates keyed apart from exact counts) is the extractor's own.
    ctx = ctx if ctx is not None else RunContext()
    extractor = SubgraphFeatureExtractor(
        config, ctx=RunContext(engine=ctx.engine, store=ctx.store)
    )
    telemetry = get_telemetry()
    telemetry.annotate("census/engine", extractor.engine)
    times = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        started = time.perf_counter()
        extractor.census_many(graph, [int(node)])
        times[i] = time.perf_counter() - started
        telemetry.timer("census/root_timed", times[i])
    return times


def time_embeddings_per_node(
    graph: HeteroGraph,
    params: EmbeddingParams,
    seed: int = 0,
    ctx: RunContext | None = None,
) -> dict[str, float]:
    """Total embedding training time divided by node count, per method.

    The context's ``n_jobs`` sets the worker processes being timed; the
    report row records it so runs stay comparable.  When ``ctx`` carries
    an artifact store, warm reruns time the memoised lookup (same caveat
    as the census timing).
    """
    telemetry = get_telemetry()
    per_node = {}
    probe = [0]
    for method in EMBEDDING_METHODS:
        with telemetry.span(f"phase/embed_{method}") as span:
            embedding_matrix(
                graph,
                probe,
                method,
                params,
                seed=seed,
                ctx=ctx,
            )
        per_node[method] = span.elapsed / graph.num_nodes
    return per_node


def runtime_report(
    dataset: str,
    graph: HeteroGraph,
    nodes,
    emax: int = 3,
    dmax_percentile: float = 90.0,
    embedding_params: EmbeddingParams | None = None,
    seed: int = 0,
    ctx: RunContext | None = None,
) -> RuntimeReport:
    """Build one Table 3 row for a dataset.

    The context's ``engine`` selects the census engine and its
    ``n_jobs`` the embedding worker processes; both are recorded.  The
    census and embedding phases land in the ``phase/*`` telemetry timers
    the run manifest reports.  A context store memoises both the
    censuses and the embeddings.
    """
    ctx = ctx if ctx is not None else RunContext()
    telemetry = get_telemetry()
    with telemetry.span("phase/census"):
        times = time_census_per_node(graph, nodes, emax, dmax_percentile, ctx=ctx)
    params = embedding_params if embedding_params is not None else EmbeddingParams.fast()
    with telemetry.span("phase/embeddings"):
        embedding_mean = time_embeddings_per_node(graph, params, seed=seed, ctx=ctx)
    return RuntimeReport(
        dataset=dataset,
        census_mean=float(times.mean()),
        census_p75=float(np.percentile(times, 75)),
        census_p90=float(np.percentile(times, 90)),
        census_p95=float(np.percentile(times, 95)),
        census_max=float(times.max()),
        embedding_mean=embedding_mean,
        num_nodes_timed=len(nodes),
        engine=ctx.engine or ENGINE_FAST,
        embedding_n_jobs=ctx.resolved_n_jobs(default=1),
    )
