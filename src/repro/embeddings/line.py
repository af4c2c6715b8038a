"""LINE baseline (Tang et al. 2015).

LINE optimises two objectives by edge sampling with negative sampling:

* *first-order proximity*: directly connected nodes should have similar
  embeddings — ``sigma(u . v)`` maximised over observed edges;
* *second-order proximity*: nodes with similar neighbourhoods should be
  similar — each node gets an additional *context* vector and the model
  maximises ``sigma(u . c_v)`` for edges ``(u, v)``.

The final representation concatenates the two halves (``dim/2`` each), the
combination the original paper and Section 4.2.2 use.  Edges are drawn from
an alias table over edge weights (uniform here: the evaluation networks are
unweighted), negatives from the degree^(3/4) distribution.

The two orders are trained on independent child generators spawned from the
seed, so they can run sequentially (``n_jobs=1``) or as two worker
processes (``n_jobs >= 2``) with bit-identical results.  Both alias tables
are built once in :meth:`LINE.fit` and shared by every batch of both
orders (workers receive them pickled rather than rebuilding).  Each
batch shares one rescaled negative pool exactly like
:class:`~repro.embeddings.skipgram.SkipGramTrainer`; the exact per-edge
formulation is kept as the parity oracle in ``tests/oracles/line.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.alias import AliasTable
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext
from repro.runtime.executor import run_tasks

#: Elementwise gradient bound, far above any healthy gradient magnitude.
#: It turns the geometric blow-up that occurs when ``batch_size >>
#: num_nodes`` (many stale-value updates piling on the same row per step,
#: overflowing float32 and silently diverging float64) into bounded linear
#: growth, without touching normal training dynamics.
_GRAD_CLIP = 1000.0


def _spawn_children(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    try:
        return list(rng.spawn(n))
    except AttributeError:  # numpy < 1.25
        seeds = rng.integers(np.iinfo(np.int64).max, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]


def _train_order(shared: tuple, order: tuple) -> np.ndarray:
    """One LINE order: the LINE fan-out task.

    ``shared`` holds what both orders use (edges, alias tables and the
    SGD settings); ``order`` is ``(dim, rng, second_order)``.  Returns
    the trained vertex matrix.
    """
    (
        directed, edge_table, noise, num_nodes, samples, negative,
        learning_rate, batch_size,
    ) = shared
    dim, rng, second_order = order
    telemetry = get_telemetry()
    order_name = "second" if second_order else "first"
    scale = 0.5 / dim
    # Single precision halves the GEMM and scatter bandwidth; drawn in
    # float64 first so the init matches the oracle's stream.
    vertex = rng.uniform(-scale, scale, size=(num_nodes, dim)).astype(np.float32)
    context = np.zeros((num_nodes, dim), dtype=vertex.dtype) if second_order else vertex
    pool = min(max(8 * negative, 64), noise.size)

    steps = max(1, samples // batch_size)
    started = time.perf_counter()
    for step in range(steps):
        lr = learning_rate * max(1.0 - step / steps, 1e-4)
        batch_edges = directed[edge_table.sample(rng, batch_size)]
        sources = batch_edges[:, 0]
        targets = batch_edges[:, 1]

        source_vecs = vertex[sources]
        target_vecs = context[targets]
        pos_scores = 1.0 / (
            1.0 + np.exp(-np.clip(np.sum(source_vecs * target_vecs, axis=1), -30, 30))
        )
        pos_coeff = (pos_scores - 1.0)[:, None]
        grad_source = pos_coeff * target_vecs
        grad_target = pos_coeff * source_vecs

        # Shared negative pool: two GEMMs and a pool-sized scatter in
        # place of a (batch * K)-row gather/scatter.
        negatives = noise.sample(rng, pool)
        neg_vecs = context[negatives]  # (pool, d)
        neg_scores = 1.0 / (
            1.0 + np.exp(-np.clip(source_vecs @ neg_vecs.T, -30, 30))
        )
        rescale = negative / pool
        grad_source += rescale * (neg_scores @ neg_vecs)
        grad_negative = rescale * (neg_scores.T @ source_vecs)
        np.clip(grad_source, -_GRAD_CLIP, _GRAD_CLIP, out=grad_source)
        np.clip(grad_target, -_GRAD_CLIP, _GRAD_CLIP, out=grad_target)
        np.clip(grad_negative, -_GRAD_CLIP, _GRAD_CLIP, out=grad_negative)
        np.add.at(vertex, sources, -lr * grad_source)
        np.add.at(context, targets, -lr * grad_target)
        np.add.at(context, negatives, -lr * grad_negative)
    telemetry.timer(f"line/order_{order_name}", time.perf_counter() - started)
    telemetry.count("line/samples", steps * batch_size)
    return vertex.astype(np.float64, copy=False)


class LINE:
    """LINE embeddings with concatenated first- and second-order halves.

    Parameters
    ----------
    dim:
        Total dimension; each order gets ``dim // 2``.
    num_samples:
        Edge samples per order; ``None`` scales with the graph
        (``200 * num_edges``), bounded below by one batch.
    negative:
        Negative samples per edge (paper default ``K = 5``).
    learning_rate:
        Initial SGD step with linear decay.
    ctx:
        Optional :class:`~repro.runtime.context.RunContext`; its
        ``n_jobs >= 2`` trains the two orders in parallel worker
        processes.  The result is identical to ``n_jobs=1`` because each
        order owns an independent child generator.
    """

    def __init__(
        self,
        dim: int = 128,
        num_samples: int | None = None,
        negative: int = 5,
        learning_rate: float = 0.025,
        batch_size: int = 1024,
        seed: int | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        ctx = ctx if ctx is not None else RunContext()
        self.dim = dim
        self.num_samples = num_samples
        self.negative = negative
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self.n_jobs = ctx.resolved_n_jobs(default=1)
        self.embedding_: np.ndarray | None = None

    def fit(self, graph: HeteroGraph) -> "LINE":
        """Learn embeddings for every node of ``graph``."""
        rng = np.random.default_rng(self.seed)
        edges = np.asarray(list(graph.edges()), dtype=np.int64)
        if edges.shape[0] == 0:
            raise ValueError("LINE needs at least one edge")
        # Undirected edges are used in both directions.
        directed = np.vstack([edges, edges[:, ::-1]])
        edge_table = AliasTable(np.ones(directed.shape[0]))
        degrees = graph.degrees().astype(np.float64)
        noise = AliasTable(np.maximum(degrees, 1e-12) ** 0.75)

        half = self.dim // 2
        samples = self.num_samples
        if samples is None:
            samples = max(200 * graph.num_edges, self.batch_size)

        first_rng, second_rng = _spawn_children(rng, 2)
        first, second = run_tasks(
            _train_order,
            [(half, first_rng, False), (self.dim - half, second_rng, True)],
            n_jobs=self.n_jobs,
            shared=(
                directed, edge_table, noise, graph.num_nodes, samples,
                self.negative, self.learning_rate, self.batch_size,
            ),
        )
        self.embedding_ = np.hstack([first, second])
        return self

    def transform(self, nodes) -> np.ndarray:
        """Embedding rows for the given node indices."""
        if self.embedding_ is None:
            raise RuntimeError("call fit() before transform()")
        return self.embedding_[np.asarray(nodes, dtype=np.int64)]

    def fit_transform(self, graph: HeteroGraph, nodes) -> np.ndarray:
        return self.fit(graph).transform(nodes)
