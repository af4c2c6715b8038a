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
orders (workers receive them pickled rather than rebuilding).  A batch of
edge samples is a batch of (vertex, context) pairs of the SGNS objective,
so each order draws its edges and its shared negative pool and calls
:func:`~repro.embeddings.skipgram.sgd_step`, the one update
:class:`~repro.embeddings.skipgram.SkipGramTrainer` uses; the first order
passes its vertex matrix as its own context.  The exact per-edge
formulation is kept as the parity oracle in ``tests/oracles/line.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.alias import AliasTable
from repro.embeddings.skipgram import negative_pool_size, sgd_step
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext
from repro.runtime.executor import run_tasks


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
    pool = negative_pool_size(negative, noise)

    steps = max(1, samples // batch_size)
    started = time.perf_counter()
    for step in range(steps):
        lr = learning_rate * max(1.0 - step / steps, 1e-4)
        batch_edges = directed[edge_table.sample(rng, batch_size)]
        negatives = noise.sample(rng, pool)
        sgd_step(
            vertex, context, batch_edges[:, 0], batch_edges[:, 1], negatives, negative, lr
        )
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

        first_rng, second_rng = rng.spawn(2)
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
