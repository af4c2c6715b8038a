"""DeepWalk baseline (Perozzi et al. 2014).

Truncated uniform random walks fed to the skip-gram trainer.  Paper
defaults: dimension ``d = 128``, walks per node ``r = 10``, walk length
``l = 80``, context size ``k = 10``, ``K = 5`` negative samples.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.skipgram import SkipGramTrainer
from repro.embeddings.walks import uniform_random_walks
from repro.runtime.context import RunContext


class DeepWalk:
    """DeepWalk node embeddings.

    Parameters mirror the paper's defaults (Section 4.2.2); ``epochs`` and
    ``batch_size`` belong to the SGNS optimiser, not the original method.
    ``ctx`` supplies ``n_jobs``, which shards walk epochs over worker
    processes (results are identical for any worker count), and the
    artifact store for walk-corpus caching.
    """

    def __init__(
        self,
        dim: int = 128,
        num_walks: int = 10,
        walk_length: int = 80,
        window: int = 10,
        negative: int = 5,
        epochs: int = 1,
        seed: int | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        self.dim = dim
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.negative = negative
        self.epochs = epochs
        self.seed = seed
        self.ctx = ctx
        self.embedding_: np.ndarray | None = None

    def fit(self, graph: HeteroGraph) -> "DeepWalk":
        """Learn embeddings for every node of ``graph``."""
        # An int seed (rather than a pre-built Generator) keeps the walk
        # corpus content-addressable; _epoch_rngs spawns the identical
        # child streams either way.
        rng = self.seed if self.seed is not None else np.random.default_rng()
        walks = uniform_random_walks(
            graph,
            self.num_walks,
            self.walk_length,
            rng=rng,
            ctx=self.ctx,
        )
        trainer = SkipGramTrainer(
            dim=self.dim,
            window=self.window,
            negative=self.negative,
            epochs=self.epochs,
            seed=None if self.seed is None else self.seed + 1,
        )
        self.embedding_ = trainer.fit(walks, graph.num_nodes)
        return self

    def transform(self, nodes) -> np.ndarray:
        """Embedding rows for the given node indices."""
        if self.embedding_ is None:
            raise RuntimeError("call fit() before transform()")
        return self.embedding_[np.asarray(nodes, dtype=np.int64)]

    def fit_transform(self, graph: HeteroGraph, nodes) -> np.ndarray:
        return self.fit(graph).transform(nodes)
