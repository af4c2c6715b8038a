"""node2vec baseline (Grover & Leskovec 2016).

Second-order biased random walks (return parameter ``p``, in-out parameter
``q``) fed to the skip-gram trainer.  With the paper's default ``p = q = 1``
the walks are uniform, so node2vec and DeepWalk differ here only in their
random streams — exactly the regime of Section 4.2.2.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.skipgram import SkipGramTrainer
from repro.embeddings.walks import node2vec_walks
from repro.runtime.context import RunContext


class Node2Vec:
    """node2vec node embeddings with paper-default parameters.

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
        p: float = 1.0,
        q: float = 1.0,
        epochs: int = 1,
        seed: int | None = None,
        ctx: RunContext | None = None,
    ) -> None:
        self.dim = dim
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.negative = negative
        self.p = p
        self.q = q
        self.epochs = epochs
        self.seed = seed
        self.ctx = ctx
        self.embedding_: np.ndarray | None = None

    def fit(self, graph: HeteroGraph) -> "Node2Vec":
        """Learn embeddings for every node of ``graph``."""
        # An int seed keeps the corpus content-addressable (see DeepWalk).
        rng = self.seed if self.seed is not None else np.random.default_rng()
        walks = node2vec_walks(
            graph,
            self.num_walks,
            self.walk_length,
            p=self.p,
            q=self.q,
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
