"""Reference DeepWalk and node2vec: oracle walks fed to the oracle trainer.

Both subclasses keep the library models' parameters and ``transform``;
only ``fit`` swaps in :mod:`tests.oracles.walks` and
:class:`tests.oracles.sgns.ReferenceSkipGramTrainer`, seeded exactly as
the library seeds its own walk and trainer streams.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings import DeepWalk, Node2Vec
from tests.oracles.sgns import ReferenceSkipGramTrainer
from tests.oracles.walks import reference_node2vec_walks, reference_uniform_walks


def _train(model, walks, num_nodes: int) -> np.ndarray:
    return ReferenceSkipGramTrainer(
        dim=model.dim,
        window=model.window,
        negative=model.negative,
        epochs=model.epochs,
        seed=None if model.seed is None else model.seed + 1,
    ).fit(walks, num_nodes)


def _walk_rng(model):
    return model.seed if model.seed is not None else np.random.default_rng()


class ReferenceDeepWalk(DeepWalk):
    def fit(self, graph: HeteroGraph) -> "ReferenceDeepWalk":
        walks = reference_uniform_walks(
            graph, self.num_walks, self.walk_length, rng=_walk_rng(self)
        )
        self.embedding_ = _train(self, walks, graph.num_nodes)
        return self


class ReferenceNode2Vec(Node2Vec):
    def fit(self, graph: HeteroGraph) -> "ReferenceNode2Vec":
        walks = reference_node2vec_walks(
            graph, self.num_walks, self.walk_length, p=self.p, q=self.q,
            rng=_walk_rng(self),
        )
        self.embedding_ = _train(self, walks, graph.num_nodes)
        return self
