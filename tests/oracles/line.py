"""The reference LINE trainer: the parity oracle for ``repro.embeddings.LINE``.

Each edge sample draws its own ``K`` negatives and the vectors stay in
float64 — the exact per-edge formulation of Tang et al.  The library
shares one rescaled negative pool per batch and trains in float32, so the
two agree in behaviour, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.alias import AliasTable
from repro.embeddings.line import LINE
from repro.embeddings.skipgram import _GRAD_CLIP


def train_order(shared: tuple, order: tuple) -> np.ndarray:
    """One LINE order with per-edge negatives; arguments as the library's."""
    (
        directed, edge_table, noise, num_nodes, samples, negative,
        learning_rate, batch_size,
    ) = shared
    dim, rng, second_order = order
    scale = 0.5 / dim
    vertex = rng.uniform(-scale, scale, size=(num_nodes, dim))
    context = np.zeros((num_nodes, dim), dtype=vertex.dtype) if second_order else vertex

    steps = max(1, samples // batch_size)
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

        negatives = noise.sample(rng, batch_size * negative).reshape(
            batch_size, negative
        )
        neg_vecs = context[negatives]
        neg_scores = 1.0 / (
            1.0
            + np.exp(
                -np.clip(np.einsum("bd,bkd->bk", source_vecs, neg_vecs), -30, 30)
            )
        )
        neg_coeff = neg_scores[:, :, None]
        grad_source += np.sum(neg_coeff * neg_vecs, axis=1)
        grad_negative = neg_coeff * source_vecs[:, None, :]
        np.clip(grad_source, -_GRAD_CLIP, _GRAD_CLIP, out=grad_source)
        np.clip(grad_target, -_GRAD_CLIP, _GRAD_CLIP, out=grad_target)
        np.clip(grad_negative, -_GRAD_CLIP, _GRAD_CLIP, out=grad_negative)
        np.add.at(vertex, sources, -lr * grad_source)
        np.add.at(context, targets, -lr * grad_target)
        np.add.at(context, negatives.ravel(), -lr * grad_negative.reshape(-1, dim))
    return vertex


class ReferenceLINE(LINE):
    """``LINE`` with the per-edge reference update, orders run in turn."""

    def fit(self, graph: HeteroGraph) -> "ReferenceLINE":
        rng = np.random.default_rng(self.seed)
        edges = np.asarray(list(graph.edges()), dtype=np.int64)
        if edges.shape[0] == 0:
            raise ValueError("LINE needs at least one edge")
        directed = np.vstack([edges, edges[:, ::-1]])
        edge_table = AliasTable(np.ones(directed.shape[0]))
        degrees = graph.degrees().astype(np.float64)
        noise = AliasTable(np.maximum(degrees, 1e-12) ** 0.75)

        half = self.dim // 2
        samples = self.num_samples
        if samples is None:
            samples = max(200 * graph.num_edges, self.batch_size)
        shared = (
            directed, edge_table, noise, graph.num_nodes, samples,
            self.negative, self.learning_rate, self.batch_size,
        )
        first_rng, second_rng = rng.spawn(2)
        first = train_order(shared, (half, first_rng, False))
        second = train_order(shared, (self.dim - half, second_rng, True))
        self.embedding_ = np.hstack([first, second])
        return self
