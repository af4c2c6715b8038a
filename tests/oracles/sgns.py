"""The reference skip-gram trainer: the parity oracle for ``SkipGramTrainer``.

The exact per-pair SGNS formulation: pairs come from a per-walk
extraction loop, every pair draws its own ``K`` negatives, gradients
scatter through ``np.add.at``, and the vectors stay in float64.  The
library trainer shares one rescaled negative pool per mini-batch and
trains in float32, so the two agree in behaviour (community structure,
co-occurrence similarity, determinism), not bit for bit;
``tests/test_embeddings_models.py`` checks both, and
``benchmarks/test_perf_embeddings.py`` times the library against this.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.alias import AliasTable
from repro.embeddings.skipgram import _GRAD_CLIP, SkipGramTrainer
from repro.embeddings.walks import walk_node_frequencies


def pairs_per_walk(walks, window: int, rng: np.random.Generator) -> np.ndarray:
    """The original per-walk (centre, context) extraction loop.

    On a pad-free corpus it consumes ``rng`` like the library's
    vectorised extraction, so the two pair multisets coincide.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    centres: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for walk in walks:
        walk = walk[walk >= 0] if isinstance(walk, np.ndarray) else walk
        length = walk.shape[0]
        if length < 2:
            continue
        effective = rng.integers(1, window + 1, size=length)
        for offset in range(1, window + 1):
            # Pairs (i, i + offset) in both directions where offset allowed.
            valid = np.arange(0, length - offset)
            keep_forward = valid[effective[valid] >= offset]
            if keep_forward.size:
                centres.append(walk[keep_forward])
                contexts.append(walk[keep_forward + offset])
            keep_backward = valid[effective[valid + offset] >= offset]
            if keep_backward.size:
                centres.append(walk[keep_backward + offset])
                contexts.append(walk[keep_backward])
    if not centres:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([np.concatenate(centres), np.concatenate(contexts)])


def sgd_step(
    negative: int,
    batch: np.ndarray,
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    noise: AliasTable,
    rng: np.random.Generator,
    lr: float,
) -> None:
    """One mini-batch update with ``negative`` negatives drawn per pair."""
    centres = batch[:, 0]
    positives = batch[:, 1]
    b = centres.shape[0]
    dim = input_vectors.shape[1]
    negatives = noise.sample(rng, b * negative).reshape(b, negative)

    centre_vecs = input_vectors[centres]  # (b, d)
    # Positive pass: label 1.
    pos_vecs = output_vectors[positives]
    pos_scores = 1.0 / (1.0 + np.exp(-np.clip(np.sum(centre_vecs * pos_vecs, axis=1), -30, 30)))
    pos_coeff = (pos_scores - 1.0)[:, None]  # gradient factor
    grad_centre = pos_coeff * pos_vecs
    grad_pos = pos_coeff * centre_vecs
    # Negative pass: label 0.
    neg_vecs = output_vectors[negatives]  # (b, K, d)
    neg_scores = 1.0 / (
        1.0 + np.exp(-np.clip(np.einsum("bd,bkd->bk", centre_vecs, neg_vecs), -30, 30))
    )
    neg_coeff = neg_scores[:, :, None]
    grad_centre += np.sum(neg_coeff * neg_vecs, axis=1)
    grad_neg = neg_coeff * centre_vecs[:, None, :]

    np.clip(grad_centre, -_GRAD_CLIP, _GRAD_CLIP, out=grad_centre)
    np.clip(grad_pos, -_GRAD_CLIP, _GRAD_CLIP, out=grad_pos)
    np.clip(grad_neg, -_GRAD_CLIP, _GRAD_CLIP, out=grad_neg)
    np.add.at(input_vectors, centres, -lr * grad_centre)
    np.add.at(output_vectors, positives, -lr * grad_pos)
    np.add.at(
        output_vectors,
        negatives.ravel(),
        -lr * grad_neg.reshape(-1, dim),
    )


class ReferenceSkipGramTrainer(SkipGramTrainer):
    """``SkipGramTrainer`` with the per-pair reference update."""

    def fit(self, walks, num_nodes: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        pairs = pairs_per_walk(walks, self.window, rng)
        if pairs.shape[0] == 0:
            raise ValueError("walk corpus produced no training pairs")
        frequencies = walk_node_frequencies(walks, num_nodes)
        noise = AliasTable(np.maximum(frequencies, 1e-12) ** 0.75)

        scale = 0.5 / self.dim
        input_vectors = rng.uniform(-scale, scale, size=(num_nodes, self.dim))
        output_vectors = np.zeros((num_nodes, self.dim))
        total_steps = self.epochs * ((pairs.shape[0] + self.batch_size - 1) // self.batch_size)
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(pairs.shape[0])
            for start in range(0, pairs.shape[0], self.batch_size):
                batch = pairs[order[start: start + self.batch_size]]
                lr = self.learning_rate * max(1.0 - step / max(total_steps, 1), 1e-4)
                sgd_step(
                    self.negative, batch, input_vectors, output_vectors, noise, rng, lr
                )
                step += 1
        return input_vectors
