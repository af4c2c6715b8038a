"""Skip-gram with negative sampling (SGNS) over random-walk corpora.

DeepWalk and node2vec both reduce node embedding to word2vec on walk
"sentences" (Mikolov et al. 2013).  This trainer implements the SGNS
objective with:

* (centre, context) pairs from a symmetric window of size ``window``
  (context size ``k = 10`` in the paper's defaults),
* ``K`` negative samples per pair drawn from the unigram^(3/4) node
  distribution of the corpus,
* mini-batched vectorised SGD with a linearly decaying learning rate.

DeepWalk's original hierarchical softmax is replaced by negative sampling,
the standard practical choice (gensim does the same by default); this does
not change the baseline's character as a label-blind structural embedding.

Shared negative pool
--------------------
The trainer shares one pool of negatives across the whole mini-batch —
the formulation of TensorFlow's word2vec — which turns the negative pass
into two small GEMMs and shrinks the scatter from ``batch * K`` rows to
``pool`` rows.  The pool is larger than ``K`` and the negative gradient
is rescaled by ``K / pool``, so the expected gradient matches the
per-pair objective with lower per-sample variance.  One noise
:class:`AliasTable` is built per fit and reused across all epochs.  The
exact per-pair formulation (``K`` negatives per pair, scattered through
``np.add.at``) is kept as the parity oracle in ``tests/oracles/sgns.py``.

:func:`sgd_step` is the one update: LINE's edge samples are pairs of the
same objective, so :mod:`repro.embeddings.line` calls it too.  Callers
draw every random number.  Its row scatters take numpy's 1-D
``ufunc.at`` fast path (:func:`_scatter_rows`), bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.alias import AliasTable
from repro.embeddings.walks import corpus_matrix, walk_node_frequencies
from repro.obs.telemetry import get_telemetry

#: Elementwise gradient bound, far above any healthy gradient magnitude.
#: It turns the geometric blow-up that occurs when a batch piles many
#: stale-value updates on the same row (tiny graphs with large batches,
#: overflowing float32) into bounded linear growth, without touching
#: normal training dynamics.
_GRAD_CLIP = 1000.0


def negative_pool_size(negative: int, noise: AliasTable) -> int:
    """Shared negatives per batch: diverse even for small ``negative``, but
    never more than the support of the noise distribution."""
    return min(max(8 * negative, 64), noise.size)


def _scatter_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, rows, values)`` through the 1-D ``ufunc.at`` path.

    Row ``rows[i]`` of ``table`` gains ``values[i]``, duplicates
    accumulating.  The flat index is row-major, so every element receives
    its additions in ascending batch position, exactly as the 2-D form
    adds them, with the same rounding: the result is bit-identical.
    ``table`` must be C-contiguous, so that ``reshape(-1)`` is a view and
    not a silent copy that would drop the update.
    """
    d = table.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(table.reshape(-1), flat, values.reshape(-1))


def sgd_step(
    inputs: np.ndarray,
    outputs: np.ndarray,
    centres: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    negative: int,
    lr: float,
) -> None:
    """One shared-pool negative-sampling SGD step, in place.

    Pairs ``(centres[i], contexts[i])`` pull ``inputs[centre]`` towards
    ``outputs[context]``; every pair pushes away from the whole pool
    ``outputs[negatives]``, rescaled by ``negative / pool`` so the
    expected gradient equals ``negative`` negatives per pair.  ``outputs``
    may be ``inputs`` itself (LINE's first order): every row is gathered
    before the first scatter, and the scatters run centres, contexts,
    negatives.
    """
    centre_vecs = inputs[centres]  # (b, d)
    context_vecs = outputs[contexts]
    pos_scores = 1.0 / (
        1.0 + np.exp(-np.clip(np.sum(centre_vecs * context_vecs, axis=1), -30, 30))
    )
    pos_coeff = (pos_scores - 1.0)[:, None]
    grad_centre = pos_coeff * context_vecs
    grad_context = pos_coeff * centre_vecs

    # Shared negative pass: score every pair against one pool via GEMM.
    neg_vecs = outputs[negatives]  # (pool, d)
    neg_scores = 1.0 / (
        1.0 + np.exp(-np.clip(centre_vecs @ neg_vecs.T, -30, 30))
    )  # (b, pool)
    rescale = negative / negatives.shape[0]
    grad_centre += rescale * (neg_scores @ neg_vecs)
    grad_negs = rescale * (neg_scores.T @ centre_vecs)  # (pool, d)

    np.clip(grad_centre, -_GRAD_CLIP, _GRAD_CLIP, out=grad_centre)
    np.clip(grad_context, -_GRAD_CLIP, _GRAD_CLIP, out=grad_context)
    np.clip(grad_negs, -_GRAD_CLIP, _GRAD_CLIP, out=grad_negs)
    _scatter_rows(inputs, centres, -lr * grad_centre)
    _scatter_rows(outputs, contexts, -lr * grad_context)
    _scatter_rows(outputs, negatives, -lr * grad_negs)


def _pairs_from_matrix(
    walks: np.ndarray, window: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorised pair extraction from a padded corpus matrix.

    Streams every offset's pairs straight into one preallocated
    ``(total, 2)`` buffer — no per-walk Python loop, no list appends.
    """
    num_walks, length = walks.shape
    if num_walks == 0 or length < 2:
        return np.empty((0, 2), dtype=np.int64)
    valid = walks >= 0
    # word2vec samples an effective window in 1..window per centre, which
    # downweights distant contexts; one draw covers every position.
    effective = rng.integers(1, window + 1, size=(num_walks, length))
    masks: list[tuple[int, np.ndarray, np.ndarray]] = []
    total = 0
    for offset in range(1, min(window, length - 1) + 1):
        both = valid[:, offset:]  # pads are suffix-only: left end valid too
        forward = both & (effective[:, : length - offset] >= offset)
        backward = both & (effective[:, offset:] >= offset)
        masks.append((offset, forward, backward))
        total += int(forward.sum()) + int(backward.sum())
    pairs = np.empty((total, 2), dtype=np.int64)
    cursor = 0
    for offset, forward, backward in masks:
        left = walks[:, : length - offset]
        right = walks[:, offset:]
        n = int(forward.sum())
        pairs[cursor: cursor + n, 0] = left[forward]
        pairs[cursor: cursor + n, 1] = right[forward]
        cursor += n
        n = int(backward.sum())
        pairs[cursor: cursor + n, 0] = right[backward]
        pairs[cursor: cursor + n, 1] = left[backward]
        cursor += n
    return pairs


def walks_to_pairs(walks, window: int, rng: np.random.Generator) -> np.ndarray:
    """Extract (centre, context) pairs with per-position window shrinking.

    Accepts the padded corpus matrix of
    :func:`~repro.embeddings.walks.uniform_random_walks` (consumed without
    row copies) or a list of per-walk arrays (padded into a matrix first).
    Returns an ``(num_pairs, 2)`` integer array.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return _pairs_from_matrix(corpus_matrix(walks), window, rng)


class SkipGramTrainer:
    """SGNS trainer producing node embeddings from a walk corpus.

    Parameters
    ----------
    dim:
        Embedding dimension (paper default 128).
    window:
        Context window ``k`` (paper default 10).
    negative:
        Negative samples per pair ``K`` (paper default 5).
    epochs:
        Passes over the pair set.
    learning_rate:
        Initial SGD step, decayed linearly to 1e-4 of itself.
    batch_size:
        Pairs per vectorised update.
    """

    def __init__(
        self,
        dim: int = 128,
        window: int = 10,
        negative: int = 5,
        epochs: int = 1,
        learning_rate: float = 0.025,
        batch_size: int = 2048,
        seed: int | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if negative < 1:
            raise ValueError(f"negative must be >= 1, got {negative}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.dim = dim
        self.window = window
        self.negative = negative
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, walks, num_nodes: int) -> np.ndarray:
        """Train and return the input-embedding matrix ``(num_nodes, dim)``."""
        telemetry = get_telemetry()
        rng = np.random.default_rng(self.seed)
        walks = corpus_matrix(walks)
        with telemetry.span("sgns/pairs_extract"):
            pairs = walks_to_pairs(walks, self.window, rng)
        telemetry.count("sgns/pairs", pairs.shape[0])
        if pairs.shape[0] == 0:
            raise ValueError("walk corpus produced no training pairs")
        frequencies = walk_node_frequencies(walks, num_nodes)
        # Built once, reused by every batch of every epoch.
        noise = AliasTable(np.maximum(frequencies, 1e-12) ** 0.75)

        scale = 0.5 / self.dim
        # Single precision halves the GEMM and scatter bandwidth; SGNS
        # tolerates it (word2vec itself trains in float32).  The init is
        # drawn in float64 first so its stream matches the oracle's.
        input_vectors = rng.uniform(-scale, scale, size=(num_nodes, self.dim)).astype(
            np.float32
        )
        output_vectors = np.zeros((num_nodes, self.dim), dtype=np.float32)

        pool = negative_pool_size(self.negative, noise)
        total_steps = self.epochs * ((pairs.shape[0] + self.batch_size - 1) // self.batch_size)
        step = 0
        for _ in range(self.epochs):
            with telemetry.span("sgns/epoch"):
                order = rng.permutation(pairs.shape[0])
                for start in range(0, pairs.shape[0], self.batch_size):
                    batch = pairs[order[start: start + self.batch_size]]
                    lr = self.learning_rate * max(
                        1.0 - step / max(total_steps, 1), 1e-4
                    )
                    negatives = noise.sample(rng, pool)
                    sgd_step(
                        input_vectors, output_vectors, batch[:, 0], batch[:, 1],
                        negatives, self.negative, lr,
                    )
                    step += 1
            telemetry.count("sgns/pairs_trained", pairs.shape[0])
        return input_vectors.astype(np.float64, copy=False)
