"""Reference random walks: the behavioural oracle for ``repro.embeddings.walks``.

The per-epoch walkers advance one node and one step at a time in plain
Python — the straightforward transcription of DeepWalk's uniform walk and
node2vec's second-order walk.  The corpus functions below reproduce the
library's corpus layout and seeding exactly (one child generator per
epoch spawned by ``_epoch_rngs``, then a fresh start-order permutation
per epoch), so
an oracle corpus has the library's shape, padding and epoch structure and
samples the same distribution; the library's batched walkers consume the
streams differently, so the two agree in distribution, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings.walks import _epoch_rngs


def _uniform_epoch_reference(
    graph: HeteroGraph, order: np.ndarray, walk_length: int, rng: np.random.Generator
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    for row, start in enumerate(order):
        current = int(start)
        walks[row, 0] = current
        for step in range(1, walk_length):
            neighbours = graph.neighbors(current)
            if len(neighbours) == 0:
                break
            current = int(neighbours[rng.integers(0, len(neighbours))])
            walks[row, step] = current
    return walks


def _node2vec_epoch_reference(
    graph: HeteroGraph,
    order: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    neighbour_sets = [
        set(int(x) for x in graph.neighbors(v)) for v in range(graph.num_nodes)
    ]
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    for row, start in enumerate(order):
        current = int(start)
        walks[row, 0] = current
        previous = -1
        for step in range(1, walk_length):
            neighbours = graph.neighbors(current)
            if len(neighbours) == 0:
                break
            if previous == -1:
                nxt = int(neighbours[rng.integers(0, len(neighbours))])
            else:
                weights = np.empty(len(neighbours))
                prev_neighbours = neighbour_sets[previous]
                for i, candidate in enumerate(neighbours):
                    candidate = int(candidate)
                    if candidate == previous:
                        weights[i] = 1.0 / p
                    elif candidate in prev_neighbours:
                        weights[i] = 1.0
                    else:
                        weights[i] = 1.0 / q
                weights /= weights.sum()
                nxt = int(neighbours[rng.choice(len(neighbours), p=weights)])
            walks[row, step] = nxt
            previous, current = current, nxt
    return walks


def _reference_corpus(graph, num_walks, walk_length, p, q, rng, nodes) -> np.ndarray:
    if num_walks < 1 or walk_length < 1:
        raise ValueError("num_walks and walk_length must be >= 1")
    starts = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if nodes is None
        else np.asarray(nodes, dtype=np.int64)
    )
    rngs = _epoch_rngs(rng, num_walks)
    if starts.shape[0] == 0:
        return np.full((0, walk_length), -1, dtype=np.int64)
    blocks = []
    for epoch_rng in rngs:
        order = epoch_rng.permutation(starts)
        if p == 1.0 and q == 1.0:
            block = _uniform_epoch_reference(graph, order, walk_length, epoch_rng)
        else:
            block = _node2vec_epoch_reference(graph, order, walk_length, p, q, epoch_rng)
        blocks.append(block)
    return np.concatenate(blocks)


def reference_uniform_walks(
    graph: HeteroGraph, num_walks: int = 10, walk_length: int = 80, rng=None, nodes=None
) -> np.ndarray:
    """Oracle for ``uniform_random_walks`` (same arguments, same layout)."""
    return _reference_corpus(graph, num_walks, walk_length, 1.0, 1.0, rng, nodes)


def reference_node2vec_walks(
    graph: HeteroGraph,
    num_walks: int = 10,
    walk_length: int = 80,
    p: float = 1.0,
    q: float = 1.0,
    rng=None,
    nodes=None,
) -> np.ndarray:
    """Oracle for ``node2vec_walks``; ``p = q = 1`` is the uniform walk."""
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    return _reference_corpus(graph, num_walks, walk_length, p, q, rng, nodes)
