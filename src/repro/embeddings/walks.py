"""Random-walk corpora for DeepWalk and node2vec.

DeepWalk samples truncated uniform random walks; node2vec generalises them
to second-order walks biased by a return parameter ``p`` and an in-out
parameter ``q`` (Grover & Leskovec 2016).  With the paper's defaults
``p = q = 1`` the second-order walk degenerates to the uniform walk, which
the implementation exploits as a fast path.

Walks operate on the integer node indices of :class:`~repro.core.graph.HeteroGraph`
and ignore labels entirely — the embeddings are the paper's label-blind
baselines.

Implementation
--------------
The walkers snapshot the adjacency into CSR arrays and advance *all*
walks of an epoch simultaneously per step with vectorised numpy indexing.
node2vec's ``p``/``q`` bias is applied by rejection sampling on the whole
batch, falling back to the exact per-node weighted draw only for rows
still rejected after a few rounds.  The straightforward per-node,
per-step transcription of both algorithms is kept as the behavioural
oracle in ``tests/oracles/walks.py``.

Corpus layout and seeding
-------------------------
A corpus is a single ``(num_walks * len(starts), walk_length)`` int64
matrix; walks that stop early (isolated start nodes) are padded with ``-1``.
Each of the ``num_walks`` epochs draws from its own child generator spawned
from the caller's seed, so the corpus is bit-identical for any ``n_jobs``
worker count — epochs are the sharding unit of the optional multiprocess
generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import HeteroGraph
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext
from repro.runtime.executor import run_tasks
from repro.runtime.store import STAGE_WALKS

#: Vectorised rejection rounds before the exact per-node fallback kicks in.
_REJECTION_ROUNDS = 8


@dataclass(frozen=True)
class _WalkCSR:
    """Numpy CSR snapshot of a graph for the batched walkers.

    Neighbour lists are re-sorted by index (the graph stores them sorted by
    label) so ``keys`` — ``row * num_nodes + neighbour`` — is globally
    ascending and a single ``searchsorted`` answers batched "is ``c`` a
    neighbour of ``v``?" membership queries.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    keys: np.ndarray
    num_nodes: int

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "_WalkCSR":
        flat = graph.flat()
        num_nodes = graph.num_nodes
        indptr = np.asarray(flat.indptr, dtype=np.int64)
        raw = np.asarray(flat.neighbors, dtype=np.int64)
        degrees = np.asarray(flat.degrees, dtype=np.int64)
        rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        order = np.lexsort((raw, rows)) if raw.size else np.empty(0, dtype=np.int64)
        neighbors = raw[order]
        keys = rows * num_nodes + neighbors
        return cls(indptr, neighbors, degrees, keys, num_nodes)

    def is_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised adjacency test for aligned index arrays ``u``, ``v``."""
        query = u * self.num_nodes + v
        pos = np.searchsorted(self.keys, query)
        pos = np.minimum(pos, self.keys.size - 1)
        return self.keys[pos] == query


def _epoch_rngs(rng, num_walks: int) -> list[np.random.Generator]:
    """One independent child generator per walk epoch.

    Children derive deterministically from the caller's seed (or from the
    generator's spawn key), so shard -> worker assignment can never change
    the corpus: epoch ``e`` always consumes stream ``e``.
    """
    if isinstance(rng, np.random.Generator):
        return list(rng.spawn(num_walks))
    seq = np.random.SeedSequence(rng)
    return [np.random.default_rng(child) for child in seq.spawn(num_walks)]


# ----------------------------------------------------------------------
# Per-epoch walkers
# ----------------------------------------------------------------------
def _uniform_epoch(
    csr: _WalkCSR, order: np.ndarray, walk_length: int, rng: np.random.Generator
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    walks[:, 0] = order
    # Only start nodes can be isolated: any node *reached* over an edge has
    # degree >= 1 in an undirected graph, so the active set is fixed after
    # this one mask — dead walks are masked out, never loop-broken.
    active = np.flatnonzero(csr.degrees[order] > 0)
    current = order[active]
    for step in range(1, walk_length):
        if current.size == 0:
            break
        draws = rng.integers(0, csr.degrees[current])
        current = csr.neighbors[csr.indptr[current] + draws]
        walks[active, step] = current
    return walks


def _exact_biased_step(
    csr: _WalkCSR,
    current: int,
    previous: int,
    inv_p: float,
    inv_q: float,
    rng: np.random.Generator,
) -> int:
    """The exact second-order draw for one walk (rejection-loop fallback)."""
    row = csr.neighbors[csr.indptr[current]: csr.indptr[current] + csr.degrees[current]]
    prow = csr.neighbors[
        csr.indptr[previous]: csr.indptr[previous] + csr.degrees[previous]
    ]
    pos = np.minimum(np.searchsorted(prow, row), prow.size - 1)
    adjacent = prow[pos] == row if prow.size else np.zeros(row.size, dtype=bool)
    weights = np.where(row == previous, inv_p, np.where(adjacent, 1.0, inv_q))
    weights /= weights.sum()
    return int(row[rng.choice(row.size, p=weights)])


def _node2vec_epoch(
    csr: _WalkCSR,
    order: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    walks[:, 0] = order
    if walk_length == 1:
        return walks
    active = np.flatnonzero(csr.degrees[order] > 0)
    if active.size == 0:
        return walks
    # First step has no predecessor: plain uniform draw.
    previous = order[active]
    draws = rng.integers(0, csr.degrees[previous])
    current = csr.neighbors[csr.indptr[previous] + draws]
    walks[active, 1] = current

    inv_p, inv_q = 1.0 / p, 1.0 / q
    wmax = max(inv_p, 1.0, inv_q)
    for step in range(2, walk_length):
        nxt = np.empty(current.size, dtype=np.int64)
        pending = np.arange(current.size)
        for _ in range(_REJECTION_ROUNDS):
            cur = current[pending]
            cand = csr.neighbors[csr.indptr[cur] + rng.integers(0, csr.degrees[cur])]
            prev = previous[pending]
            weights = np.where(
                cand == prev,
                inv_p,
                np.where(csr.is_edge(prev, cand), 1.0, inv_q),
            )
            accepted = rng.random(pending.size) * wmax <= weights
            nxt[pending[accepted]] = cand[accepted]
            pending = pending[~accepted]
            if pending.size == 0:
                break
        for t in pending:
            nxt[t] = _exact_biased_step(
                csr, int(current[t]), int(previous[t]), inv_p, inv_q, rng
            )
        walks[active, step] = nxt
        previous, current = current, nxt
    return walks


def _walk_epoch(
    csr: _WalkCSR,
    starts: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    order = rng.permutation(starts)
    if p == 1.0 and q == 1.0:
        return _uniform_epoch(csr, order, walk_length, rng)
    return _node2vec_epoch(csr, order, walk_length, p, q, rng)


# ----------------------------------------------------------------------
# Epoch fan-out
# ----------------------------------------------------------------------
def _walk_state(graph, starts, walk_length, p, q) -> tuple:
    """Per-process walk state: the CSR snapshot is built once per process,
    and each epoch task then only ships one child generator."""
    return _WalkCSR.from_graph(graph), starts, walk_length, p, q


def _walk_task(state: tuple, rng: np.random.Generator) -> np.ndarray:
    """One epoch's block of walks: the walk fan-out task."""
    telemetry = get_telemetry()
    with telemetry.span("walks/epoch"):
        block = _walk_epoch(*state, rng)
    telemetry.count("walks/generated", block.shape[0])
    return block


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _corpus_key(kind: str, num_walks, walk_length, p, q, rng, nodes) -> tuple | None:
    """The walk-stage cache config, or ``None`` when the corpus is uncacheable.

    Only integer-seeded corpora are content-addressable: a ``Generator``
    carries hidden stream state and ``None`` draws fresh OS entropy, so
    neither can be frozen into a key.  ``n_jobs`` is deliberately absent —
    epoch sharding is bit-identical for every worker count.  The ``"fast"``
    slot is the engine name of earlier releases, kept so stores written
    by them still load warm.
    """
    if not isinstance(rng, (int, np.integer)) or isinstance(rng, bool):
        return None
    node_key = (
        None
        if nodes is None
        else tuple(int(n) for n in np.asarray(nodes, dtype=np.int64).ravel())
    )
    return (
        kind,
        int(num_walks),
        int(walk_length),
        float(p),
        float(q),
        int(rng),
        "fast",
        node_key,
    )


def _corpus(
    graph: HeteroGraph,
    kind: str,
    num_walks: int,
    walk_length: int,
    p: float,
    q: float,
    rng,
    nodes,
    ctx: RunContext | None,
) -> np.ndarray:
    """Generate (or fetch from the context store) one walk corpus."""
    if num_walks < 1 or walk_length < 1:
        raise ValueError("num_walks and walk_length must be >= 1")
    ctx = ctx if ctx is not None else RunContext()
    n_jobs = ctx.resolved_n_jobs(default=1)
    store = ctx.store
    config = None
    if store is not None:
        config = _corpus_key(kind, num_walks, walk_length, p, q, rng, nodes)
        if config is not None:
            cached = store.get(graph.fingerprint(), STAGE_WALKS, config)
            if cached is not None:
                return cached
    starts = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if nodes is None
        else np.asarray(nodes, dtype=np.int64)
    )
    rngs = _epoch_rngs(rng, num_walks)
    if starts.shape[0] == 0:
        corpus = np.full((0, walk_length), -1, dtype=np.int64)
    else:
        blocks = run_tasks(
            _walk_task,
            rngs,
            n_jobs=n_jobs,
            setup=_walk_state,
            shared=(graph, starts, walk_length, p, q),
        )
        corpus = np.concatenate(blocks)
    if config is not None:
        store.put(graph.fingerprint(), STAGE_WALKS, config, corpus)
    return corpus


def uniform_random_walks(
    graph: HeteroGraph,
    num_walks: int = 10,
    walk_length: int = 80,
    rng: np.random.Generator | int | None = None,
    nodes=None,
    *,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Truncated uniform random walks, ``num_walks`` per start node.

    Returns a ``(num_walks * len(starts), walk_length)`` int64 matrix —
    epoch-major, each epoch's rows in a freshly permuted start order.
    Walks from isolated nodes are padded with ``-1`` after the start.

    ``ctx`` supplies ``n_jobs``, which shards epochs over worker
    processes without changing the result for any worker count (``0`` =
    all cores), and, when it carries an artifact store and ``rng`` is an
    integer seed, caches the corpus under the ``"walks"`` stage so warm
    reruns skip the generation.
    """
    return _corpus(
        graph, "uniform", num_walks, walk_length, 1.0, 1.0, rng, nodes, ctx
    )


def node2vec_walks(
    graph: HeteroGraph,
    num_walks: int = 10,
    walk_length: int = 80,
    p: float = 1.0,
    q: float = 1.0,
    rng: np.random.Generator | int | None = None,
    nodes=None,
    *,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Second-order biased walks with return parameter ``p`` and in-out ``q``.

    Transition weights from ``prev -> current -> next``:

    * ``1/p`` when ``next == prev`` (return),
    * ``1``  when ``next`` is adjacent to ``prev`` (stay close),
    * ``1/q`` otherwise (move outward).

    ``p = q = 1`` short-circuits to :func:`uniform_random_walks` (same
    stream, same matrix).  Output layout and ``ctx`` match
    :func:`uniform_random_walks`.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if p == 1.0 and q == 1.0:
        return uniform_random_walks(
            graph, num_walks, walk_length, rng, nodes, ctx=ctx
        )
    return _corpus(graph, "node2vec", num_walks, walk_length, p, q, rng, nodes, ctx)


def walk_lengths(walks: np.ndarray) -> np.ndarray:
    """Actual (un-padded) length of each walk row of a corpus matrix."""
    return (np.asarray(walks) >= 0).sum(axis=1)


def corpus_matrix(walks) -> np.ndarray:
    """A walk corpus as the padded matrix the trainers consume.

    The corpus matrix passes through unchanged; a list of per-walk index
    arrays is right-padded with ``-1`` to the longest walk.
    """
    if isinstance(walks, np.ndarray) and walks.ndim == 2:
        return walks
    rows = [np.asarray(walk, dtype=np.int64) for walk in walks]
    width = max((row.shape[0] for row in rows), default=0)
    matrix = np.full((len(rows), width), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        matrix[i, : row.shape[0]] = row
    return matrix


def walk_node_frequencies(walks, num_nodes: int) -> np.ndarray:
    """Node occurrence counts across a walk corpus (negative-sampling base).

    Accepts the padded corpus matrix (``-1`` entries are ignored, no row
    copies are made) or a list of per-walk index arrays.
    """
    # Shift by one so the -1 pad lands in bin 0, then drop that bin.
    counts = np.bincount(corpus_matrix(walks).ravel() + 1, minlength=num_nodes + 1)
    return counts[1: num_nodes + 1].astype(np.float64)
