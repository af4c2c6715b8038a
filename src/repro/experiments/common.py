"""Shared experiment plumbing: embedding parameter presets and helpers.

The paper runs every embedding baseline with its recommended defaults
(``d=128, r=10, l=80, k=10, p=q=1, K=5``).  Those are faithful but slow for
a pure-Python trainer, so experiments accept an :class:`EmbeddingParams`
preset: :meth:`EmbeddingParams.paper` reproduces the defaults,
:meth:`EmbeddingParams.fast` scales them down for bench runs.  Which preset
an experiment used is recorded in its result object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import HeteroGraph
from repro.embeddings import LINE, DeepWalk, Node2Vec
from repro.runtime.context import RunContext
from repro.runtime.store import STAGE_EMBED

EMBEDDING_METHODS = ("node2vec", "deepwalk", "line")


@dataclass(frozen=True)
class EmbeddingParams:
    """Hyper-parameters shared by the three embedding baselines."""

    dim: int = 128
    num_walks: int = 10
    walk_length: int = 80
    window: int = 10
    negative: int = 5
    p: float = 1.0
    q: float = 1.0
    line_samples: int | None = None

    @classmethod
    def paper(cls) -> "EmbeddingParams":
        """The recommended defaults of Section 4.2.2."""
        return cls()

    @classmethod
    def fast(cls) -> "EmbeddingParams":
        """Scaled-down preset for bench harnesses (documented deviation)."""
        return cls(
            dim=32,
            num_walks=4,
            walk_length=15,
            window=5,
            negative=5,
            line_samples=40_000,
        )


def _embed_key(
    method: str, params: EmbeddingParams, seed: int, nodes: np.ndarray
) -> tuple:
    """The embed-stage cache config for one trained baseline.

    Includes every value the matrix depends on — method, all preset
    fields, the offset seed, and the requested node rows.  ``n_jobs`` is
    deliberately absent: every worker count trains the same matrix.  The
    ``"fast"`` slot is the engine name of earlier releases, kept so
    stores written by them still load warm.
    """
    return (
        method,
        params.dim,
        params.num_walks,
        params.walk_length,
        params.window,
        params.negative,
        params.p,
        params.q,
        params.line_samples,
        int(seed),
        "fast",
        tuple(int(n) for n in nodes),
    )


def embedding_matrix(
    graph: HeteroGraph,
    nodes,
    method: str,
    params: EmbeddingParams,
    seed: int = 0,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Train one embedding baseline on ``graph`` and return rows for ``nodes``.

    Parameters
    ----------
    method:
        One of ``"node2vec"``, ``"deepwalk"``, ``"line"``.
    ctx:
        Optional :class:`~repro.runtime.context.RunContext`; its
        ``n_jobs`` sets the worker processes for corpus generation (walk
        methods) or order training (LINE) and never changes the result.
        Its census ``engine`` does not apply here.  When it carries an
        artifact store the trained matrix is cached under the ``"embed"``
        stage so a warm rerun skips the walk and SGNS work entirely.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    # With the paper defaults (p = q = 1) node2vec's walks coincide with
    # DeepWalk's; a per-method seed offset keeps their random streams
    # distinct, as independent reference implementations would be.
    seed = seed + {"deepwalk": 0, "node2vec": 101, "line": 202}.get(method, 0)
    store = ctx.store if ctx is not None else None
    embed_config = None
    if store is not None:
        embed_config = _embed_key(method, params, seed, nodes)
        cached = store.get(graph.fingerprint(), STAGE_EMBED, embed_config)
        if cached is not None:
            return cached
    if method == "deepwalk":
        model = DeepWalk(
            dim=params.dim,
            num_walks=params.num_walks,
            walk_length=params.walk_length,
            window=params.window,
            negative=params.negative,
            seed=seed,
            ctx=ctx,
        )
    elif method == "node2vec":
        model = Node2Vec(
            dim=params.dim,
            num_walks=params.num_walks,
            walk_length=params.walk_length,
            window=params.window,
            negative=params.negative,
            p=params.p,
            q=params.q,
            seed=seed,
            ctx=ctx,
        )
    elif method == "line":
        model = LINE(
            dim=params.dim,
            num_samples=params.line_samples,
            negative=params.negative,
            seed=seed,
            ctx=ctx,
        )
    else:
        raise ValueError(f"unknown embedding method {method!r}")
    matrix = model.fit_transform(graph, nodes)
    if store is not None:
        store.put(graph.fingerprint(), STAGE_EMBED, embed_config, matrix)
    return matrix


def percentile_degree(graph: HeteroGraph, percentile: float) -> int | None:
    """Degree value at a percentile of the degree distribution.

    ``percentile >= 100`` means "no cap" and returns ``None`` — Table 2's
    100% column, where the paper's extraction "did not finish" on the big
    networks.
    """
    if percentile >= 100.0:
        return None
    degrees = graph.degrees()
    return int(np.percentile(degrees, percentile))
