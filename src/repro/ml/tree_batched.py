"""Level-array CART growth: the one grower behind every tree and forest.

Growing a tree node by node pays ~20 numpy dispatches and a few Python
objects per node on a shrinking sample, so deep levels with hundreds of
tiny nodes cost interpreter overhead, not arithmetic.  This module grows a
whole batch of trees (a forest chunk, or one tree) simultaneously, level
by level, and keeps each level of the batch as a handful of flat arrays:

* ``tree`` and ``size`` — each node's tree and sample count;
* ``pos`` and ``start`` — the node's sample positions in CSR form,
  ascending within a node.  Positions index the concatenation of every
  tree's bootstrap sample, so bootstrap rows are never materialised;
* ``stats`` — the target statistics handed down from the parent's split
  scan: ``(sum, sum of squares)`` per node for regression, per-class
  counts for classification.

Split scans (stable argsort plus cumulative-sum impurity) run over
power-of-two size buckets, each padded only to its widest node, as a few
3-D/4-D array operations per bucket.  A split's children are the next
level's arrays, and each tree's ``_feat/_thr/_left/_right/_values`` are
sliced out of the per-level node tables at the end.

Bit-identity with the per-node breadth-first builder in
``tests/oracles/tree.py`` is a hard contract (tests/test_ml_tree.py and
tests/test_ml_forest.py compare every node array):

* nodes are created, candidate features drawn and importances accumulated
  in breadth-first order per tree, each tree with its own
  ``default_rng(seed)``, so growing trees side by side changes nothing;
* every floating-point expression (cumulative sums, SSE/Gini scores,
  midpoint thresholds, ``s/m`` summaries) mirrors the per-node formulas
  elementwise.  Padded slots hold ``+inf`` feature values, which sort
  last and fail the size mask, and ``0`` targets, which leave the prefix
  sums that are read unchanged;
* the flat argmin tie-break is kept: candidates are visited in the
  row-major ``row * k + col`` order of the per-node score block;
* a split partitions by value, ``X[row, f] <= xs[split row]``.  That is
  the positional partition (the first ``row + 1`` sorted samples go
  left) because ``X`` is finite and a split only sits between distinct
  sorted values.  One stable argsort on ``2 * node + side`` then lays
  out the children, each still ascending in sample position;
* importances are summed with ``np.add.at`` in breadth-first order, the
  per-node builder's summation order.

Candidate features are drawn a level at a time, yet equal one
``rng.choice(p, k, replace=False)`` per node in breadth-first order.  This
relies on numpy's ``Generator.choice``: Floyd's algorithm over
``j = p-k .. p-1``, then a Fisher-Yates shuffle of the ``k`` picks, each
step one Lemire-bounded 32-bit word (for ``p > 10000`` and ``k > p // 50``,
a shuffle of the population's tail instead).  A level draws one block of
``nodes * (2k - 1)`` words per tree and replays Floyd and the shuffle as
array operations over all its nodes.  A tree whose block holds a word
Lemire rejects (about one in 10⁷) takes the level through a scalar
emulator, which reads the same block and then continues the tree's own
stream, so its next level stays aligned.  The tail branch always takes
that path.
``tests/test_ml_tree_draws.py`` pins this against ``Generator.choice``.
"""

from __future__ import annotations

from itertools import chain, count
from typing import NamedTuple

import numpy as np

from repro.obs.telemetry import get_telemetry

#: Soft cap on ``batch * width * candidates`` cells per scan chunk; keeps
#: peak scratch memory around tens of MB regardless of forest size.
CELL_BUDGET = 1_000_000


class GrownTree(NamedTuple):
    """One fitted tree's node arrays, in breadth-first node order."""

    feature: np.ndarray  # split feature, -1 at leaves
    threshold: np.ndarray  # midpoint threshold, 0.0 at leaves
    left: np.ndarray  # child node ids, -1 at leaves
    right: np.ndarray
    value: np.ndarray  # mean (nodes,) or class proportions (nodes, classes)
    n_samples: np.ndarray
    importances: np.ndarray  # normalised impurity-decrease importances


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate the sklearn-style ``max_features`` spec to a count >= 1."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, (bool, np.bool_)):
        raise ValueError(f"unsupported max_features spec {max_features!r}")
    if isinstance(max_features, (float, np.floating)):
        if not 0.0 < max_features <= 1.0:
            raise ValueError(f"max_features fraction must be in (0, 1], got {max_features}")
        # Small fractions on small vocabularies can round to 0 columns;
        # always keep at least one candidate.
        return max(1, int(max_features * n_features))
    if isinstance(max_features, (int, np.integer)):
        if max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {max_features}")
        return min(int(max_features), n_features)
    raise ValueError(f"unsupported max_features spec {max_features!r}")


def _segments(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Indices of the CSR segments ``[start_i, start_i + size_i)``, concatenated."""
    ends = np.cumsum(size)
    return np.repeat(start - (ends - size), size) + np.arange(ends[-1])


@np.errstate(over="ignore", invalid="ignore")  # astronomically large targets
def fit_tree_batch(X, y, params, tasks, classes=None) -> list[GrownTree]:
    """Grow one tree per ``(seed, sample)`` task, level-synchronously.

    ``X``/``y`` must already be validated float64 arrays.  For classifiers
    ``classes`` is the class vector and ``y`` holds class indices; every
    tree is fitted against the full class axis, which scores identically
    to a bootstrap-local axis because absent classes contribute exact
    zeros to every sum.  Records ``forest/nodes`` (nodes grown),
    ``forest/levels`` (levels of the deepest tree) and
    ``forest/draw_rejections`` (tree levels whose candidate draws took the
    scalar path) in the telemetry.
    """
    p = X.shape[1]
    n_classes = int(classes.size) if classes is not None else 0
    min_samples_split = params.get("min_samples_split", 2)
    min_samples_leaf = params.get("min_samples_leaf", 1)
    max_depth = params.get("max_depth")
    n_candidates = _resolve_max_features(params.get("max_features"), p)
    eye = np.eye(n_classes) if n_classes else None

    rngs = [np.random.default_rng(seed) for seed, _ in tasks]
    y_boots = [y[sample] for _, sample in tasks]
    n_trees = len(tasks)
    n_boot = np.array([yb.size for yb in y_boots], dtype=np.int64)
    sample_cat = np.concatenate([np.asarray(s, dtype=np.int64) for _, s in tasks])
    y_cat = np.concatenate(y_boots)
    importances = np.zeros((n_trees, p))

    # Level 0: one root per tree, statistics from its whole sample.
    tree = np.arange(n_trees)
    size = n_boot.copy()
    start = np.cumsum(size) - size
    pos = np.arange(sample_cat.size)
    if n_classes:
        stats = np.stack(
            [np.bincount(yb.astype(np.int64), minlength=n_classes) for yb in y_boots]
        ).astype(np.float64)
    else:
        stats = np.array([(np.sum(yb), np.dot(yb, yb)) for yb in y_boots])

    tables = []  # per level: (tree, feature, threshold, value, size, child)
    n_nodes = 0  # nodes in all levels so far: the next level's first id
    draw_rejections = 0
    for level in count():
        if n_classes:
            value = stats / size[:, None]
            impurity = 1.0 - np.sum(value**2, axis=1)
        else:
            value = stats[:, 0] / size
            impurity = stats[:, 1] / size - value * value
            impurity[impurity < 0.0] = 0.0
        feature = np.full(tree.size, -1, dtype=np.int64)
        threshold = np.zeros(tree.size)
        child = np.full(tree.size, -1, dtype=np.int64)
        tables.append((tree, feature, threshold, value, size, child))
        n_nodes += tree.size

        # Splittable nodes: depth, size and purity guards as level-wide
        # array ops (class purity off the counts, target constancy as a
        # segmented min == max).
        if max_depth is not None and level >= max_depth:
            break
        ok = size >= min_samples_split
        if n_classes:
            ok &= np.count_nonzero(stats, axis=1) > 1
        scan = np.flatnonzero(ok)
        if not n_classes and scan.size:
            yv = y_cat[pos[_segments(start[scan], size[scan])]]
            offs = np.cumsum(size[scan]) - size[scan]
            scan = scan[np.minimum.reduceat(yv, offs) != np.maximum.reduceat(yv, offs)]
        if not scan.size:
            break
        if n_candidates < p:
            feats, rejected = _draw_candidates(rngs, tree[scan], p, n_candidates)
            draw_rejections += rejected
        else:
            feats = np.broadcast_to(np.arange(p), (scan.size, p))
        found, chosen, thr, split_value, score, left_stats, right_stats = _scan_level(
            X, sample_cat, y_cat, pos, start[scan], size[scan], feats,
            min_samples_leaf, eye,
        )
        split = scan[found]
        if not split.size:
            break

        n_split = split.size
        split_tree = tree[split]
        split_size = size[split]
        feature[split] = chosen
        threshold[split] = thr
        child[split] = n_nodes + 2 * np.arange(n_split)
        np.add.at(
            importances,
            (split_tree, chosen),
            (impurity[split] * split_size - score) / n_boot[split_tree],
        )
        # Value-compare partition; the stable sort on 2*node + side keeps
        # each child's positions ascending.
        moved = pos[_segments(start[split], split_size)]
        goes_right = X[sample_cat[moved], np.repeat(chosen, split_size)] > np.repeat(
            split_value, split_size
        )
        key = 2 * np.repeat(np.arange(n_split), split_size) + goes_right
        pos = moved[np.argsort(key, kind="stable")]
        size = np.bincount(key, minlength=2 * n_split)
        start = np.cumsum(size) - size
        tree = np.repeat(split_tree, 2)
        stats = np.empty((2 * n_split, stats.shape[1]))
        stats[0::2] = left_stats
        stats[1::2] = right_stats

    grown = _slice_trees(tables, n_trees, importances)
    telemetry = get_telemetry()
    telemetry.count("forest/nodes", n_nodes)
    telemetry.gauge_max("forest/levels", len(tables))
    telemetry.count("forest/draw_rejections", draw_rejections)
    return grown


def _draw_candidates(rngs, node_tree, p, k):
    """``rngs[t].choice(p, k, replace=False)`` for each node, in node order.

    ``node_tree`` must be non-decreasing (a level's nodes grouped by tree)
    and ``0 < k < p < 2**32``.  Returns the ``(nodes, k)`` draws and the
    number of trees whose block held a rejected word.
    """
    trees, counts = np.unique(node_tree, return_counts=True)
    floyd = p <= 10000 or k <= p // 50  # Generator.choice's branch
    # Bounds of the words: Floyd's j = p-k .. p-1, then the shuffle's
    # i = k-1 .. 1; or the tail shuffle's i = p-1 .. p-k.
    bounds = np.r_[p - k : p, k - 1 : 0 : -1] if floyd else np.arange(p - 1, p - k - 1, -1)
    blocks = [
        rngs[t].integers(0, 2**32, size=c * bounds.size, dtype=np.uint32)
        for t, c in zip(trees.tolist(), counts.tolist())
    ]
    bounds = bounds.astype(np.uint64)
    scaled = np.concatenate(blocks).reshape(-1, bounds.size) * (bounds + 1)
    values = (scaled >> 32).astype(np.int64)
    # Lemire's test.  A tree's first flagged word is a real rejection, since
    # every word before it was accepted and so read where numpy reads it.
    flagged = (scaled & 0xFFFFFFFF) < (0xFFFFFFFF - bounds) % (bounds + 1)
    ends = np.cumsum(counts)
    rejected = np.logical_or.reduceat(flagged.any(axis=1), ends - counts)

    feats = values[:, :k].copy()
    if floyd:
        for i in range(1, k):  # Floyd: a repeated pick takes j itself
            repeat = (feats[:, :i] == feats[:, i : i + 1]).any(axis=1)
            feats[repeat, i] = p - k + i
        rows = np.arange(feats.shape[0])
        for i in range(k - 1, 0, -1):  # Fisher-Yates over the picks
            j = values[:, 2 * k - 1 - i]
            feats[rows, j], feats[:, i] = feats[:, i], feats[rows, j]
    for g in np.flatnonzero(rejected | (not floyd)).tolist():
        rng = rngs[trees[g]]
        more = iter(lambda: int(rng.integers(2**32, dtype=np.uint32)), None)
        words = chain(blocks[g].tolist(), more)
        for row in range(ends[g] - counts[g], ends[g]):
            feats[row] = _choice_from_words(p, k, floyd, words)
    return feats, int(rejected.sum())


def _choice_from_words(p, k, floyd, words):
    """``Generator.choice(p, k, replace=False)`` fed from 32-bit ``words``."""

    def bounded(j):  # uniform on [0, j]: numpy's buffered_bounded_lemire_uint32
        scaled = next(words) * (j + 1)
        while scaled & 0xFFFFFFFF < (0xFFFFFFFF - j) % (j + 1):
            scaled = next(words) * (j + 1)
        return scaled >> 32

    if not floyd:  # Fisher-Yates over the population's last k slots
        tail = {}
        for i in range(p - 1, p - k - 1, -1):
            j = bounded(i)
            tail[i], tail[j] = tail.get(j, j), tail.get(i, i)
        return [tail.get(i, i) for i in range(p - k, p)]
    picks = []
    for j in range(p - k, p):
        value = bounded(j)
        picks.append(j if value in picks else value)
    for i in range(k - 1, 0, -1):
        j = bounded(i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def _slice_trees(tables, n_trees, importances) -> list[GrownTree]:
    """Cut the per-level node tables into per-tree breadth-first arrays.

    Globally, nodes are ordered by (level, tree, position in level) and
    ``child`` holds a split's first child in that order; a stable sort on
    the tree id gives each tree's breadth-first order, and a split's two
    children sit side by side.
    """
    tree, feature, threshold, value, size, child = (
        np.concatenate(column) for column in zip(*tables)
    )
    internal = child >= 0
    order = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    ends = np.cumsum(counts)
    local = np.empty(tree.size, dtype=np.int64)
    local[order] = np.arange(tree.size)
    local -= (ends - counts)[tree]
    left = np.full(tree.size, -1, dtype=np.int64)
    left[internal] = local[child[internal]]
    right = np.where(internal, left + 1, -1)
    columns = [
        column[order] for column in (feature, threshold, left, right, value, size)
    ]
    grown = []
    for t, (lo, hi) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
        total = importances[t].sum()
        grown.append(
            GrownTree(
                *(column[lo:hi] for column in columns),
                importances[t] / total if total > 0 else importances[t],
            )
        )
    return grown


def _scan_level(X, sample_cat, y_cat, pos, start, size, feats, min_samples_leaf, eye):
    """Best split of every node in ``start``/``size`` that has one.

    Returns ``(node, feature, threshold, split_value, score, left_stats,
    right_stats)``, one row per splitting node in ascending ``node``
    order; ``split_value`` is the last sorted value that goes left.  Nodes
    are scanned in power-of-two size buckets, each padded only to its
    widest node and cut into chunks of at most :data:`CELL_BUDGET` cells;
    at the root level every node has the same size, so the biggest scans
    carry no padding at all.
    """
    width = feats.shape[1] * (eye.shape[0] if eye is not None else 1)
    bucket = np.frexp(size - 1)[1]  # == (size - 1).bit_length()
    parts = []
    for b in np.unique(bucket).tolist():
        members = np.flatnonzero(bucket == b)
        cap = int(size[members].max())
        chunk = max(1, CELL_BUDGET // (cap * width))
        for lo in range(0, members.size, chunk):
            sel = members[lo : lo + chunk]
            found, *split = _scan_chunk(
                X, sample_cat, y_cat, pos, start[sel], size[sel], feats[sel],
                cap, min_samples_leaf, eye,
            )
            parts.append((sel[found], *split))
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0])
    return [column[order] for column in columns]


def _scan_chunk(X, sample_cat, y_cat, pos, start, size, feats, cap,
                min_samples_leaf, eye):
    """Split scan of ``B`` nodes padded to width ``cap``; see :func:`_scan_level`.

    Returns the chunk-local indices of the nodes that split, then their
    split columns.
    """
    B, k = feats.shape
    slot = np.arange(cap)
    pad = slot[None, :] >= size[:, None]
    at = pos[np.minimum(start[:, None] + slot, pos.size - 1)]  # (B, cap)
    sub = X[sample_cat[at][:, :, None], feats[:, None, :]]  # (B, cap, k)
    sub[pad] = np.inf  # padding sorts last; masked out by size validity
    order = np.argsort(sub, axis=1, kind="stable")
    b_idx = np.arange(B)[:, None, None]
    xs = sub[b_idx, order, np.arange(k)]

    # Cumulative scans over the full padded block (zero-padded targets are
    # exact identities under prefix sums)...
    if eye is not None:
        targets = eye[y_cat[at].astype(np.int64)]
        targets[pad] = 0.0
        ccum = np.cumsum(targets[b_idx, order], axis=1)  # (B, cap, k, K)
    else:
        ypad = np.where(pad, 0.0, y_cat[at])
        ys = ypad[b_idx, order]  # (B, cap, k)
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys**2, axis=1)

    # ... but impurity scores only at *valid* split positions.  On the
    # heavy-tailed count features most positions sit inside runs of tied
    # values, so this gather-based scoring skips the bulk of the per-node
    # formula's arithmetic while reproducing it exactly where it counts.
    left_sizes = np.arange(1, cap)[None, :]
    size_ok = (left_sizes >= min_samples_leaf) & (
        (size[:, None] - left_sizes) >= min_samples_leaf
    )  # padded rows have non-positive right size -> invalid
    distinct = xs[:, 1:, :] != xs[:, :-1, :]
    valid = (distinct & size_ok[:, :, None]).reshape(B, -1)
    batch_ids, flat = np.nonzero(valid)
    r = flat // k
    c = flat % k
    ln = (r + 1).astype(np.float64)  # == the per-node builder's left_n
    rn = size[batch_ids] - ln
    if eye is not None:
        lc = ccum[batch_ids, r, c]  # (V, n_classes)
        rc = ccum[batch_ids, cap - 1, c] - lc
        left_gini = ln - np.sum(lc**2, axis=1) / ln
        right_gini = rn - np.sum(rc**2, axis=1) / rn
        scores_v = left_gini + right_gini
    else:
        ls = csum[batch_ids, r, c]
        lq = csq[batch_ids, r, c]
        ts = csum[batch_ids, cap - 1, c]
        tq = csq[batch_ids, cap - 1, c]
        left_sse = lq - ls**2 / ln
        right_sse = (tq - lq) - (ts - ls) ** 2 / rn
        scores_v = left_sse + right_sse

    # Segment-wise first-minimum: batch_ids/flat arrive in row-major order,
    # so taking the smallest flat position among the minima reproduces the
    # per-node ``argmin`` row*k+col tie-break.  A NaN score (targets
    # astronomically large) makes the per-node argmin land on the NaN and
    # fail its isfinite check; mirror that by disqualifying the node.
    counts = np.bincount(batch_ids, minlength=B)
    present = np.flatnonzero(counts)
    starts = np.searchsorted(batch_ids, present)
    min_scores = np.minimum.reduceat(scores_v, starts)
    at_min = scores_v == np.repeat(min_scores, counts[present])
    sentinel = cap * k
    first_at_min = np.minimum.reduceat(np.where(at_min, flat, sentinel), starts)
    best = np.full(B, sentinel, dtype=np.int64)
    best_scores = np.full(B, np.inf)
    best[present] = first_at_min
    best_scores[present] = min_scores
    usable = (best < sentinel) & np.isfinite(best_scores)
    nan_any = np.isnan(scores_v)
    if nan_any.any():
        usable &= np.bincount(batch_ids, weights=nan_any, minlength=B) == 0
    # Gather winners of usable nodes only: an unusable node's ``best`` may
    # be the sentinel, one row past the padded block.
    batch = np.flatnonzero(usable)
    best_rows = best[batch] // k
    best_cols = best[batch] % k
    split_value = xs[batch, best_rows, best_cols]
    threshold = (split_value + xs[batch, best_rows + 1, best_cols]) / 2.0
    chosen = feats[batch, best_cols]
    if eye is not None:
        left_stats = ccum[batch, best_rows, best_cols]  # (B, n_classes)
        right_stats = ccum[batch, -1, best_cols] - left_stats
    else:
        left_s = csum[batch, best_rows, best_cols]
        left_sq = csq[batch, best_rows, best_cols]
        left_stats = np.stack([left_s, left_sq], axis=1)
        right_stats = np.stack(
            [csum[batch, -1, best_cols] - left_s, csq[batch, -1, best_cols] - left_sq],
            axis=1,
        )
    return (
        batch, chosen, threshold, split_value, best_scores[batch], left_stats, right_stats
    )
