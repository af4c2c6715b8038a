"""Level-array CART growth: the one grower behind every tree and forest.

Growing a tree node by node pays ~20 numpy dispatches and a few Python
objects per node on a shrinking sample, so deep levels with hundreds of
tiny nodes cost interpreter overhead, not arithmetic.  This module grows a
whole batch of trees (a forest chunk, or one tree) simultaneously, level
by level, and keeps each level of the batch as a handful of flat arrays:

* ``tree`` and ``size`` — each node's tree and sample count;
* ``rows`` and ``start`` — the rows of ``X`` in each node's sample, in
  CSR form and in bootstrap order within a node, so bootstrap copies of
  ``X`` are never materialised;
* ``stats`` — the target statistics handed down from the parent's split
  scan: ``(sum, sum of squares)`` per node for regression, per-class
  counts for classification.

Split scans run over power-of-two size buckets, each padded only to its
widest node.  They sort the integer keys ``rank << bits | cell``, with
ranks from a dense per-column rank table of ``X``: the keys are unique
and tied values keep cell order, so a plain ``ndarray.sort`` gives the
stable order.  A split's children are the next level's arrays, and each
tree's ``_feat/_thr/_left/_right/_values`` are sliced out of the
per-level node tables at the end.

Bit-identity with the per-node breadth-first builder in
``tests/oracles/tree.py`` is a hard contract (tests/test_ml_tree.py and
tests/test_ml_forest.py compare every node array):

* nodes are created, candidate features drawn and importances accumulated
  in breadth-first order per tree, each tree with its own
  ``default_rng(seed)``, so growing trees side by side changes nothing;
* every floating-point expression (cumulative sums, SSE/Gini scores,
  midpoint thresholds, ``s/m`` summaries) mirrors the per-node formulas
  elementwise.  Padding holds a pad row ranked above every value, which
  sorts last and fails the size mask, with zero targets, which leave the
  prefix sums that are read unchanged;
* the flat argmin tie-break is kept: candidates are visited in the
  row-major ``row * k + col`` order of the per-node score block;
* a split partitions by value, ``X[row, f] <= split value``.  That is
  the positional partition (the first ``row + 1`` sorted samples go
  left) because ``X`` is finite and a split only sits between distinct
  sorted values.  One stable argsort on ``2 * node + side`` then lays
  out the children, each still in bootstrap order;
* importances are summed with ``np.add.at`` in breadth-first order, the
  per-node builder's summation order.

Candidate features are drawn a level at a time, yet equal one
``rng.choice(p, k, replace=False)`` per node in breadth-first order.  This
relies on numpy's ``Generator.choice``: Floyd's algorithm over
``j = p-k .. p-1``, then a Fisher-Yates shuffle of the ``k`` picks, each
step one Lemire-bounded 32-bit word (for ``p > 10000`` and ``k > p // 50``,
a shuffle of the population's tail instead).  A level reads
``nodes * (2k - 1)`` words per tree from blocks drawn ahead, and replays
Floyd and the shuffle as array operations over all its nodes.  A scalar
emulator reading the same words serves small levels, the tail branch and
trees whose words hold one Lemire rejects (about one in 10⁷); it reads on
into the tree's stream, so the next level stays aligned.
``tests/test_ml_tree_draws.py`` pins this against ``Generator.choice``.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, groupby
from typing import NamedTuple

import numpy as np

from repro.obs.telemetry import get_telemetry

#: Soft cap on ``batch * width * candidates`` cells per scan chunk; keeps
#: peak scratch memory around tens of MB regardless of forest size.
CELL_BUDGET = 1_000_000

#: Words a tree draws ahead at its first read (a 120-sample tree's all).
FIRST_BLOCK = 1024

#: Levels with fewer nodes draw node by node: both ways cost ~k per node,
#: and they cross at ~10 nodes for k = 2 .. 31 (x86-64, numpy 2.4).
SCALAR_NODES = 10


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
    ``forest/levels`` (levels of the deepest tree),
    ``forest/draw_rejections`` (tree levels whose candidate words held a
    Lemire rejection) and ``forest/scan_cells`` (node size times
    candidates, summed over scanned nodes) in the telemetry.
    """
    p = X.shape[1]
    n_classes = int(classes.size) if classes is not None else 0
    min_samples_split = params.get("min_samples_split", 2)
    min_samples_leaf = params.get("min_samples_leaf", 1)
    max_depth = params.get("max_depth")
    n_candidates = _resolve_max_features(params.get("max_features"), p)

    words = _WordStreams([np.random.default_rng(seed) for seed, _ in tasks])
    y_boots = [y[sample] for _, sample in tasks]
    n_trees = len(tasks)
    n_boot = np.array([yb.size for yb in y_boots], dtype=np.int64)
    importances = np.zeros((n_trees, p))
    ranks = _dense_ranks(X)
    # Each row's target statistics (class one-hots, or y and y**2), then
    # the pad row's zeros.
    targets = np.eye(n_classes)[y.astype(np.int64)] if n_classes else np.c_[y, y**2]
    targets = np.vstack([targets, np.zeros(targets.shape[1])])

    # Level 0: one root per tree, statistics from its whole sample.
    tree = np.arange(n_trees)
    size = n_boot.copy()
    start = np.cumsum(size) - size
    rows = np.concatenate([np.asarray(s, dtype=np.int64) for _, s in tasks])
    if n_classes:
        stats = np.stack(
            [np.bincount(yb.astype(np.int64), minlength=n_classes) for yb in y_boots]
        ).astype(np.float64)
    else:
        stats = np.array([(np.sum(yb), np.dot(yb, yb)) for yb in y_boots])

    tables = []  # per level: (tree, feature, threshold, value, size, child)
    n_nodes = 0  # nodes in all levels so far: the next level's first id
    draw_rejections = scan_cells = 0
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
            yv = y[rows[_segments(start[scan], size[scan])]]
            offs = np.cumsum(size[scan]) - size[scan]
            scan = scan[np.minimum.reduceat(yv, offs) != np.maximum.reduceat(yv, offs)]
        if not scan.size:
            break
        if n_candidates < p:
            feats, rejected = _draw_candidates(words, tree[scan], p, n_candidates)
            draw_rejections += rejected
        else:
            feats = np.broadcast_to(np.arange(p), (scan.size, p))
        scan_cells += int(size[scan].sum()) * n_candidates
        found, chosen, thr, split_value, score, left_stats, right_stats = _scan_level(
            ranks, X, np.append(rows, X.shape[0]), targets,
            start[scan], size[scan], feats, min_samples_leaf, n_classes > 0,
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
        moved = rows[_segments(start[split], split_size)]
        goes_right = X[moved, np.repeat(chosen, split_size)] > np.repeat(
            split_value, split_size
        )
        key = 2 * np.repeat(np.arange(n_split), split_size) + goes_right
        rows = moved[np.argsort(key, kind="stable")]
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
    telemetry.count("forest/scan_cells", scan_cells)
    return grown


def _dense_ranks(X):
    """Dense ranks of each column of ``X`` as a ``(p, n + 1)`` table; equal
    values (``-0.0`` and ``0.0`` too) share one, and the pad row ``n`` tops
    every column."""
    order = np.argsort(X.T, axis=1)
    xs = np.take_along_axis(X.T, order, axis=1)
    ranks = np.full((X.shape[1], X.shape[0] + 1), X.shape[0])
    dense = np.cumsum(np.diff(xs, axis=1, prepend=xs[:, :1]) != 0, axis=1)
    np.put_along_axis(ranks[:, :-1], order, dense, axis=1)
    return ranks


class _WordStreams:
    """Each tree's full-range 32-bit words, drawn ahead in growing blocks.

    ``integers(0, 2**32, size=a + b, dtype=np.uint32)`` yields the words of
    two calls of sizes ``a`` and ``b``, so reading ahead moves no word.
    """

    def __init__(self, rngs):
        self._rngs = rngs
        self._ahead = [np.empty(0, dtype=np.uint32)] * len(rngs)  # drawn, unread
        self.read = [0] * len(rngs)  # words taken per tree

    def take(self, t, m):
        """The next ``m`` words of tree ``t``."""
        ahead = self._ahead[t]
        if m > ahead.size:  # draw at least FIRST_BLOCK, and double the total
            size = max(m - ahead.size, self.read[t] + ahead.size, FIRST_BLOCK)
            fresh = self._rngs[t].integers(0, 2**32, size=size, dtype=np.uint32)
            ahead = np.concatenate([ahead, fresh])
        self._ahead[t] = ahead[m:]
        self.read[t] += m
        return ahead[:m]

    def more(self, t):
        """Tree ``t``'s words after the last one taken, one by one, as ints."""
        return iter(lambda: int(self.take(t, 1)[0]), None)


def _draw_candidates(words, node_tree, p, k):
    """Each node's tree's ``choice(p, k, replace=False)``, in node order.

    ``words`` holds the trees' streams (:class:`_WordStreams`).
    ``node_tree`` must be non-decreasing (a level's nodes grouped by tree)
    and ``0 < k < p < 2**32``.  Returns the ``(nodes, k)`` draws and the
    number of trees whose words held a Lemire rejection.
    """
    floyd = p <= 10000 or k <= p // 50  # Generator.choice's branch
    # Bounds of the words: Floyd's j = p-k .. p-1, then the shuffle's
    # i = k-1 .. 1; or the tail shuffle's i = p-1 .. p-k.
    bounds = np.r_[p - k : p, k - 1 : 0 : -1] if floyd else np.arange(p - 1, p - k - 1, -1)
    groups = [(t, len(list(run))) for t, run in groupby(node_tree.tolist())]
    counts = [c for _, c in groups]
    firsts = list(accumulate([0, *counts[:-1]]))
    blocks = [words.take(t, c * bounds.size) for t, c in groups]
    if not floyd or node_tree.size < SCALAR_NODES:
        feats = np.empty((node_tree.size, k), dtype=np.int64)
        scalar = range(len(groups))
    else:
        bounds = bounds.astype(np.uint64)
        scaled = np.concatenate(blocks).reshape(-1, bounds.size) * (bounds + 1)
        values = (scaled >> 32).astype(np.int64)
        # Lemire's test.  A tree's first flagged word is a real rejection,
        # since every word before it was accepted and so read where numpy
        # reads it.
        flagged = (scaled & 0xFFFFFFFF) < (0xFFFFFFFF - bounds) % (bounds + 1)
        scalar = np.flatnonzero(np.logical_or.reduceat(flagged.any(axis=1), firsts))
        feats = values[:, :k].copy()
        for i in range(1, k):  # Floyd: a repeated pick takes j itself
            repeat = (feats[:, :i] == feats[:, i : i + 1]).any(axis=1)
            feats[repeat, i] = p - k + i
        rows = np.arange(feats.shape[0])
        for i in range(k - 1, 0, -1):  # Fisher-Yates over the picks
            j = values[:, 2 * k - 1 - i]
            feats[rows, j], feats[:, i] = feats[:, i], feats[rows, j]
    # The scalar emulator reads a tree's block, then its stream beyond.
    rejected = 0
    for g in scalar:
        t = groups[g][0]
        read = words.read[t]
        stream = chain(blocks[g].tolist(), words.more(t))
        for row in range(firsts[g], firsts[g] + counts[g]):
            feats[row] = choice_from_words(p, k, floyd, stream)
        rejected += words.read[t] > read
    return feats, rejected


def choice_from_words(p, k, floyd, words):
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


def _scan_level(ranks, X, rows, targets, start, size, feats, min_samples_leaf, gini):
    """Best split of every node in ``start``/``size`` that has one.

    ``rows`` maps the level's sample positions to rows of ``X``, with the
    pad row ``n`` appended.  Returns ``(node, feature, threshold,
    split_value, score, left_stats, right_stats)``, one row per splitting
    node in ascending ``node`` order; ``split_value`` is the last sorted
    value that goes left.  Nodes are scanned in power-of-two size buckets,
    each padded only to its widest node and cut into chunks of at most
    :data:`CELL_BUDGET` cells; at the root level every node has the same
    size, so the biggest scans carry no padding at all.
    """
    width = feats.shape[1] * (targets.shape[1] if gini else 1)
    bucket = np.frexp(size - 1)[1]  # == (size - 1).bit_length()
    parts = []
    for b in np.unique(bucket).tolist():
        members = np.flatnonzero(bucket == b)
        cap = int(size[members].max())
        chunk = max(1, CELL_BUDGET // (cap * width))
        for lo in range(0, members.size, chunk):
            sel = members[lo : lo + chunk]
            found, *split = _scan_chunk(
                ranks, X, rows, targets, start[sel], size[sel], feats[sel],
                cap, min_samples_leaf, gini,
            )
            parts.append((sel[found], *split))
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0])
    return [column[order] for column in columns]


def _prefix_sums(a):
    """``np.cumsum(a, axis=0)`` bit for bit, in place.  cumsum costs ~4 ns
    an element, a row-addition loop ~1 µs a row: it wins from ~256."""
    if a[0].size < 256:
        return np.cumsum(a, axis=0)
    for i in range(1, len(a)):
        a[i] += a[i - 1]
    return a


def _scan_chunk(ranks, X, rows, targets, start, size, feats, cap, min_samples_leaf, gini):
    """Split scan of ``B`` nodes padded to width ``cap``; see :func:`_scan_level`.

    Returns the chunk-local indices of the nodes that split, then their
    split columns.
    """
    B, k = feats.shape
    slot = np.arange(cap)
    # Each cell (node, slot) holds a row of X, padding the pad row.
    cell_rows = rows[np.where(slot >= size[:, None], rows.size - 1, start[:, None] + slot)]
    # Feature-major (B, k, cap) keys ``rank << bits | cell``.
    bits = (B * cap - 1).bit_length()
    keys = ranks.ravel()[(feats * ranks.shape[1])[:, :, None] + cell_rows[:, None, :]]
    keys <<= bits
    keys |= np.arange(B * cap).reshape(B, 1, cap)
    keys.sort()
    cells = keys & ((1 << bits) - 1)  # (B, k, cap): cells in sorted order
    keys >>= bits  # sorted ranks

    # Running target statistics over the full padded block, slot-major
    # (cap, B*k, K).  ``np.take`` gathers rows many times faster than fancy
    # indexing.  Impurity is scored only at *valid* split positions.  On
    # the heavy-tailed count features most positions sit inside runs of
    # tied values, so this skips the bulk of the per-node formula's
    # arithmetic while reproducing it exactly where it counts.
    running = _prefix_sums(
        np.take(targets[cell_rows.ravel()], cells.reshape(B * k, cap).T, axis=0)
    )
    left_sizes = np.arange(1, cap)
    size_ok = (left_sizes >= min_samples_leaf) & (
        (size[:, None] - left_sizes) >= min_samples_leaf
    )  # padded rows have non-positive right size -> invalid
    valid = np.not_equal(keys[:, :, 1:], keys[:, :, :-1])
    valid &= size_ok[:, None, :]
    flat = np.flatnonzero(valid)
    bc = flat // (cap - 1)  # == node * k + candidate
    r = flat - bc * (cap - 1)
    batch_ids = bc // k
    ln = (r + 1).astype(np.float64)  # == the per-node builder's left_n
    rn = size[batch_ids] - ln
    left = np.take(running.reshape(cap * B * k, -1), r * (B * k) + bc, axis=0)
    right = np.take(running[-1], bc, axis=0) - left
    if gini:
        left_score = ln - np.sum(left**2, axis=1) / ln
        right_score = rn - np.sum(right**2, axis=1) / rn
    else:  # SSE
        left_score = left[:, 1] - left[:, 0] ** 2 / ln
        right_score = right[:, 1] - right[:, 0] ** 2 / rn
    scores_v = left_score + right_score

    # Segment-wise first-minimum in the per-node ``argmin``'s row*k+col
    # order.  A NaN score (targets astronomically large) makes the per-node
    # argmin land on the NaN and fail its isfinite check; mirror that by
    # disqualifying the node.
    counts = np.bincount(batch_ids, minlength=B)
    present = np.flatnonzero(counts)
    starts = np.searchsorted(batch_ids, present)
    min_scores = np.minimum.reduceat(scores_v, starts)
    at_min = scores_v == np.repeat(min_scores, counts[present])
    sentinel = cap * k
    order = r * k + bc - batch_ids * k
    first_at_min = np.minimum.reduceat(np.where(at_min, order, sentinel), starts)
    best = np.full(B, sentinel, dtype=np.int64)
    best_scores = np.full(B, np.inf)
    best[present] = first_at_min
    best_scores[present] = min_scores
    usable = (best < sentinel) & np.isfinite(best_scores)
    nan_any = np.isnan(scores_v)
    if nan_any.any():
        usable &= np.bincount(batch_ids, weights=nan_any, minlength=B) == 0
    # Gather winners of usable nodes only: an unusable node's ``best`` may
    # be the sentinel.  Values come from X at the winning cells.
    batch = np.flatnonzero(usable)
    best_rows = best[batch] // k
    best_cols = best[batch] % k
    win_bc = batch * k + best_cols
    win = win_bc * cap + best_rows
    chosen = feats[batch, best_cols]
    win_rows = cell_rows.ravel()[cells.ravel()[np.stack([win, win + 1])]]
    split_value = X[win_rows[0], chosen]
    threshold = (split_value + X[win_rows[1], chosen]) / 2.0
    left_stats = np.take(
        running.reshape(cap * B * k, -1), best_rows * (B * k) + win_bc, axis=0
    )
    right_stats = np.take(running[-1], win_bc, axis=0) - left_stats
    return (
        batch, chosen, threshold, split_value, best_scores[batch], left_stats, right_stats
    )
