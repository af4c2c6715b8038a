"""Batched candidate-feature draws against sequential ``Generator.choice``.

The tree grower draws each level's candidate features for every node at
once from one block of 32-bit words per tree, replaying numpy's
``Generator.choice(p, k, replace=False)`` arithmetic (Lemire-bounded
words, Floyd's algorithm and a Fisher-Yates shuffle, or the tail shuffle
for ``p > 10000`` and ``k > p // 50``).  These tests guard that
dependence on numpy's ``Generator.choice`` algorithm: if a numpy release
changes it, they fail here, before the tree and forest oracle parity
tests fail with less telling node-array diffs.
"""

import numpy as np
import pytest

from repro.ml import tree_batched
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.tree_batched import _draw_candidates, _resolve_max_features, _WordStreams
from repro.obs.telemetry import fresh_telemetry
from tests.oracles import ReferenceDecisionTreeRegressor


def _assert_matches_sequential(p, k, node_tree, seeds):
    """Draw batched and sequentially; return the batched rejection count.

    Both the draws and each tree's stream position afterwards must match:
    the next word of the tree's word source is the sequential stream's next
    word.
    """
    words = _WordStreams([np.random.default_rng(seed) for seed in seeds])
    sequential = [np.random.default_rng(seed) for seed in seeds]
    feats, rejected = _draw_candidates(words, np.asarray(node_tree), p, k)
    expected = [sequential[t].choice(p, size=k, replace=False) for t in node_tree]
    assert feats.shape == (len(node_tree), k)
    assert np.array_equal(feats, np.array(expected))
    for t, slow in enumerate(sequential):
        assert words.take(t, 1)[0] == slow.integers(0, 2**32, dtype=np.uint32)
    return rejected


SQRT_SIZES = [(p, _resolve_max_features("sqrt", p)) for p in (4, 10, 37, 42, 79, 200)]


@pytest.mark.parametrize(
    "p, k",
    [(2, 1), (5, 1), (79, 1), (3, 2), (5, 4), (42, 41), *SQRT_SIZES],
)
def test_uneven_levels_match_sequential_choice(p, k):
    shapes = np.random.default_rng(p * 1000 + k)
    for _ in range(25):
        n_trees = int(shapes.integers(1, 6))
        # Nodes grouped by tree; some trees have no node this level.
        node_tree = np.sort(shapes.integers(0, n_trees, size=shapes.integers(1, 15)))
        seeds = shapes.integers(0, 2**31, size=n_trees).tolist()
        assert _assert_matches_sequential(p, k, node_tree.tolist(), seeds) == 0


def test_lemire_rejection_takes_the_scalar_path():
    """Seed 1548's second ``choice(10000, 100)`` draw hits a rejected word.

    Found by search.  The tree's three nodes go through the scalar path,
    which reads past its block into the tree's own stream; its neighbours
    stay on the batched path.
    """
    assert _assert_matches_sequential(10000, 100, [0, 1, 1, 1, 2], [7, 1548, 3]) == 1


def test_lemire_rejection_in_a_first_draw():
    """Seed 178745's first ``choice(1000, 31)`` draw (the sqrt rule) hits one."""
    assert _assert_matches_sequential(1000, 31, [0, 0, 1], [178745, 2]) == 1


@pytest.mark.parametrize("p, k", [(20000, 500), (10001, 10000)])
def test_tail_shuffle_branch(p, k):
    """``p > 10000`` and ``k > p // 50``: numpy shuffles the population's tail."""
    assert _assert_matches_sequential(p, k, [0, 0, 1], [11, 12]) == 0


def test_tree_with_a_rejected_word_matches_the_oracle():
    """The rejection reaches a grown tree bit-exactly and is counted."""
    rng = np.random.default_rng(0)
    X = np.floor(rng.exponential(2.0, size=(40, 10000)))
    y = rng.normal(size=40)
    with fresh_telemetry() as telemetry:
        fast = DecisionTreeRegressor(max_features="sqrt", random_state=1548).fit(X, y)
    reference = ReferenceDecisionTreeRegressor(
        max_features="sqrt", random_state=1548
    ).fit(X, y)
    for name in ("_feat", "_thr", "_left", "_right", "_values", "_n_samples"):
        assert np.array_equal(getattr(fast, name), getattr(reference, name)), name
    assert telemetry.as_dict()["counters"]["forest/draw_rejections"] == 1


@pytest.mark.parametrize(
    "p, k, node_tree, seeds",
    [
        (42, 6, [0, 0, 1, 2, 2, 2, 4], [1, 2, 3, 4, 5]),
        (79, 8, list(range(12)), list(range(12))),
        (10000, 100, [0, 1, 1, 1, 2], [7, 1548, 3]),  # a Lemire rejection
        (20000, 500, [0, 0, 1], [11, 12]),  # the tail branch
    ],
)
def test_scalar_and_batched_routes_agree(monkeypatch, p, k, node_tree, seeds):
    """Small levels draw node by node; both routes read the same words."""
    results = []
    for scalar_nodes in (0, len(node_tree) + 1):
        monkeypatch.setattr(tree_batched, "SCALAR_NODES", scalar_nodes)
        words = _WordStreams([np.random.default_rng(seed) for seed in seeds])
        feats, rejected = _draw_candidates(words, np.asarray(node_tree), p, k)
        following = [words.take(t, 3).tolist() for t in range(len(seeds))]
        results.append((feats, rejected, following))
    (feats_a, rejected_a, next_a), (feats_b, rejected_b, next_b) = results
    assert np.array_equal(feats_a, feats_b)
    assert rejected_a == rejected_b
    assert next_a == next_b
    assert rejected_a == _assert_matches_sequential(p, k, node_tree, seeds)


def test_levels_across_block_refills_stay_aligned(monkeypatch):
    """Consecutive levels on one word source, with blocks far smaller than a
    level, equal consecutive ``choice`` calls on the sequential streams."""
    monkeypatch.setattr(tree_batched, "FIRST_BLOCK", 5)
    seeds = [21, 22, 23]
    words = _WordStreams([np.random.default_rng(seed) for seed in seeds])
    sequential = [np.random.default_rng(seed) for seed in seeds]
    for node_tree in ([0, 1, 2], [0, 0, 1, 1, 2, 2], [1, 1, 1, 1, 2], [0] * 12 + [2] * 3):
        feats, _ = _draw_candidates(words, np.asarray(node_tree), 42, 6)
        expected = [sequential[t].choice(42, size=6, replace=False) for t in node_tree]
        assert np.array_equal(feats, np.array(expected))
    for t, slow in enumerate(sequential):
        assert words.take(t, 1)[0] == slow.integers(0, 2**32, dtype=np.uint32)


@pytest.mark.parametrize("scalar_nodes", [0, 10])
def test_rejection_read_crosses_the_end_of_a_block(monkeypatch, scalar_nodes):
    """Seed 1548's two ``choice(10000, 100)`` draws fill a block exactly;
    the rejected word's replacement is the first word of the next block."""
    monkeypatch.setattr(tree_batched, "FIRST_BLOCK", 2 * 199)
    monkeypatch.setattr(tree_batched, "SCALAR_NODES", scalar_nodes)
    words = _WordStreams([np.random.default_rng(1548)])
    sequential = np.random.default_rng(1548)
    feats, rejected = _draw_candidates(words, np.array([0, 0]), 10000, 100)
    expected = [sequential.choice(10000, size=100, replace=False) for _ in range(2)]
    assert np.array_equal(feats, np.array(expected))
    assert rejected == 1
    assert words.read[0] == 2 * 199 + 1  # one word past the first block
    assert words.take(0, 1)[0] == sequential.integers(0, 2**32, dtype=np.uint32)
