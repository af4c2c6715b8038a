"""Tests for the skip-gram trainer and the three embedding baselines."""

import hashlib

import numpy as np
import pytest

from repro.core.graph import HeteroGraph
from repro.embeddings import DeepWalk, LINE, Node2Vec, SkipGramTrainer
from repro.embeddings.skipgram import _scatter_rows, walks_to_pairs
from repro.embeddings.walks import uniform_random_walks
from repro.runtime.context import RunContext
from tests.oracles import (
    ENGINES,
    ReferenceDeepWalk,
    ReferenceLINE,
    ReferenceSkipGramTrainer,
    pairs_per_walk,
)

#: The library class and its oracle, per parametrised ``engine`` case.
TRAINERS = {"fast": SkipGramTrainer, "reference": ReferenceSkipGramTrainer}
DEEPWALKS = {"fast": DeepWalk, "reference": ReferenceDeepWalk}
LINES = {"fast": LINE, "reference": ReferenceLINE}


@pytest.fixture(scope="module")
def community_graph():
    """Two dense communities with a thin bridge; labels alternate."""
    rng = np.random.default_rng(0)
    half = 30
    labels = {f"v{i}": ("A" if i % 2 else "B") for i in range(2 * half)}
    edges = set()
    for block in range(2):
        for _ in range(250):
            a, b = rng.integers(0, half, 2)
            if a != b:
                u, v = sorted((block * half + a, block * half + b))
                edges.add((f"v{u}", f"v{v}"))
    for _ in range(4):
        a, b = rng.integers(0, half, 2)
        edges.add((f"v{a}", f"v{half + b}"))
    return HeteroGraph.from_edges(labels, edges), half


def _community_separation(embedding: np.ndarray, half: int) -> float:
    normed = embedding / (np.linalg.norm(embedding, axis=1, keepdims=True) + 1e-12)
    within = float((normed[:half] @ normed[:half].T).mean())
    across = float((normed[:half] @ normed[half:].T).mean())
    return within - across


class TestWalksToPairs:
    def test_pairs_within_window_matrix(self):
        rng = np.random.default_rng(0)
        walks = np.array([[1, 2, 3, 4, 5]], dtype=np.int64)
        pairs = walks_to_pairs(walks, window=2, rng=rng)
        assert pairs.shape[1] == 2
        positions = {v: i for i, v in enumerate(walks[0])}
        for centre, context in pairs:
            assert abs(positions[centre] - positions[context]) <= 2

    def test_pairs_within_window_legacy_list(self):
        rng = np.random.default_rng(0)
        walks = [np.array([1, 2, 3, 4, 5])]
        pairs = walks_to_pairs(walks, window=2, rng=rng)
        assert pairs.shape[1] == 2

    def test_short_walks_skipped(self):
        rng = np.random.default_rng(0)
        assert walks_to_pairs([np.array([7])], window=3, rng=rng).shape == (0, 2)
        padded = np.array([[7, -1, -1]], dtype=np.int64)
        assert pairs_per_walk(padded, window=3, rng=rng).shape == (0, 2)

    def test_padded_rows_never_pair_the_sentinel(self):
        rng = np.random.default_rng(1)
        walks = np.array([[0, 1, 2, -1, -1], [3, -1, -1, -1, -1]], dtype=np.int64)
        pairs = walks_to_pairs(walks, window=3, rng=rng)
        assert (pairs >= 0).all()

    def test_engines_match_on_full_corpus(self):
        """On a pad-free corpus both extraction engines consume the rng
        identically, so their pair multisets coincide exactly."""
        graph = HeteroGraph.from_edges(
            {"a": "X", "b": "X", "c": "X"},
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        walks = uniform_random_walks(graph, num_walks=3, walk_length=6, rng=0)
        fast = walks_to_pairs(walks, window=3, rng=np.random.default_rng(5))
        reference = pairs_per_walk(walks, window=3, rng=np.random.default_rng(5))
        assert fast.shape == reference.shape
        key = lambda arr: sorted(map(tuple, arr.tolist()))
        assert key(fast) == key(reference)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            walks_to_pairs([], window=0, rng=np.random.default_rng(0))

    def test_bad_engine(self):
        with pytest.raises(TypeError):
            walks_to_pairs(
                np.zeros((1, 3), dtype=np.int64),
                window=1,
                rng=np.random.default_rng(0),
                engine="turbo",
            )


class TestSkipGram:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_output_shape(self, engine):
        walks = [np.array([0, 1, 2, 1, 0])] * 20
        trainer = TRAINERS[engine](dim=8, window=2, seed=0)
        embedding = trainer.fit(walks, num_nodes=3)
        assert embedding.shape == (3, 8)
        assert np.all(np.isfinite(embedding))

    def test_matrix_corpus_accepted(self):
        walks = np.tile(np.array([0, 1, 2, 1, 0], dtype=np.int64), (20, 1))
        embedding = SkipGramTrainer(dim=8, window=2, seed=0).fit(walks, num_nodes=3)
        assert embedding.shape == (3, 8)

    def test_empty_corpus_rejected(self):
        trainer = SkipGramTrainer(dim=4, seed=0)
        with pytest.raises(ValueError):
            trainer.fit([np.array([1])], num_nodes=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cooccurring_nodes_closer(self, engine):
        """Nodes that always co-occur end up more similar than strangers."""
        walks = []
        for _ in range(300):
            walks.append(np.array([0, 1] * 4))
            walks.append(np.array([2, 3] * 4))
        embedding = TRAINERS[engine](dim=16, window=2, epochs=3, seed=0).fit(walks, 4)
        normed = embedding / np.linalg.norm(embedding, axis=1, keepdims=True)
        together = normed[0] @ normed[1]
        apart = normed[0] @ normed[3]
        assert together > apart

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deterministic(self, engine):
        walks = np.tile(np.array([0, 1, 2, 1, 0], dtype=np.int64), (30, 1))
        a = TRAINERS[engine](dim=8, window=2, seed=3).fit(walks, 3)
        b = TRAINERS[engine](dim=8, window=2, seed=3).fit(walks, 3)
        assert np.array_equal(a, b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SkipGramTrainer(dim=0)
        with pytest.raises(ValueError):
            SkipGramTrainer(negative=0)
        with pytest.raises(ValueError):
            SkipGramTrainer(epochs=0)
        with pytest.raises(TypeError):
            SkipGramTrainer(engine="turbo")


class TestBaselines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_deepwalk_separates_communities(self, community_graph, engine):
        graph, half = community_graph
        model = DEEPWALKS[engine](
            dim=24, num_walks=10, walk_length=30, window=5, seed=0
        )
        model.fit(graph)
        assert _community_separation(model.embedding_, half) > 0.2

    def test_node2vec_separates_communities(self, community_graph):
        graph, half = community_graph
        model = Node2Vec(dim=24, num_walks=10, walk_length=30, window=5, seed=0)
        model.fit(graph)
        assert _community_separation(model.embedding_, half) > 0.2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_line_separates_communities(self, community_graph, engine):
        graph, half = community_graph
        model = LINES[engine](dim=24, num_samples=60_000, seed=0)
        model.fit(graph)
        assert _community_separation(model.embedding_, half) > 0.1

    def test_line_concatenates_two_halves(self, community_graph):
        graph, _ = community_graph
        model = LINE(dim=10, num_samples=5_000, seed=0).fit(graph)
        assert model.embedding_.shape == (graph.num_nodes, 10)

    def test_line_needs_edges(self):
        graph = HeteroGraph.from_edges({"a": "A"}, [])
        with pytest.raises(ValueError):
            LINE(dim=4, num_samples=10).fit(graph)

    def test_transform_before_fit_raises(self, community_graph):
        graph, _ = community_graph
        with pytest.raises(RuntimeError):
            DeepWalk().transform([0])
        with pytest.raises(RuntimeError):
            LINE().transform([0])

    def test_transform_selects_rows(self, community_graph):
        graph, _ = community_graph
        model = DeepWalk(dim=8, num_walks=2, walk_length=10, seed=0).fit(graph)
        rows = model.transform([3, 5])
        assert np.array_equal(rows[0], model.embedding_[3])
        assert np.array_equal(rows[1], model.embedding_[5])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deterministic_with_seed(self, community_graph, engine):
        graph, _ = community_graph
        a = DEEPWALKS[engine](dim=8, num_walks=2, walk_length=10, seed=4).fit(graph)
        b = DEEPWALKS[engine](dim=8, num_walks=2, walk_length=10, seed=4).fit(graph)
        assert np.array_equal(a.embedding_, b.embedding_)

    def test_line_dim_validation(self):
        with pytest.raises(ValueError):
            LINE(dim=1)

    def test_line_engine_validation(self):
        with pytest.raises(TypeError):
            LINE(engine="turbo")
        with pytest.raises(TypeError):
            LINE(n_jobs=0)


class TestNJobsReproducibility:
    """Same seed => identical embeddings for any worker count (satellite)."""

    @pytest.fixture(scope="class")
    def small_graph(self):
        rng = np.random.default_rng(1)
        labels = {f"v{i}": "X" for i in range(20)}
        edges = set()
        while len(edges) < 50:
            a, b = rng.integers(0, 20, 2)
            if a != b:
                edges.add((f"v{min(a, b)}", f"v{max(a, b)}"))
        return HeteroGraph.from_edges(labels, edges)

    def test_deepwalk_n_jobs_identical(self, small_graph):
        kwargs = dict(dim=8, num_walks=4, walk_length=10, window=3, seed=7)
        serial = DeepWalk(ctx=RunContext(n_jobs=1), **kwargs).fit(small_graph)
        parallel = DeepWalk(ctx=RunContext(n_jobs=4), **kwargs).fit(small_graph)
        assert np.array_equal(serial.embedding_, parallel.embedding_)

    def test_node2vec_n_jobs_identical(self, small_graph):
        kwargs = dict(
            dim=8, num_walks=4, walk_length=10, window=3, p=0.5, q=2.0, seed=7
        )
        serial = Node2Vec(ctx=RunContext(n_jobs=1), **kwargs).fit(small_graph)
        parallel = Node2Vec(ctx=RunContext(n_jobs=4), **kwargs).fit(small_graph)
        assert np.array_equal(serial.embedding_, parallel.embedding_)

    def test_line_n_jobs_identical(self, small_graph):
        kwargs = dict(dim=8, num_samples=4_000, seed=7)
        serial = LINE(ctx=RunContext(n_jobs=1), **kwargs).fit(small_graph)
        parallel = LINE(ctx=RunContext(n_jobs=4), **kwargs).fit(small_graph)
        assert np.array_equal(serial.embedding_, parallel.embedding_)


class TestScatterRows:
    """The flat 1-D scatter adds exactly what ``np.add.at`` adds by rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_rows", [7, 2048])
    def test_matches_row_scatter_bitwise(self, dtype, num_rows):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((13, 6)).astype(dtype)
        # Duplicate-heavy: most rows repeat; 2048 rows is far more than
        # the table has, so each row takes a long chain of additions.
        rows = rng.integers(0, 4, size=num_rows)
        values = (rng.standard_normal((num_rows, 6)) * 1e3).astype(dtype)
        expected = table.copy()
        np.add.at(expected, rows, values)
        _scatter_rows(table, rows, values)
        assert table.tobytes() == expected.tobytes()


class TestEmbeddingDigests:
    """Pinned bits of every trainer: any change to an SGD step, its random
    stream or its rounding shows here, not only in the benchmark's scores.

    The digests assume numpy's float32 ``exp`` and the BLAS ``sgemm``
    round as on the machine that recorded them.  If they fail on a new
    CPU family or BLAS build with no code change, re-record them there
    from the previous commit, never from the change under test.
    """

    DIGESTS = {
        "deepwalk": "90578521341c302936ffdcfb9ee85c4ff25df6f2148900793045a0c24cd483f5",
        "node2vec": "ef430a22eb6a1e3b11e8d599b7fb059d4576868921ef45d075388e6cc16aec51",
        "line": "d433d42a3529f4cad59c750db617cf1a0eeb6789d4eaca723f19e6fa16a10d53",
        "line_batch_over_nodes": "775b7c5fa1a9ec68b08ee079ac2b07aa99c53954d4dab6be8bc60ad0dd85488c",
    }

    MODELS = {
        "deepwalk": lambda: DeepWalk(dim=8, num_walks=10, walk_length=20, window=3, seed=7),
        "node2vec": lambda: Node2Vec(
            dim=8, num_walks=10, walk_length=20, window=3, p=0.5, q=2.0, seed=7
        ),
        "line": lambda: LINE(dim=8, num_samples=4_000, batch_size=32, seed=7),
        "line_batch_over_nodes": lambda: LINE(
            dim=9, num_samples=4_000, batch_size=256, seed=7
        ),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(1)
        labels = {f"v{i}": "XY"[i % 2] for i in range(40)}
        edges = set()
        while len(edges) < 120:
            a, b = rng.integers(0, 40, 2)
            if a != b:
                edges.add((f"v{min(a, b)}", f"v{max(a, b)}"))
        return HeteroGraph.from_edges(labels, sorted(edges))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_embedding_digest(self, graph, name):
        embedding = self.MODELS[name]().fit(graph).embedding_
        assert embedding.shape[0] == graph.num_nodes
        assert hashlib.sha256(embedding.tobytes()).hexdigest() == self.DIGESTS[name]
