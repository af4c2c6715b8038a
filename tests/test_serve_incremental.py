"""Randomized parity: incremental census repair vs cold full recompute.

The serving layer's central claim is that after any sequence of edge
mutations, every tracked root's census — repaired incrementally via the
d_max-ball (:func:`repro.serve.repair.repair_ball`) — is **bit-identical**
to a census computed from scratch on the mutated graph.  These tests
drive k random insertions/deletions through
:meth:`FeatureService.apply_mutation` and compare every root — against
the library's cold census and against the reference oracle — at
``n_jobs`` in {1, 2}, in both serving variants (plain and
masked-start-label).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import CensusConfig, MutableHeteroGraph, SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.exceptions import GraphError
from repro.obs import fresh_telemetry
from repro.runtime import ArtifactStore
from repro.runtime.store import STAGE_CENSUS
from repro.serve import FeatureService, ServeConfig, repair_ball
from repro.serve import repair as repair_module
from repro.serve import service as service_module
from repro.serve.repair import edge_census
from repro.serve.service import VARIANTS
from tests.oracles import ENGINES, reference_census


def _random_graph(seed: int = 0, mean_degree: float = 3.0) -> HeteroGraph:
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes={"a": 16, "b": 14, "c": 10},
        affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
        mean_degree=mean_degree,
        rng=np.random.default_rng(seed),
    )


def _rebuilt(graph) -> HeteroGraph:
    """A fresh graph with ``graph``'s nodes, labels and current edges."""
    ids = graph.node_ids
    return HeteroGraph.from_edges(
        {node: graph.labelset.name(graph.label_of(i)) for i, node in enumerate(ids)},
        [(ids[u], ids[v]) for u, v in graph.edges()],
        labelset=graph.labelset,
    )


def _apply_random_mutations(
    service: FeatureService, k: int, seed: int
) -> list[tuple[str, object, object]]:
    """Drive ``k`` valid random mutations through the service."""
    rng = np.random.default_rng(seed)
    ids = service.graph.node_ids
    n = service.graph.num_nodes
    edges = {(u, v) for u, v in service.graph.edges()}
    applied = []
    for _ in range(k):
        if edges and rng.random() < 0.5:
            u, v = sorted(edges)[int(rng.integers(len(edges)))]
            service.apply_mutation("remove_edge", ids[u], ids[v])
            edges.discard((u, v))
            applied.append(("remove_edge", ids[u], ids[v]))
        else:
            while True:
                u, v = (int(x) for x in rng.integers(n, size=2))
                key = (u, v) if u < v else (v, u)
                if u != v and key not in edges:
                    break
            service.apply_mutation("add_edge", ids[u], ids[v])
            edges.add(key)
            applied.append(("add_edge", ids[u], ids[v]))
    return applied


def _apply_flip_mutations(service: FeatureService, k: int, seed: int) -> None:
    """Drive ``k`` valid random writes, each moving an endpoint across d_max:
    an add at a node of degree d_max or a remove at one of d_max + 1."""
    rng = np.random.default_rng(seed)
    graph, ids, dmax = service.graph, service.graph.node_ids, service.config.dmax
    n = graph.num_nodes
    for _ in range(k):
        adds = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if dmax in (graph.degree(u), graph.degree(v)) and not graph.has_edge(u, v)
        ]
        removes = [
            (u, v) for u, v in graph.edges()
            if dmax + 1 in (graph.degree(u), graph.degree(v))
        ]
        add = not removes or (adds and rng.random() < 0.5)
        pairs = adds if add else removes
        u, v = pairs[int(rng.integers(len(pairs)))]
        service.apply_mutation("add_edge" if add else "remove_edge", ids[u], ids[v])


def _assert_bit_identical(
    service: FeatureService, engine: str = "fast", roots=None
) -> None:
    """Every tracked census must equal a cold recompute on a fresh graph
    (by the library, or by the oracle for ``engine="reference"``).

    ``roots`` limits the check to those roots; by default every root is
    checked, and an untracked one is tracked by the check itself.
    """
    cold_graph = _rebuilt(service.graph)
    roots = list(range(cold_graph.num_nodes)) if roots is None else list(roots)
    for variant in VARIANTS:
        config = service._census_configs[variant]
        if engine == "reference":
            cold = [reference_census(cold_graph, root, config) for root in roots]
        else:
            cold = SubgraphFeatureExtractor(config).census_many(cold_graph, roots)
        for root, expected in zip(roots, cold):
            got = service.census(variant, root)
            assert dict(got) == dict(expected), (
                f"variant={variant} root={root}: repaired census diverged "
                f"from cold recompute"
            )


class TestIncrementalParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "n_jobs, emax, dmax, flips",
        [
            pytest.param(1, 3, None, False, id="1"),
            pytest.param(2, 3, None, False, id="2"),
            # The serve-mixed shape: e_max 2 with a d_max (8 hubs here).
            pytest.param(1, 2, 4, False, id="1-emax2-dmax4"),
            pytest.param(2, 2, 4, False, id="2-emax2-dmax4"),
            # Every write flips a hub; at d_max 0 a flipped node has no
            # edge on the version without the written one.
            pytest.param(1, 2, 2, True, id="1-emax2-dmax2-flips"),
            pytest.param(1, 3, 3, True, id="1-emax3-dmax3-flips"),
            pytest.param(1, 4, 3, True, id="1-emax4-dmax3-flips"),
            pytest.param(1, 3, 0, True, id="1-emax3-dmax0-flips"),
        ],
    )
    def test_random_mutations_bit_identical(self, engine, n_jobs, emax, dmax, flips):
        graph = _random_graph(seed=11)
        service = FeatureService(
            graph, ServeConfig(emax=emax, dmax=dmax, n_jobs=n_jobs)
        )
        service.warm()
        with fresh_telemetry() as telemetry:
            if flips:
                _apply_flip_mutations(service, k=8, seed=23)
            else:
                assert len(_apply_random_mutations(service, k=8, seed=23)) == 8
        if flips:
            assert telemetry.counters["serve/hub_flips"] == 8
        _assert_bit_identical(service, engine)

    def test_parity_with_hub_cutoff(self):
        # d_max pruning is where the repair-ball math is subtle (endpoint
        # exemption, hubs-as-leaves) — exercise it explicitly.
        graph = _random_graph(seed=5, mean_degree=4.0)
        service = FeatureService(graph, ServeConfig(emax=3, dmax=4))
        service.warm()
        _apply_random_mutations(service, k=10, seed=41)
        _assert_bit_identical(service)

    def test_parity_larger_emax(self):
        graph = _random_graph(seed=2, mean_degree=2.5)
        service = FeatureService(graph, ServeConfig(emax=4, dmax=5))
        service.warm()
        _apply_random_mutations(service, k=4, seed=7)
        _assert_bit_identical(service)

    def test_mutation_repairs_only_ball(self):
        graph = _random_graph(seed=3)
        service = FeatureService(graph, ServeConfig(emax=3))
        service.warm()
        before = service.stats()["repaired_roots"]
        ids = service.graph.node_ids
        edges = {(u, v) for u, v in service.graph.edges()}
        rng = np.random.default_rng(0)
        while True:
            u, v = (int(x) for x in rng.integers(service.graph.num_nodes, size=2))
            if u != v and (min(u, v), max(u, v)) not in edges:
                break
        result = service.apply_mutation("add_edge", ids[u], ids[v])
        # The repaired set is exactly the ball; on a sparse graph that is
        # a strict subset of all roots.
        assert result["repaired_roots"] == result["ball_size"] * len(VARIANTS)
        assert result["ball_size"] < service.graph.num_nodes
        assert service.stats()["repaired_roots"] - before == result["repaired_roots"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_endpoints_flip(self, engine):
        # Adding (u, v) between two nodes of degree d_max makes both hubs;
        # sets with two edges at each are enumerated once, from u's seed.
        dmax = 3
        service = FeatureService(_random_graph(seed=0), ServeConfig(emax=4, dmax=dmax))
        service.warm()
        graph, ids = service.graph, service.graph.node_ids

        def shared(pair) -> int:
            return len(set(graph.neighbors(pair[0])) & set(graph.neighbors(pair[1])))

        at_dmax = [node for node in range(graph.num_nodes) if graph.degree(node) == dmax]
        u, v = max(
            ((a, b) for a in at_dmax for b in at_dmax if a < b and not graph.has_edge(a, b)),
            key=shared,
        )
        assert shared((u, v)) > 0
        for op, degree in (("add_edge", dmax + 1), ("remove_edge", dmax)):
            with fresh_telemetry() as telemetry:
                service.apply_mutation(op, ids[u], ids[v])
            assert telemetry.counters["serve/hub_flips"] == 1
            assert graph.degree(u) == graph.degree(v) == degree
            _assert_bit_identical(service, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_flipped_node_tracked_or_untracked(self, engine):
        # The flipped node's own census does not change, and the other
        # roots change alike whether it is tracked or not.
        dmax = 3
        graph = _random_graph(seed=5)
        n, ids = graph.num_nodes, graph.node_ids
        x = next(node for node in range(n) if graph.degree(node) == dmax)
        y = next(
            node for node in range(n)
            if node != x and graph.degree(node) < dmax and not graph.has_edge(x, node)
        )
        for warm in (None, [node for node in range(n) if node != x]):
            service = FeatureService(graph, ServeConfig(emax=3, dmax=dmax))
            service.warm(warm)
            with fresh_telemetry() as telemetry:
                service.apply_mutation("add_edge", ids[x], ids[y])
            assert telemetry.counters["serve/hub_flips"] == 1
            tracked = sorted(service._tracked["plain"])
            assert (x in tracked) == (warm is None)
            _assert_bit_identical(service, engine, roots=tracked)
            service.apply_mutation("remove_edge", ids[x], ids[y])
            _assert_bit_identical(service, engine)


class TestWritePath:
    @pytest.mark.parametrize("flip", ["no-flip", "flip-add", "flip-remove"])
    def test_write_runs_no_census_and_no_store_call(self, flip, monkeypatch):
        # Every write adds or subtracts deltas into the live censuses: the
        # sets through its edge, and those whose count a hub flip changes.
        dmax = 4
        store = _CountingStore()
        service = FeatureService(
            _random_graph(seed=4), ServeConfig(emax=3, dmax=dmax), store=store
        )
        service.warm()
        graph, ids = service.graph, service.graph.node_ids
        n = graph.num_nodes
        if flip == "no-flip":
            u, v = next(
                (u, v) for u in range(n) for v in range(u + 1, n)
                if not graph.has_edge(u, v)
                and max(graph.degree(u), graph.degree(v)) < dmax
            )
        else:
            u = next(node for node in range(n) if graph.degree(node) == dmax)
            v = next(
                node for node in range(n)
                if node != u and graph.degree(node) < dmax
                and not graph.has_edge(u, node)
            )
        op = "add_edge"
        if flip == "flip-remove":
            service.apply_mutation("add_edge", ids[u], ids[v])
            op = "remove_edge"
        credited = []

        def recording(*args):
            credited.append(args[5])  # the deltas it adds into
            return edge_census(*args)

        monkeypatch.setattr(service_module, "edge_census", recording)
        ball = repair_ball(graph, u, v, service._census_configs["plain"])
        calls = sum(store.calls.values())
        with fresh_telemetry() as telemetry:
            receipt = service.apply_mutation(op, ids[u], ids[v])
        counters = telemetry.counters
        assert counters.get("census/calls", 0) == 0
        assert counters["serve/hub_flips"] == int(flip != "no-flip")
        assert counters["serve/repair_subgraphs"] > 0
        assert sum(store.calls.values()) == calls
        assert receipt["ball_size"] == len(ball)
        assert receipt["repaired_roots"] == len(VARIANTS) * len(ball)
        assert len(credited) == 1 + int(flip != "no-flip")
        roots = {root for per_root in credited[0].values() for root in per_root}
        assert {u, v} <= roots <= ball
        _assert_bit_identical(service)


class TestCentroidPatch:
    @pytest.mark.parametrize("dmax", [None, 4], ids=["no-dmax", "dmax4"])
    def test_writes_patch_centroids(self, dmax):
        # A write adds its masked deltas into the centroids, hub flips
        # included: only the first label read builds them.
        config = ServeConfig(emax=2, dmax=dmax)
        service = FeatureService(_random_graph(seed=11), config)
        service.warm()
        ids = service.graph.node_ids
        rng = np.random.default_rng(5)
        with fresh_telemetry() as telemetry:
            service.label(ids[0])
            for write in range(16):
                _apply_random_mutations(service, k=1, seed=100 + write)
                service.label(ids[int(rng.integers(len(ids)))])
        assert telemetry.counters["serve/centroid_builds"] == 1
        assert (telemetry.counters["serve/hub_flips"] > 0) == (dmax is not None)
        patched = service._centroids
        service._centroids = None
        assert patched == service._build_centroids()
        cold = FeatureService(_rebuilt(service.graph), config)
        cold.warm()
        for node in ids:
            assert service.label(node) == cold.label(node)

    def test_newly_tracked_root_joins_the_centroids(self):
        # The centroids sum the tracked masked roots, so a root first
        # tracked by a read must be in them before a write patches it.
        service = FeatureService(_random_graph(seed=11), ServeConfig(emax=2))
        ids = service.graph.node_ids
        service.warm(range(10))
        service.label(ids[0])
        service.label(ids[20])  # tracks root 20
        _apply_random_mutations(service, k=6, seed=7)
        patched = service._centroids
        service._centroids = None
        assert patched == service._build_centroids()


@pytest.fixture
def tiny_shape_memo(monkeypatch):
    """The write path's shape memo, cleared every two shapes."""
    monkeypatch.setattr(repair_module, "SHAPE_CODES_CAP", 2)


@pytest.mark.usefixtures("tiny_shape_memo")
class TestIncrementalParityTinyShapeMemo(TestIncrementalParity):
    """Clearing the shape memo only costs re-encodes: parity holds, hub
    flips included."""


@pytest.mark.usefixtures("tiny_shape_memo")
class TestCentroidPatchTinyShapeMemo(TestCentroidPatch):
    """The centroid patches, with the shape memo cleared every two shapes."""


class _CountingStore(ArtifactStore):
    """An artifact store that tallies every keyed call by method name."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: Counter = Counter()

    def get(self, *args):
        self.calls["get"] += 1
        return super().get(*args)

    def put(self, *args):
        self.calls["put"] += 1
        return super().put(*args)

    def discard(self, *args):
        self.calls["discard"] += 1
        return super().discard(*args)

    def move(self, *args):
        self.calls["move"] += 1
        return super().move(*args)


def _tracked_entries(service: FeatureService) -> int:
    return sum(len(service._tracked[variant]) for variant in VARIANTS)


class TestWriteStoreTraffic:
    def test_store_traffic_scales_with_ball(self):
        # A write makes no store call, hub flips included: it patches the
        # live censuses, and the store keeps the cold ones.
        store = _CountingStore()
        service = FeatureService(
            _random_graph(seed=4), ServeConfig(emax=3, dmax=4), store=store
        )
        service.warm()
        calls = sum(store.calls.values())
        with fresh_telemetry() as telemetry:
            _apply_random_mutations(service, k=30, seed=0)
        assert telemetry.counters["serve/hub_flips"] > 0
        assert sum(store.calls.values()) == calls
        # Re-warming tracked roots is free: their live censuses are current.
        service.warm()
        assert sum(store.calls.values()) == calls
        # One entry per tracked root per variant: no superseded entry leaks.
        assert store.stage_entries(STAGE_CENSUS) == _tracked_entries(service)
        assert service.migrated_roots > 0
        _assert_bit_identical(service)

    def test_add_then_remove_restores_stored_entries(self):
        # Unaffected roots keep their entries under the fingerprint they
        # were computed on; once the pair is removed again, those keys are
        # current once more and a new service on the original graph is
        # served entirely from the shared store.
        graph = _random_graph(seed=6)
        config = ServeConfig(emax=3)
        store = ArtifactStore()
        service = FeatureService(graph, config, store=store)
        service.warm()
        ids = service.graph.node_ids
        u, v = next(
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if not graph.has_edge(u, v)
        )
        added = service.apply_mutation("add_edge", ids[u], ids[v])
        removed = service.apply_mutation("remove_edge", ids[u], ids[v])
        assert removed["fingerprint"] == graph.fingerprint() != added["fingerprint"]
        assert store.stage_entries(STAGE_CENSUS) == _tracked_entries(service)

        hits = store.stage_hits.get(STAGE_CENSUS, 0)
        misses = store.stage_misses.get(STAGE_CENSUS, 0)
        fresh = FeatureService(graph, config, store=store)
        cold = FeatureService(graph, config)
        for node in ids:
            for masked in (False, True):
                assert fresh.features(node, masked=masked) == cold.features(
                    node, masked=masked
                )
        assert store.stage_hits.get(STAGE_CENSUS, 0) - hits == 2 * graph.num_nodes
        assert store.stage_misses.get(STAGE_CENSUS, 0) == misses

    def test_evicted_roots_stay_tracked(self):
        # A bounded store may evict a tracked root's entry; the live
        # census still holds it, so the root stays tracked and correct.
        store = ArtifactStore(max_entries=16)
        service = FeatureService(
            _random_graph(seed=8), ServeConfig(emax=3), store=store
        )
        service.warm()
        assert store.evictions > 0
        _apply_random_mutations(service, k=6, seed=3)
        assert all(
            len(service._tracked[variant]) == service.graph.num_nodes
            for variant in VARIANTS
        )
        _assert_bit_identical(service)

    def test_stats_never_sizes_the_store(self, monkeypatch):
        service = FeatureService(_random_graph(seed=1), ServeConfig(emax=2))
        service.warm()

        def forbidden(self):
            raise AssertionError("stats() pickled the store")

        monkeypatch.setattr(ArtifactStore, "approx_payload_bytes", forbidden)
        stats = service.handle({"op": "stats"})
        assert stats["store"] == {
            "entries": 2 * service.graph.num_nodes,
            "hits": service.store.hits,
            "misses": service.store.misses,
            "evictions": 0,
        }


class TestRepairBall:
    def test_ball_radius_is_emax_minus_one(self):
        # Path p0-p1-p2-p3-p4-p5; mutate around the middle edge (p2, p3).
        labels = {f"p{i}": "A" for i in range(6)}
        edges = [(f"p{i}", f"p{i+1}") for i in range(5)]
        graph = HeteroGraph.from_edges(labels, edges)
        u, v = graph.index("p2"), graph.index("p3")
        ball = repair_ball(graph, u, v, CensusConfig(max_edges=2))
        # Radius 1 from {p2, p3}.
        assert ball == {graph.index(p) for p in ("p1", "p2", "p3", "p4")}
        ball = repair_ball(graph, u, v, CensusConfig(max_edges=3))
        assert ball == set(range(6))

    def test_hub_interior_not_expanded(self):
        # Star centre h (degree 4 > dmax) sits between the mutated edge
        # and the far node: h joins the ball, nodes behind it do not.
        labels = {n: "A" for n in ("u", "v", "h", "s1", "s2", "far")}
        edges = [("u", "v"), ("v", "h"), ("h", "s1"), ("h", "s2"), ("h", "far")]
        graph = HeteroGraph.from_edges(labels, edges)
        config = CensusConfig(max_edges=4, max_degree=3)
        ball = repair_ball(graph, graph.index("u"), graph.index("v"), config)
        assert graph.index("h") in ball
        assert graph.index("far") not in ball

    def test_endpoints_exempt_from_hub_pruning(self):
        # Endpoint v is itself a hub; its neighbours must still enter the
        # ball because the mutation flips v's degree.
        labels = {n: "A" for n in ("u", "v", "n1", "n2", "n3", "n4")}
        edges = [("u", "v")] + [("v", f"n{i}") for i in range(1, 5)]
        graph = HeteroGraph.from_edges(labels, edges)
        config = CensusConfig(max_edges=3, max_degree=2)
        ball = repair_ball(graph, graph.index("u"), graph.index("v"), config)
        for i in range(1, 5):
            assert graph.index(f"n{i}") in ball


class TestMutableGraphParity:
    def test_mutations_match_from_edges_rebuild(self):
        graph = _random_graph(seed=9)
        mutable = MutableHeteroGraph.from_graph(graph)
        rng = np.random.default_rng(17)
        edges = {(u, v) for u, v in graph.edges()}
        ids = graph.node_ids
        for _ in range(20):
            if edges and rng.random() < 0.5:
                u, v = sorted(edges)[int(rng.integers(len(edges)))]
                mutable.remove_edge(ids[u], ids[v])
                edges.discard((u, v))
            else:
                while True:
                    u, v = (int(x) for x in rng.integers(graph.num_nodes, size=2))
                    key = (u, v) if u < v else (v, u)
                    if u != v and key not in edges:
                        break
                mutable.add_edge(ids[u], ids[v])
                edges.add(key)
        names = graph.labelset.names
        rebuilt = HeteroGraph.from_edges(
            {ids[i]: names[int(graph.labels[i])] for i in range(graph.num_nodes)},
            [(ids[u], ids[v]) for u, v in sorted(edges)],
        )
        assert mutable.num_edges == rebuilt.num_edges
        assert mutable.fingerprint() == rebuilt.fingerprint()
        for node in range(graph.num_nodes):
            assert np.array_equal(
                mutable.neighbors(node), rebuilt.neighbors(node)
            )

    def test_service_over_an_mmap_graph(self, tmp_path):
        from repro.core.mmap_graph import MmapGraph
        from repro.io.stream import write_mmap_graph

        graph = _random_graph(seed=5)
        mapped = FeatureService(
            MmapGraph(write_mmap_graph(graph, tmp_path / "g.hmg")), ServeConfig(emax=2)
        )
        in_memory = FeatureService(graph, ServeConfig(emax=2))
        for service in (mapped, in_memory):
            _apply_random_mutations(service, k=6, seed=3)
        assert mapped.graph.fingerprint() == in_memory.graph.fingerprint()
        _assert_bit_identical(mapped)

    def test_apply_mutation_validates(self):
        graph = _random_graph(seed=1)
        service = FeatureService(graph, ServeConfig(emax=3))
        ids = service.graph.node_ids
        u, v = next(iter(service.graph.edges()))
        from repro.net import NetError

        with pytest.raises(GraphError):
            service.apply_mutation("add_edge", ids[u], ids[v])  # duplicate
        with pytest.raises(GraphError):
            service.apply_mutation("add_edge", ids[u], ids[u])  # self loop
        with pytest.raises(NetError) as excinfo:
            service.apply_mutation("add_edge", "no-such-node", ids[v])
        assert excinfo.value.code == "unknown_node"
        removed = service.apply_mutation("remove_edge", ids[u], ids[v])
        assert removed["op"] == "remove_edge"
        with pytest.raises(GraphError):
            service.apply_mutation("remove_edge", ids[u], ids[v])  # gone
