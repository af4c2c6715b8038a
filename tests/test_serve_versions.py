"""Published versions of the feature service, and reads that answer from them.

A :class:`FeatureService` publishes an immutable version after every state
change; the daemon answers reads of tracked roots on its event loop from
the version they start on, while one writer thread builds the next.  These
tests pin what that promises: every published version equals a cold
recompute (its rank matrix included), ``rank`` scores are bit-identical to
the per-pair cosine loop, and a read never sees a write half done.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.graph import HeteroGraph, MutableHeteroGraph
from repro.obs import fresh_telemetry
from repro.serve import FeatureService, ServeConfig, ServeDaemon
from repro.serve import repair as repair_module
from repro.serve import service as service_module
from repro.serve.service import VARIANTS, _cosine, _norm


def _graph(seed: int = 0, sizes=(16, 14, 10)) -> HeteroGraph:
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes=dict(zip("abc", sizes)),
        affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
        mean_degree=3.0,
        rng=np.random.default_rng(seed),
    )


def _rebuilt(graph) -> HeteroGraph:
    ids = graph.node_ids
    return HeteroGraph.from_edges(
        {node: graph.labelset.name(graph.label_of(i)) for i, node in enumerate(ids)},
        [(ids[u], ids[v]) for u, v in graph.edges()],
        labelset=graph.labelset,
    )


def _writes(graph, k: int, seed: int) -> list[dict]:
    """``k`` valid writes in order: removes of present edges, adds of absent."""
    rng = np.random.default_rng(seed)
    ids, n = graph.node_ids, graph.num_nodes
    edges = set(graph.edges())
    writes = []
    while len(writes) < k:
        if rng.random() < 0.5:
            u, v = sorted(edges)[int(rng.integers(len(edges)))]
            edges.discard((u, v))
            op = "remove_edge"
        else:
            u, v = sorted(int(x) for x in rng.integers(n, size=2))
            if u == v or (u, v) in edges:
                continue
            edges.add((u, v))
            op = "add_edge"
        writes.append({"id": f"w{len(writes)}", "op": op, "u": ids[u], "v": ids[v]})
    return writes


def _reference_rank(service: FeatureService, node, k: int) -> dict:
    """``rank`` as the per-pair cosine loop over the live counters."""
    live = service._version.counters["plain"]
    root = service.graph.index(node)
    query = live[root]
    scored = sorted(
        (-_cosine(query, live[other], _norm(query), _norm(live[other])), other)
        for other in live
        if other != root
    )
    return {
        "node": str(node),
        "candidates": len(scored),
        "top": [
            {"node": str(service.graph.node_id(other)), "score": -negated}
            for negated, other in scored[:k]
        ],
    }


def _assert_version_is_cold(service: FeatureService) -> None:
    """The published version equals a cold recompute on a fresh graph.

    Live counters are keyed by column id; the service's code table maps
    them back to codes."""
    version, codes = service._version, service._columns.codes

    def by_code(pairs) -> dict:
        return {codes[col]: count for col, count in pairs}

    cold = FeatureService(_rebuilt(service.graph), service.config)
    assert version.fingerprint == cold.graph.fingerprint()
    assert len(version.flat.edge_u) == cold.graph.num_edges
    for variant in VARIANTS:
        for root, census in version.counters[variant].items():
            assert by_code(census.items()) == dict(cold.census(variant, root)), (variant, root)
    # The rank matrix holds exactly the plain counters, with their norms,
    # and keeps its stale entries below the live ones.
    rows = version.rows
    lengths = rows.ends - rows.starts
    assert len(rows.data) <= 2 * lengths.sum()
    assert set(np.flatnonzero(rows.tracked).tolist()) == set(version.counters["plain"])
    for root, census in version.counters["plain"].items():
        start, end = rows.starts[root], rows.ends[root]
        entries = zip(rows.indices[start:end].tolist(), rows.data[start:end].tolist())
        assert by_code(entries) == by_code(census.items())
        assert rows.norms[root] == _norm(census)
    if version.centroids is not None:
        expected: dict = {}
        for root, census in version.counters["masked"].items():
            expected.setdefault(service.graph.label_of(root), Counter()).update(census)
        assert version.centroids == expected


class TestWarm:
    def test_rewarm_censuses_nothing(self):
        graph = _graph(sizes=(16, 14, 10))
        assert graph.num_nodes == 40
        service = FeatureService(graph, ServeConfig(emax=2))
        with fresh_telemetry() as telemetry:
            assert service.warm() == 40
            assert service.warm() == 0
        assert telemetry.counters["serve/warmed_roots"] == 40

    def test_counts_roots_new_to_either_variant(self):
        service = FeatureService(_graph(), ServeConfig(emax=2))
        service.features(service.graph.node_ids[3])  # tracks root 3, plain only
        assert service.warm([3, 3, 4]) == 2


class TestPublishedVersions:
    @pytest.mark.parametrize("dmax", [None, 3], ids=["no-dmax", "dmax3"])
    def test_every_version_equals_a_cold_recompute(self, dmax):
        service = FeatureService(_graph(seed=2), ServeConfig(emax=2, dmax=dmax))
        service.warm(range(0, service.graph.num_nodes, 2))
        service.label(service.graph.node_ids[0])  # build the centroids
        _assert_version_is_cold(service)
        for write in _writes(service.graph, 24, seed=5):
            service.handle(write)
            _assert_version_is_cold(service)
        # A read of an untracked root tracks it in a new version.
        untracked = service.graph.node_ids[1]
        before = service._version
        service.rank(untracked)
        assert service._version is not before
        _assert_version_is_cold(service)

    def test_a_write_leaves_the_old_version_intact(self):
        service = FeatureService(_graph(seed=3), ServeConfig(emax=2))
        service.warm()
        writes = _writes(service.graph, 6, seed=1)
        node = writes[0]["u"]
        old = service._version
        answer = service.features(node)
        counters = {v: {r: Counter(c) for r, c in old.counters[v].items()} for v in VARIANTS}
        for write in writes:
            service.handle(write)
        assert service._version is not old
        assert old.counters == counters
        # The memoised answer went stale with its census: no stale hit.
        cold = FeatureService(_rebuilt(service.graph), service.config)
        assert service.features(node) == cold.features(node) != answer


class TestCodeTable:
    """Live censuses, deltas, centroids and rank rows are keyed by column id
    in one append-only code table; codes come back at the API edge."""

    @pytest.mark.parametrize("dmax", [None, 3], ids=["no-dmax", "dmax3"])
    def test_answers_after_writes_equal_a_cold_service(self, dmax):
        service = FeatureService(_graph(seed=6), ServeConfig(emax=3, dmax=dmax))
        service.warm()
        table = service._columns
        codes = list(table.codes)
        with fresh_telemetry() as telemetry:
            for write in _writes(service.graph, 16, seed=4):
                service.handle(write)
        # Append-only: earlier columns keep their codes.
        assert table.codes[: len(codes)] == codes
        assert [table[code] for code in table.codes] == list(range(len(table)))
        assert telemetry.gauges["serve/codes"] == len(table) > 0
        cold = FeatureService(_rebuilt(service.graph), service.config)
        for root, node in enumerate(service.graph.node_ids):
            for variant in VARIANTS:
                assert service.census(variant, root) == cold.census(variant, root)
            for masked in (False, True):
                assert service.features(node, masked=masked) == cold.features(node, masked=masked)

    def test_shape_memo_is_shared_and_capped(self, monkeypatch):
        service = FeatureService(_graph(seed=7), ServeConfig(emax=2, dmax=3))
        service.warm()
        writes = _writes(service.graph, 12, seed=8)
        service.handle(writes[0])
        shapes = service._columns.shapes
        assert shapes  # kept across writes
        monkeypatch.setattr(repair_module, "SHAPE_CODES_CAP", 2)
        for write in writes[1:]:
            service.handle(write)
            assert len(shapes) <= 2
        _assert_version_is_cold(service)

    def test_old_versions_rank_rows_stay_unchanged(self):
        service = FeatureService(_graph(seed=3), ServeConfig(emax=2, dmax=3))
        service.warm()
        service.label(service.graph.node_ids[0])
        old = service._version
        arrays = {name: getattr(old.rows, name).copy() for name in vars(old.rows)}
        centroids = {label: Counter(c) for label, c in old.centroids.items()}
        counters = {v: {r: Counter(c) for r, c in old.counters[v].items()} for v in VARIANTS}
        for write in _writes(service.graph, 10, seed=9):
            service.handle(write)
        assert service._version.rows is not old.rows
        for name, array in arrays.items():
            assert np.array_equal(getattr(old.rows, name), array), name
        assert old.centroids == centroids and old.counters == counters


class TestRankScores:
    @pytest.mark.parametrize("dmax", [None, 3], ids=["no-dmax", "dmax3"])
    def test_rank_equals_the_cosine_loop_bit_for_bit(self, dmax):
        service = FeatureService(_graph(seed=4), ServeConfig(emax=3, dmax=dmax))
        service.warm()
        n = service.graph.num_nodes
        for write in [None, *_writes(service.graph, 8, seed=2)]:
            if write is not None:
                service.handle(write)
            for node in service.graph.node_ids:
                assert service.rank(node, k=n) == _reference_rank(service, node, n)

    def test_fallback_past_int64_dot_products_matches(self, monkeypatch):
        service = FeatureService(_graph(seed=4), ServeConfig(emax=3))
        service.warm()
        nodes = service.graph.node_ids
        matrix = [service.rank(node, k=len(nodes)) for node in nodes]
        monkeypatch.setattr(service_module, "_EXACT_DOTS", 0.0)
        assert [service.rank(node, k=len(nodes)) for node in nodes] == matrix


async def _open(daemon):
    return await asyncio.open_unix_connection(str(daemon.socket_path))


async def _send(reader, writer, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    return json.loads(await reader.readline())


async def _with_daemon(daemon: ServeDaemon, scenario) -> None:
    ready = asyncio.Event()
    task = asyncio.create_task(daemon.run(ready))
    await ready.wait()
    try:
        await asyncio.wait_for(scenario(), 30.0)
    finally:
        daemon.stop()
        await asyncio.wait_for(task, 10.0)


class TestReadsDuringWrites:
    def test_reads_answer_a_prefix_of_the_writes_never_going_back(
        self, tmp_path, monkeypatch
    ):
        graph = _graph(seed=6)
        config = ServeConfig(emax=2, dmax=4)
        writes = _writes(graph, 6, seed=3)
        nodes = sorted({w[end] for w in writes for end in ("u", "v")}, key=str)[:6]
        reads = [
            {"op": op, "node": node, **({"k": 5} if op == "rank" else {})}
            for node in nodes
            for op in ("features", "rank", "label")
        ]
        # The cold answer to every read after each prefix of the writes.
        prefix_graph = MutableHeteroGraph.from_graph(graph)
        expected = []
        for p in range(len(writes) + 1):
            if p:
                write = writes[p - 1]
                getattr(prefix_graph, write["op"])(write["u"], write["v"])
            cold = FeatureService(_rebuilt(prefix_graph), config)
            cold.warm()
            expected.append([json.loads(json.dumps(cold.handle(r))) for r in reads])

        service = FeatureService(graph, config)
        service.warm()
        service.label(nodes[0])  # centroids built: every read answers on the loop
        census = service_module.edge_census

        def slow_census(*args):
            time.sleep(0.02)  # the graph is mutated, the version not yet published
            return census(*args)

        monkeypatch.setattr(service_module, "edge_census", slow_census)
        daemon = ServeDaemon(service, tmp_path / "s.sock")
        answers = []

        async def scenario():
            (wr, ww), (rr, rw) = await _open(daemon), await _open(daemon)

            async def write_all():
                for write in writes:
                    assert (await _send(wr, ww, write))["ok"]

            writing = asyncio.create_task(write_all())
            i = 0
            while not writing.done() or i % len(reads):
                request = {**reads[i % len(reads)], "id": i}
                response = await _send(rr, rw, request)
                assert response["ok"], response
                answers.append((i % len(reads), response["result"]))
                i += 1
            await writing
            for index, request in enumerate(reads):  # after the last write
                answers.append((index, (await _send(rr, rw, request))["result"]))
            ww.close()
            rw.close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fresh_telemetry():
                asyncio.run(_with_daemon(daemon, scenario))
        finally:
            sys.setswitchinterval(switch)
        assert len(answers) > 2 * len(reads)
        # Each answer is some prefix's, and on one connection the prefixes
        # never go back: take the earliest prefix not before the last one.
        current = 0
        for index, result in answers:
            later = [p for p in range(current, len(writes) + 1) if expected[p][index] == result]
            assert later, f"read {reads[index]} answered no prefix from {current} on"
            current = later[0]
        assert current == len(writes)

    def test_tracked_read_answers_while_a_write_blocks(self, tmp_path):
        graph = _graph(seed=7)
        service = FeatureService(graph, ServeConfig(emax=2))
        service.warm()
        inner, release = service.handle, threading.Event()

        def blocking_handle(request):
            if request["op"] == "add_edge":
                release.wait(5)
            return inner(request)

        service.handle = blocking_handle
        (write,) = [w for w in _writes(graph, 8, seed=4) if w["op"] == "add_edge"][:1]
        node = graph.node_ids[2]
        before = json.loads(json.dumps(service.features(node)))
        daemon = ServeDaemon(service, tmp_path / "s.sock")

        async def scenario():
            (wr, ww), (rr, rw) = await _open(daemon), await _open(daemon)
            writing = asyncio.create_task(_send(wr, ww, write))
            await asyncio.sleep(0.1)
            try:
                read = await asyncio.wait_for(
                    _send(rr, rw, {"id": 1, "op": "features", "node": node}), 2.0
                )
                assert read["ok"] and read["result"] == before
                assert not writing.done()
            finally:
                release.set()
            assert (await asyncio.wait_for(writing, 5.0))["ok"]
            ww.close()
            rw.close()

        with fresh_telemetry() as telemetry:
            asyncio.run(_with_daemon(daemon, scenario))
            distributions = telemetry.as_dict()["distributions"]
        assert distributions["serve/writer_wait_s"]["count"] == 1
        assert distributions["serve/latency_s/features"]["count"] == 1
        assert distributions["serve/latency_s/add_edge"]["count"] == 1
