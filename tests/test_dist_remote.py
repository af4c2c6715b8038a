"""Remote census tests: parity, fault tolerance, worker RPC.

The headline contract: a census taken by ``repro worker`` daemons is
**bit-identical** to ``subgraph_census`` on the whole graph for every
engine, at any worker count, on dict and mmap storage — and a context
with ``workers`` alone is enough to send it there.  Workers hold whole
graphs keyed by fingerprint, so one fleet can serve several graphs in
turn without mixing them up.  The fault-tolerance contract: a worker
killed mid-census loses nothing; its chunk is reassigned to a survivor
and the run completes with the same results.

In-process workers (one thread + event loop each) cover parity and the
worker protocol; the kill test uses a real ``repro worker`` subprocess
so SIGKILL severs live connections exactly like a machine failure.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.core.mmap_graph import MmapGraph
from repro.core.sampled import SampledCensusConfig
from repro.dist import CensusWorker, RemoteExecutor
from repro.dist.remote import _graph_blob
from repro.exceptions import RPCError
from repro.io.stream import write_mmap_graph
from repro.net import NetClient, NetError, RetryPolicy
from repro.net.protocol import encode_blob
from repro.obs import fresh_telemetry
from repro.runtime.context import RunContext
from tests.fleet import WorkerFleet
from tests.oracles import reference_census

WORKER_COUNTS = (1, 2, 3)
ENGINES = ("fast", "reference", "sampled")


def _random_graph(seed: int = 11, n: int = 36) -> HeteroGraph:
    rng = random.Random(seed)
    nodes = {f"n{i}": rng.choice("ABC") for i in range(n)}
    edges = set()
    while len(edges) < int(n * 2.5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return HeteroGraph.from_edges(
        nodes, [(f"n{i}", f"n{j}") for i, j in sorted(edges)]
    )


def _hub_graph() -> HeteroGraph:
    """A star of stars: ``d_max`` must prune the same hubs remotely."""
    nodes = {"hub": "A"}
    edges = []
    for i in range(8):
        nodes[f"s{i}"] = "B"
        edges.append(("hub", f"s{i}"))
        for j in range(3):
            nodes[f"s{i}_l{j}"] = "C"
            edges.append((f"s{i}", f"s{i}_l{j}"))
    return HeteroGraph.from_edges(nodes, edges)


def _plain_census(graph, roots, config, engine="fast", sampled=None) -> dict:
    """The expected side: ``subgraph_census`` on the whole graph."""
    return {
        root: subgraph_census(graph, root, config, engine=engine, sampled=sampled)
        for root in roots
    }


def _census_map(executor, graph, roots, config, chunksize=4, **kwargs) -> dict:
    """``executor.census_map`` over ``roots`` in chunks, as a root -> census dict."""
    chunks = [roots[i: i + chunksize] for i in range(0, len(roots), chunksize)]
    censuses = executor.census_map(graph, chunks, config, **kwargs)
    return {
        root: census
        for chunk, chunk_censuses in zip(chunks, censuses)
        for root, census in zip(chunk, chunk_censuses)
    }


def _serve_in_thread(worker: CensusWorker):
    """Run ``worker`` on its own loop thread; returns (thread, endpoint)."""
    box = {}

    def serve():
        async def main():
            ready = asyncio.Event()
            task = asyncio.ensure_future(worker.run(ready))
            await ready.wait()
            box["endpoint"] = worker.endpoint
            await task

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while "endpoint" not in box and time.monotonic() < deadline:
        time.sleep(0.02)
    return thread, box["endpoint"]


def _shutdown(endpoint, thread) -> None:
    try:
        with NetClient(endpoint, retry=RetryPolicy(retries=0)) as client:
            client.call({"op": "shutdown"}, timeout=1.0, retry=False)
    except NetError:
        pass
    thread.join(timeout=10)


class TestRemoteParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_local_pool(self, engine, workers):
        graph = _random_graph()
        config = CensusConfig(max_edges=3)
        sampled = (
            SampledCensusConfig(budget=150, seed=5) if engine == "sampled" else None
        )
        roots = list(range(graph.num_nodes))
        if engine == "reference":
            # The oracle's expected side, computed locally; the workers
            # run the library's exact census.
            local = {root: reference_census(graph, root, config) for root in roots}
            engine = "fast"
        else:
            local = _plain_census(graph, roots, config, engine, sampled)
        with WorkerFleet(workers) as fleet:
            with fresh_telemetry() as telemetry:
                remote = _census_map(
                    RemoteExecutor(fleet.specs),
                    graph,
                    roots,
                    config,
                    engine=engine,
                    sampled=sampled,
                )
                counters = telemetry.as_dict()["counters"]
                timers = telemetry.timers
        assert set(remote) == set(local)
        for root in local:
            assert remote[root] == local[root], f"root {root} diverged"
        # Worker-side telemetry merged back into the coordinator's.
        assert timers["census/root"].count == len(roots)
        assert counters["census/calls"] == len(roots)
        # Each worker that took a chunk received the graph exactly once.
        assert 1 <= counters["net/graphs_shipped"] <= workers

    def test_parity_over_unix_transport(self, tmp_path):
        graph = _random_graph(seed=3)
        config = CensusConfig(max_edges=3)
        roots = list(range(graph.num_nodes))
        local = _plain_census(graph, roots, config)
        with WorkerFleet(2, transport="unix", tmp_path=tmp_path) as fleet:
            with fresh_telemetry():
                remote = _census_map(
                    RemoteExecutor(fleet.specs), graph, roots, config
                )
        assert remote == local

    def test_matches_unsharded_census(self):
        """Remote == plain census, root by root, one root per chunk."""
        graph = _random_graph(seed=9, n=24)
        config = CensusConfig(max_edges=3)
        roots = list(range(graph.num_nodes))
        with WorkerFleet(2) as fleet:
            with fresh_telemetry():
                remote = _census_map(
                    RemoteExecutor(fleet.specs), graph, roots, config, chunksize=1
                )
        for root in roots:
            assert remote[root] == subgraph_census(graph, root, config)

    def test_census_many_routes_through_remote_executor(self):
        """``RunContext(workers=)`` with no other setting reaches the wire
        from the feature-extraction layer."""
        graph = _random_graph(seed=21, n=20)
        config = CensusConfig(max_edges=3)
        nodes = list(range(graph.num_nodes))
        with fresh_telemetry():
            expected = SubgraphFeatureExtractor(config).census_many(graph, nodes)
        with WorkerFleet(2) as fleet:
            ctx = RunContext(workers=fleet.specs)
            with fresh_telemetry() as telemetry:
                actual = SubgraphFeatureExtractor(config, ctx=ctx).census_many(
                    graph, nodes
                )
                counters = telemetry.as_dict()["counters"]
        assert actual == expected
        assert counters["net/requests"] > 0

    @pytest.mark.parametrize("engine", ("fast", "sampled"))
    @pytest.mark.parametrize("storage", ("dict", "mmap"))
    def test_census_many_parity(self, tmp_path, storage, engine):
        """Through ``census_many``, remote equals ``subgraph_census`` bit
        for bit across masking, ``d_max`` hub caps, key modes and
        shuffled root lists with duplicates; one fleet serves every
        config and both graphs, receiving each graph once per worker."""
        configs = (
            CensusConfig(max_edges=3, max_degree=6),
            CensusConfig(max_edges=3, max_degree=2, mask_start_label=True),
            CensusConfig(max_edges=3, mask_start_label=True),
            CensusConfig(max_edges=2, key="string"),
            CensusConfig(max_edges=2, key="hash"),
        )
        sampled = (
            SampledCensusConfig(budget=80, seed=2) if engine == "sampled" else None
        )
        rng = random.Random(13)
        shipped = 0
        with WorkerFleet(2) as fleet:
            ctx = RunContext(engine=engine, workers=fleet.specs)
            for name, graph in (("random", _random_graph(13, 30)), ("hub", _hub_graph())):
                target = graph
                if storage == "mmap":
                    target = MmapGraph(write_mmap_graph(graph, tmp_path / f"{name}.hmg"))
                roots = list(range(graph.num_nodes))
                rng.shuffle(roots)
                roots += [roots[0], roots[3], roots[0]]
                for config in configs:
                    expected = [
                        subgraph_census(
                            graph, root, config, engine=engine, sampled=sampled
                        )
                        for root in roots
                    ]
                    extractor = SubgraphFeatureExtractor(
                        config, sampled=sampled, ctx=ctx
                    )
                    with fresh_telemetry() as telemetry:
                        got = extractor.census_many(target, roots)
                    assert got == expected, f"{name} {config}"
                    if engine == "sampled":
                        assert [c.report for c in got] == [
                            c.report for c in expected
                        ]
                    shipped += telemetry.counters.get("net/graphs_shipped", 0)
        assert 2 <= shipped <= 4

    def test_one_worker_censuses_two_graphs(self):
        """A worker holding graph A must not census graph B's roots on it.

        Its inventory is keyed by graph fingerprint, so the coordinator
        sees that B is missing and ships it; every result equals
        ``subgraph_census`` on its own graph."""
        config = CensusConfig(max_edges=3)
        first = _random_graph(seed=31, n=30)
        second = _random_graph(seed=32, n=30)
        shipped = []
        with WorkerFleet(1) as fleet:
            ctx = RunContext(workers=fleet.specs)
            for graph in (first, second):
                roots = list(range(graph.num_nodes))
                with fresh_telemetry() as telemetry:
                    got = SubgraphFeatureExtractor(config, ctx=ctx).census_many(
                        graph, roots
                    )
                assert got == [subgraph_census(graph, r, config) for r in roots]
                shipped.append(telemetry.counters.get("net/graphs_shipped"))
            with NetClient(fleet.endpoints[0]) as client:
                inventory = client.ping()["graphs"]
        assert shipped == [1, 1]
        assert inventory == sorted([first.fingerprint(), second.fingerprint()])


class TestFaultTolerance:
    def test_killed_worker_reassigns_mid_run(self, tmp_path):
        """SIGKILL one of two real worker processes while its census is
        in flight; the survivor finishes its chunks, bit-identically."""
        graph = _random_graph(seed=17, n=60)
        config = CensusConfig(max_edges=4)
        roots = list(range(graph.num_nodes))
        local = _plain_census(graph, roots, config)

        socket_a = tmp_path / "victim.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", f"unix:{socket_a}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not socket_a.exists():
                assert time.monotonic() < deadline, "victim worker never bound"
                assert victim.poll() is None, "victim worker exited early"
                time.sleep(0.05)

            with WorkerFleet(1, transport="unix", tmp_path=tmp_path) as fleet:
                killer_done = threading.Event()

                def kill_when_busy():
                    # Poll the victim over its own connection; workers
                    # answer stats even mid-census (single compute
                    # thread, responsive loop), so inflight > 0 means a
                    # census RPC is genuinely being executed right now.
                    with NetClient(socket_a, retry=RetryPolicy(retries=0)) as c:
                        while not killer_done.is_set():
                            try:
                                stats = c.call({"op": "stats"}, retry=False)
                            except NetError:
                                return
                            if stats["inflight"] > 0:
                                victim.send_signal(signal.SIGKILL)
                                return
                            time.sleep(0.005)

                killer = threading.Thread(target=kill_when_busy, daemon=True)
                killer.start()
                try:
                    with fresh_telemetry() as telemetry:
                        remote = _census_map(
                            RemoteExecutor(
                                [f"unix:{socket_a}", str(fleet.endpoints[0])]
                            ),
                            graph,
                            roots,
                            config,
                            chunksize=15,
                        )
                        counters = telemetry.as_dict()["counters"]
                finally:
                    killer_done.set()
                    killer.join(timeout=5)
            assert victim.poll() is not None, "victim was never killed"
            assert remote == local
            assert counters.get("net/worker_deaths", 0) >= 1
            assert counters.get("net/reassignments", 0) >= 1
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.wait(timeout=10)

    def test_all_workers_dead_raises_rpc_error(self, tmp_path):
        graph = _random_graph(seed=5, n=16)
        config = CensusConfig(max_edges=3)
        executor = RemoteExecutor(
            [tmp_path / "ghost-a.sock", tmp_path / "ghost-b.sock"],
            connect_timeout=0.2,
            retry=RetryPolicy(retries=0),
        )
        with fresh_telemetry():
            with pytest.raises(RPCError, match="workers died"):
                executor.census_map(graph, [[0], [graph.num_nodes - 1]], config)

    def test_task_retry_budget_exhaustion_is_fatal(self):
        """A worker that always times out condemns the task after the
        reassignment budget, not in an infinite loop."""
        graph = _random_graph(seed=5, n=16)
        config = CensusConfig(max_edges=3)

        class _BlackHoleWorker(CensusWorker):
            async def _op_census(self, request):
                await asyncio.sleep(30)

        thread, endpoint = _serve_in_thread(_BlackHoleWorker("127.0.0.1:0"))
        executor = RemoteExecutor(
            [endpoint],
            request_timeout=0.3,
            retry=RetryPolicy(retries=0),
            max_task_retries=0,
            heartbeat_interval=10.0,
        )
        try:
            with fresh_telemetry():
                with pytest.raises(RPCError):
                    executor.census_map(graph, [[0, 1]], config)
        finally:
            _shutdown(endpoint, thread)

    def test_cap_error_names_global_root(self):
        """A ``max_subgraphs`` overflow on a worker ends the run as a
        typed RPCError naming the root, not as a retry loop."""
        graph = _hub_graph()
        hub = graph.index("hub")
        config = CensusConfig(max_edges=3, max_subgraphs=1)
        with WorkerFleet(2) as fleet, fresh_telemetry():
            extractor = SubgraphFeatureExtractor(
                config, ctx=RunContext(workers=fleet.specs)
            )
            with pytest.raises(RPCError, match=f"root {hub} exceeded max_subgraphs"):
                extractor.census_many(graph, [hub])

    def test_no_endpoints_rejected(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])


class TestWorkerProtocol:
    def test_census_on_unloaded_graph_is_census_error(self):
        with WorkerFleet(1) as fleet:
            with fresh_telemetry():
                with NetClient(fleet.endpoints[0]) as client:
                    with pytest.raises(NetError) as excinfo:
                        client.call(
                            {
                                "op": "census",
                                "graph": "f" * 32,
                                "blob": encode_blob(
                                    ([0], CensusConfig(max_edges=3), None, None)
                                ),
                            }
                        )
        assert excinfo.value.code == "census_error"
        assert "not loaded" in excinfo.value.message

    def test_load_graph_is_idempotent_and_inventoried(self):
        graph = _random_graph(seed=2, n=14)
        with WorkerFleet(1) as fleet:
            with fresh_telemetry():
                with NetClient(fleet.endpoints[0]) as client:
                    for _ in range(2):  # a retried ship must be harmless
                        result = client.call(
                            {
                                "op": "load_graph",
                                "graph": graph.fingerprint(),
                                "blob": _graph_blob(graph),
                            }
                        )
                        assert result["loaded"] == graph.fingerprint()
                    assert client.ping()["graphs"] == [graph.fingerprint()]
                    stats = client.call({"op": "stats"})
                    assert stats["censuses"] == 0
                    assert stats["inflight"] == 0

    def test_load_graph_with_wrong_fingerprint_is_bad_request(self):
        """The worker rehashes what it receives: a blob that is not the
        graph its frame names is refused and never inventoried."""
        graph = _random_graph(seed=2, n=14)
        other = _random_graph(seed=3, n=14)
        with WorkerFleet(1) as fleet:
            with fresh_telemetry():
                with NetClient(fleet.endpoints[0]) as client:
                    with pytest.raises(NetError) as excinfo:
                        client.call(
                            {
                                "op": "load_graph",
                                "graph": graph.fingerprint(),
                                "blob": _graph_blob(other),
                            }
                        )
                    assert client.ping()["graphs"] == []
        assert excinfo.value.code == "bad_request"
        assert "fingerprint mismatch" in excinfo.value.message

    def test_census_with_malformed_blob_is_bad_request(self):
        """A census blob that is not ``(roots, config, engine, sampled)``
        is the client's fault: typed ``bad_request``, never ``internal``."""
        graph = _random_graph(seed=2, n=14)
        config = CensusConfig(max_edges=3)
        with WorkerFleet(1) as fleet:
            with fresh_telemetry() as telemetry:
                with NetClient(fleet.endpoints[0]) as client:
                    client.call(
                        {
                            "op": "load_graph",
                            "graph": graph.fingerprint(),
                            "blob": _graph_blob(graph),
                        }
                    )
                    for payload in (42, ([0], config, None)):
                        with pytest.raises(NetError) as excinfo:
                            client.call(
                                {
                                    "op": "census",
                                    "graph": graph.fingerprint(),
                                    "blob": encode_blob(payload),
                                }
                            )
                        assert excinfo.value.code == "bad_request"
                        assert "expected (roots, config" in excinfo.value.message
                    assert client.call({"op": "stats"})["censuses"] == 0
                counters = telemetry.as_dict()["counters"]
        assert counters["worker/errors/bad_request"] == 2
        assert "worker/errors/internal" not in counters

    def test_preloaded_graph_skips_shipping(self, tmp_path):
        """A worker started with a graph already loaded (``repro worker
        --graph g.hmg``) advertises its fingerprint; the executor ships
        nothing.  An mmap graph and its dict twin share the fingerprint."""
        graph = _random_graph(seed=8, n=18)
        config = CensusConfig(max_edges=3)
        preloaded = MmapGraph(write_mmap_graph(graph, tmp_path / "g.hmg"))
        thread, endpoint = _serve_in_thread(
            CensusWorker("127.0.0.1:0", graphs=[preloaded])
        )
        roots = list(range(graph.num_nodes))
        local = _plain_census(graph, roots, config)
        try:
            with fresh_telemetry() as telemetry:
                remote = _census_map(
                    RemoteExecutor([str(endpoint)]), graph, roots, config
                )
                counters = telemetry.as_dict()["counters"]
        finally:
            _shutdown(endpoint, thread)
        assert remote == local
        assert counters.get("net/graphs_shipped", 0) == 0

    def test_remote_requires_worker_endpoints(self):
        """An empty endpoint list is no remote run: the census stays local
        and never touches the network."""
        graph = _random_graph(seed=1, n=12)
        config = CensusConfig(max_edges=3)
        extractor = SubgraphFeatureExtractor(config, ctx=RunContext(workers=()))
        with fresh_telemetry() as telemetry:
            got = extractor.census_many(graph, [0, 1])
        assert got == [subgraph_census(graph, r, config) for r in (0, 1)]
        assert "net/requests" not in telemetry.counters
