"""Remote shard executor tests: parity, fault tolerance, worker RPC.

The headline contract: ``executor="remote"`` returns results
**bit-identical** to the local ``sharded_census_map`` pool for every
engine at any worker count — the shard census runs the same code, only
the location changes.  The fault-tolerance contract: a worker killed
mid-census loses nothing; its task is reassigned to a survivor and the
run completes with the same results.

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
from repro.core.sampled import SampledCensusConfig
from repro.dist import (
    PartitionConfig,
    RemoteExecutor,
    ShardWorker,
    partition_graph,
    sharded_census_map,
)
from repro.exceptions import RPCError
from repro.net import NetClient, NetError, RetryPolicy
from repro.obs import fresh_telemetry
from repro.runtime.context import RunContext
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


class _WorkerFleet:
    """N in-process ShardWorkers, each on its own thread + event loop."""

    def __init__(self, count: int, transport: str = "tcp", tmp_path=None):
        self.workers: list[ShardWorker] = []
        self.threads: list[threading.Thread] = []
        self.endpoints: list = []
        self._lock = threading.Lock()
        for i in range(count):
            spec = (
                "127.0.0.1:0"
                if transport == "tcp"
                else tmp_path / f"worker{i}.sock"
            )
            worker = ShardWorker(spec)
            thread = threading.Thread(
                target=self._serve, args=(worker,), daemon=True
            )
            thread.start()
            self.workers.append(worker)
            self.threads.append(thread)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.endpoints) == count:
                    return
            time.sleep(0.02)
        raise RuntimeError("workers failed to start")

    def _serve(self, worker: ShardWorker) -> None:
        async def main():
            ready = asyncio.Event()
            task = asyncio.ensure_future(worker.run(ready))
            await ready.wait()
            with self._lock:
                self.endpoints.append(worker.endpoint)
            await task

        asyncio.run(main())

    def __enter__(self) -> "_WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        for endpoint in self.endpoints:
            try:
                with NetClient(endpoint, retry=RetryPolicy(retries=0)) as client:
                    client.call({"op": "shutdown"})
            except NetError:
                pass
        for thread in self.threads:
            thread.join(timeout=5)


class TestRemoteParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_local_pool(self, engine, workers):
        graph = _random_graph()
        config = CensusConfig(max_edges=3)
        sampled = (
            SampledCensusConfig(budget=150, seed=5) if engine == "sampled" else None
        )
        pset = partition_graph(graph, PartitionConfig(num_partitions=3), config)
        roots = list(range(graph.num_nodes))
        if engine == "reference":
            # The oracle's expected side, computed locally; the workers
            # run the library's exact census.
            local = {root: reference_census(graph, root, config) for root in roots}
            engine = "fast"
        else:
            with fresh_telemetry():
                local = sharded_census_map(
                    graph, roots, config, pset, engine=engine, sampled=sampled
                )
        with _WorkerFleet(workers) as fleet:
            with fresh_telemetry() as telemetry:
                remote = sharded_census_map(
                    graph,
                    roots,
                    config,
                    pset,
                    engine=engine,
                    sampled=sampled,
                    executor="remote",
                    workers=[str(e) for e in fleet.endpoints],
                )
                counters = telemetry.as_dict()["counters"]
        assert set(remote) == set(local)
        for root in local:
            assert remote[root] == local[root], f"root {root} diverged"
        # Worker-side telemetry merged back like the local pool's.
        assert counters["dist/roots_censused"] == len(roots)
        assert counters["net/shards_shipped"] == len(pset)

    def test_parity_over_unix_transport(self, tmp_path):
        graph = _random_graph(seed=3)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        roots = list(range(graph.num_nodes))
        with fresh_telemetry():
            local = sharded_census_map(graph, roots, config, pset)
        with _WorkerFleet(2, transport="unix", tmp_path=tmp_path) as fleet:
            with fresh_telemetry():
                remote = sharded_census_map(
                    graph, roots, config, pset,
                    executor="remote",
                    workers=[str(e) for e in fleet.endpoints],
                )
        assert remote == local

    def test_matches_unsharded_census(self):
        """Transitivity check: remote == local shards == plain census."""
        graph = _random_graph(seed=9, n=24)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        with _WorkerFleet(2) as fleet:
            with fresh_telemetry():
                remote = sharded_census_map(
                    graph, list(range(graph.num_nodes)), config, pset,
                    executor="remote",
                    workers=[str(e) for e in fleet.endpoints],
                )
        for root in range(graph.num_nodes):
            assert remote[root] == subgraph_census(graph, root, config)

    def test_census_many_routes_through_remote_executor(self):
        """RunContext(executor=, workers=) reaches the wire from the
        feature-extraction layer."""
        graph = _random_graph(seed=21, n=20)
        config = CensusConfig(max_edges=3)
        nodes = list(range(graph.num_nodes))
        with fresh_telemetry():
            expected = SubgraphFeatureExtractor(config).census_many(graph, nodes)
        with _WorkerFleet(2) as fleet:
            ctx = RunContext(
                partitions=2,
                executor="remote",
                workers=tuple(str(e) for e in fleet.endpoints),
            )
            with fresh_telemetry() as telemetry:
                actual = SubgraphFeatureExtractor(config, ctx=ctx).census_many(
                    graph, nodes
                )
                counters = telemetry.as_dict()["counters"]
        assert actual == expected
        assert counters["net/requests"] > 0


class TestFaultTolerance:
    def test_killed_worker_reassigns_mid_run(self, tmp_path):
        """SIGKILL one of two real worker processes while its census is
        in flight; the survivor finishes its shards, bit-identically."""
        graph = _random_graph(seed=17, n=60)
        config = CensusConfig(max_edges=4)
        pset = partition_graph(graph, PartitionConfig(num_partitions=4), config)
        roots = list(range(graph.num_nodes))
        with fresh_telemetry():
            local = sharded_census_map(graph, roots, config, pset)

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

            with _WorkerFleet(1, transport="unix", tmp_path=tmp_path) as fleet:
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
                        remote = sharded_census_map(
                            graph, roots, config, pset,
                            executor="remote",
                            workers=[f"unix:{socket_a}", str(fleet.endpoints[0])],
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
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        executor = RemoteExecutor(
            [tmp_path / "ghost-a.sock", tmp_path / "ghost-b.sock"],
            connect_timeout=0.2,
            retry=RetryPolicy(retries=0),
        )
        tasks = [(pset.partitions[i], [i]) for i in range(len(pset))]
        with fresh_telemetry():
            with pytest.raises(RPCError):
                executor.census_map(tasks, config)

    def test_task_retry_budget_exhaustion_is_fatal(self):
        """A worker that always times out condemns the task after the
        reassignment budget, not in an infinite loop."""
        graph = _random_graph(seed=5, n=16)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=1), config)

        class _BlackHoleWorker(ShardWorker):
            async def _op_census(self, request):
                await asyncio.sleep(30)

        spec = "127.0.0.1:0"
        worker = _BlackHoleWorker(spec)
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
        executor = RemoteExecutor(
            [box["endpoint"]],
            request_timeout=0.3,
            retry=RetryPolicy(retries=0),
            max_task_retries=0,
            heartbeat_interval=10.0,
        )
        tasks = [(pset.partitions[0], [0, 1])]
        try:
            with fresh_telemetry():
                with pytest.raises(RPCError):
                    executor.census_map(tasks, config)
        finally:
            try:
                with NetClient(box["endpoint"], retry=RetryPolicy(retries=0)) as c:
                    c.call({"op": "shutdown"}, timeout=1.0, retry=False)
            except NetError:
                pass
            thread.join(timeout=10)

    def test_no_endpoints_rejected(self):
        with pytest.raises(ValueError):
            RemoteExecutor([])


class TestWorkerProtocol:
    def test_census_on_unloaded_shard_is_shard_error(self):
        from repro.net.protocol import encode_blob

        with _WorkerFleet(1) as fleet:
            with fresh_telemetry():
                with NetClient(fleet.endpoints[0]) as client:
                    with pytest.raises(NetError) as excinfo:
                        client.call(
                            {
                                "op": "census",
                                "shard": 7,
                                "blob": encode_blob(
                                    ([0], CensusConfig(max_edges=3), None, None)
                                ),
                            }
                        )
        assert excinfo.value.code == "shard_error"

    def test_load_shard_is_idempotent_and_inventoried(self):
        from repro.net.protocol import encode_blob

        graph = _random_graph(seed=2, n=14)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        with _WorkerFleet(1) as fleet:
            with fresh_telemetry():
                with NetClient(fleet.endpoints[0]) as client:
                    for _ in range(2):  # a retried ship must be harmless
                        result = client.call(
                            {
                                "op": "load_shard",
                                "shard": 0,
                                "blob": encode_blob(pset.partitions[0]),
                            }
                        )
                        assert result["loaded"] == 0
                    assert client.ping()["shards"] == [0]
                    stats = client.call({"op": "stats"})
                    assert stats["censuses"] == 0
                    assert stats["inflight"] == 0

    def test_census_with_malformed_blob_is_bad_request(self):
        """A census blob that is not ``(roots, config, engine, sampled)``
        is the client's fault: typed ``bad_request``, never ``internal``."""
        from repro.net.protocol import encode_blob

        graph = _random_graph(seed=2, n=14)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=1), config)
        with _WorkerFleet(1) as fleet:
            with fresh_telemetry() as telemetry:
                with NetClient(fleet.endpoints[0]) as client:
                    client.call(
                        {
                            "op": "load_shard",
                            "shard": 0,
                            "blob": encode_blob(pset.partitions[0]),
                        }
                    )
                    for payload in (42, ([0], config, None)):
                        with pytest.raises(NetError) as excinfo:
                            client.call(
                                {
                                    "op": "census",
                                    "shard": 0,
                                    "blob": encode_blob(payload),
                                }
                            )
                        assert excinfo.value.code == "bad_request"
                        assert "expected (roots, config" in excinfo.value.message
                    assert client.call({"op": "stats"})["censuses"] == 0
                counters = telemetry.as_dict()["counters"]
        assert counters["worker/errors/bad_request"] == 2
        assert "worker/errors/internal" not in counters

    def test_preloaded_shards_skip_shipping(self):
        """A worker started with shards already loaded (repro worker
        --graph) advertises them; the executor ships nothing."""
        graph = _random_graph(seed=8, n=18)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        preloaded = {i: pset.partitions[i] for i in range(len(pset))}
        box = {}

        def serve():
            worker = ShardWorker("127.0.0.1:0", partitions=preloaded)
            box["worker"] = worker

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
        roots = list(range(graph.num_nodes))
        with fresh_telemetry():
            local = sharded_census_map(graph, roots, config, pset)
        try:
            with fresh_telemetry() as telemetry:
                remote = sharded_census_map(
                    graph, roots, config, pset,
                    executor="remote", workers=[str(box["endpoint"])],
                )
                counters = telemetry.as_dict()["counters"]
        finally:
            try:
                with NetClient(box["endpoint"], retry=RetryPolicy(retries=0)) as c:
                    c.call({"op": "shutdown"}, timeout=1.0, retry=False)
            except NetError:
                pass
            thread.join(timeout=10)
        assert remote == local
        assert counters.get("net/shards_shipped", 0) == 0

    def test_remote_requires_worker_endpoints(self):
        graph = _random_graph(seed=1, n=12)
        config = CensusConfig(max_edges=3)
        pset = partition_graph(graph, PartitionConfig(num_partitions=2), config)
        from repro.exceptions import PartitionError

        with fresh_telemetry():
            with pytest.raises(PartitionError):
                sharded_census_map(
                    graph, [0], config, pset, executor="remote"
                )
        with pytest.raises(ValueError):
            sharded_census_map(
                graph, [0], config, pset, executor="teleport"
            )
