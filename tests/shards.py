"""Shard helpers shared by the partition and remote-census suites and
``benchmarks/test_perf_net.py``.

* :func:`census_per_shard` runs the worker's shard-census body
  (:func:`repro.dist.worker._census_partition`) in-process, once per
  shard — exactly the code a ``repro worker`` runs for each task — so
  the parity suites can pin shard results against ``subgraph_census``
  without a network.
* :class:`WorkerFleet` starts N loopback :class:`ShardWorker` daemons,
  each on its own thread and event loop, for tests that go over the wire.

No ``test_*`` lives here, so pytest collects nothing from this module.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.dist import PartitionConfig, ShardWorker, partition_graph
from repro.dist.worker import _census_partition
from repro.net import NetClient, NetError, RetryPolicy
from repro.obs.telemetry import Telemetry


def census_per_shard(
    graph, roots, config, partitions, *, engine=None, sampled=None
) -> list:
    """Censuses of ``roots`` (in order), each computed on its owning shard.

    ``partitions`` is a shard count or a :class:`PartitionConfig`.
    """
    if not isinstance(partitions, PartitionConfig):
        partitions = PartitionConfig(num_partitions=int(partitions))
    pset = partition_graph(graph, partitions, config)
    owned: dict[int, list] = {}
    for root in roots:
        owned.setdefault(pset.owner_of(root), []).append(int(root))
    results: dict = {}
    for part_id, part_roots in owned.items():
        results.update(
            _census_partition(
                pset.partitions[part_id],
                part_roots,
                config,
                engine,
                Telemetry(),
                sampled,
            )
        )
    return [results[int(root)] for root in roots]


class WorkerFleet:
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

    @property
    def specs(self) -> tuple:
        """Endpoint specs as ``--workers`` / ``RunContext.workers`` take them."""
        return tuple(str(endpoint) for endpoint in self.endpoints)

    def __enter__(self) -> "WorkerFleet":
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
