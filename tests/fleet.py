"""Loopback census workers shared by the remote-census tests and
``benchmarks/test_perf_net.py``.

:class:`WorkerFleet` starts N :class:`CensusWorker` daemons, each on its
own thread and event loop, for tests that go over the wire.

No ``test_*`` lives here, so pytest collects nothing from this module.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.dist import CensusWorker
from repro.net import NetClient, NetError, RetryPolicy


class WorkerFleet:
    """N in-process CensusWorkers, each on its own thread + event loop."""

    def __init__(self, count: int, transport: str = "tcp", tmp_path=None):
        self.workers: list[CensusWorker] = []
        self.threads: list[threading.Thread] = []
        self.endpoints: list = []
        self._lock = threading.Lock()
        for i in range(count):
            spec = (
                "127.0.0.1:0"
                if transport == "tcp"
                else tmp_path / f"worker{i}.sock"
            )
            worker = CensusWorker(spec)
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

    def _serve(self, worker: CensusWorker) -> None:
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
