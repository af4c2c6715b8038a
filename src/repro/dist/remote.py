"""Remote census executor: run root batches on ``repro worker`` daemons.

:meth:`RemoteExecutor.census_map` takes the same heaviest-first root
chunks the local fan-out hands to
:func:`~repro.runtime.executor.run_tasks` and sends them over the
:mod:`repro.net` wire to :class:`~repro.dist.worker.CensusWorker`
daemons, which may live on other machines.  Each worker holds the whole
graph, keyed by its fingerprint, and runs the local fan-out's chunk
body on it, so the results are bit-identical to ``subgraph_census``;
only where the loop body executes changes.

Scheduling is pull-based: one coordinator thread per worker drains a
shared task queue, shipping the graph (one list-backed
:class:`~repro.core.graph.FlatGraph` snapshot, pickled once per run) to
any worker whose ``ping`` inventory lacks its fingerprint.  Fault
handling layers:

* **Per-request timeouts** — a census RPC is bounded by
  ``request_timeout``; a worker that blows the deadline is treated as
  dead for scheduling purposes.
* **Bounded retry with backoff** — transport-level failures reconnect
  and retry under the client's :class:`~repro.net.client.RetryPolicy`
  before the worker is declared dead.
* **Heartbeats** — a monitor thread pings every worker each
  ``heartbeat_interval`` over a separate connection (workers answer
  pings even mid-census), so a crashed worker is detected while its
  census RPC is still waiting out the timeout.
* **Reassignment** — a dead worker's in-flight chunk goes back on the
  queue and a survivor picks it up; each chunk survives at most
  ``max_task_retries`` reassignments before the run fails with
  :class:`~repro.exceptions.RPCError`.  Results are per-root and
  deterministic, so a chunk that ran 1.5 times merges identically.

Worker deaths, graph ships, reassignments, and census RPC latencies all
land under ``net/*`` in the run manifest.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.core.census import CensusConfig
from repro.core.graph import FlatGraph, HeteroGraph
from repro.core.sampled import SampledCensusConfig
from repro.exceptions import RPCError
from repro.net.client import NetClient, RetryPolicy
from repro.net.endpoint import Endpoint, parse_endpoint
from repro.net.protocol import NetError, decode_blob, encode_blob
from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry, get_telemetry

logger = get_logger(__name__)

#: Protocol error codes that condemn the *task*, not the worker: the
#: census itself failed, and retrying elsewhere would fail identically.
_TASK_FATAL_CODES = ("census_error", "bad_request", "unknown_op", "unknown_node")


def _graph_blob(graph: HeteroGraph) -> str:
    """The graph as one list-backed :class:`FlatGraph`, ready to ship.

    Lists pickle as values on any storage (an mmap graph would pickle
    as its path), and the worker rehashes them to the same fingerprint.
    """
    return encode_blob(FlatGraph(graph.flat().to_lists(), graph.labelset))


@dataclass
class _WorkerState:
    """Coordinator-side view of one worker endpoint."""

    endpoint: Endpoint
    alive: bool = True
    has_graph: bool = False


class _TaskQueue:
    """Shared task pool with reassignment and fatal-abort semantics.

    ``next()`` blocks while tasks are in flight elsewhere (a dying
    worker may requeue its task); it returns ``None`` only when every
    task completed or the run aborted.
    """

    def __init__(self, tasks: list) -> None:
        self._pending = deque(tasks)
        self._cond = threading.Condition()
        self._inflight = 0
        self.fatal: Exception | None = None

    def next(self):
        with self._cond:
            while True:
                if self.fatal is not None:
                    return None
                if self._pending:
                    self._inflight += 1
                    return self._pending.popleft()
                if self._inflight == 0:
                    return None
                self._cond.wait()

    def complete(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def requeue(self, task) -> None:
        with self._cond:
            self._pending.appendleft(task)
            self._inflight -= 1
            self._cond.notify_all()

    def abort(self, exc: Exception) -> None:
        with self._cond:
            if self.fatal is None:
                self.fatal = exc
            self._cond.notify_all()


@dataclass
class _Task:
    """One root chunk, its slot in the results, and its reassignments."""

    index: int
    roots: list
    attempts: int = 0


@dataclass
class _Run:
    """What every coordinator thread of one :meth:`census_map` shares."""

    graph: HeteroGraph
    fingerprint: str
    payload: tuple
    results: list
    telemetry: Telemetry
    lock: threading.Lock = field(default_factory=threading.Lock)
    blob: str | None = None

    def graph_blob(self) -> str:
        """The shipped graph, encoded once on first need."""
        with self.lock:
            if self.blob is None:
                self.blob = _graph_blob(self.graph)
            return self.blob


class RemoteExecutor:
    """Census executor running root chunks on remote workers.

    ``workers`` is a sequence of endpoint specs (anything
    :func:`repro.net.parse_endpoint` accepts).  The executor is
    per-call stateless — construct, :meth:`census_map`, discard.
    """

    def __init__(
        self,
        workers,
        *,
        request_timeout: float = 600.0,
        connect_timeout: float = 5.0,
        retry: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        max_task_retries: int = 3,
    ) -> None:
        endpoints = [parse_endpoint(spec) for spec in workers]
        if not endpoints:
            raise ValueError("remote executor needs at least one worker endpoint")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        if max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.workers = [_WorkerState(endpoint) for endpoint in endpoints]
        self.request_timeout = float(request_timeout)
        self.connect_timeout = float(connect_timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_task_retries = int(max_task_retries)

    # -- public API --------------------------------------------------------
    def census_map(
        self,
        graph: HeteroGraph,
        chunks,
        config: CensusConfig,
        *,
        engine: str | None = None,
        sampled: SampledCensusConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> list:
        """Census each chunk of root indices on the workers.

        Returns one list of censuses per chunk, aligned with ``chunks``
        like :func:`~repro.runtime.executor.run_tasks`.  Chunks are
        dispatched in the given order, so heaviest-first input starts
        the stragglers early.

        Raises :class:`RPCError` when the work cannot complete: every
        worker died with chunks outstanding, a chunk exhausted its
        reassignment budget, or a worker reported a census failure.
        """
        telemetry = telemetry if telemetry is not None else get_telemetry()
        tasks = [_Task(index, list(chunk)) for index, chunk in enumerate(chunks)]
        run = _Run(
            graph=graph,
            fingerprint=graph.fingerprint(),
            payload=(config, engine, sampled),
            results=[None] * len(tasks),
            telemetry=telemetry,
        )
        queue = _TaskQueue(tasks)
        stop_heartbeat = threading.Event()
        threads = [
            threading.Thread(
                target=self._serve_tasks,
                args=(worker, queue, run),
                name=f"repro-remote-{i}",
                daemon=True,
            )
            for i, worker in enumerate(self.workers)
        ]
        monitor = threading.Thread(
            target=self._heartbeat,
            args=(stop_heartbeat, telemetry),
            name="repro-remote-heartbeat",
            daemon=True,
        )
        for thread in threads:
            thread.start()
        monitor.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            stop_heartbeat.set()
            monitor.join()
        if queue.fatal is not None:
            raise RPCError(str(queue.fatal)) from queue.fatal
        leftover = queue.next()
        if leftover is not None:
            raise RPCError(
                f"all {len(self.workers)} workers died with census tasks "
                f"outstanding (first unfinished: chunk {leftover.index} "
                f"of {len(tasks)})"
            )
        telemetry.annotate(
            "net/workers_alive", sum(1 for w in self.workers if w.alive)
        )
        return run.results

    # -- worker conversation ----------------------------------------------
    def _serve_tasks(
        self, worker: _WorkerState, queue: _TaskQueue, run: _Run
    ) -> None:
        telemetry = run.telemetry
        client = NetClient(
            worker.endpoint,
            connect_timeout=self.connect_timeout,
            request_timeout=self.request_timeout,
            retry=self.retry,
        )
        try:
            try:
                inventory = client.ping(timeout=self.connect_timeout)
            except NetError as exc:
                logger.warning("worker %s unreachable: %s", worker.endpoint, exc)
                worker.alive = False
                telemetry.count("net/worker_deaths")
                return
            worker.has_graph = run.fingerprint in inventory.get("graphs", ())
            while worker.alive:
                task = queue.next()
                if task is None:
                    return
                try:
                    self._run_task(client, worker, task, run)
                except NetError as exc:
                    if exc.code in _TASK_FATAL_CODES:
                        # The census itself failed; no worker can save it.
                        queue.abort(exc)
                        queue.complete()
                        return
                    # Transport failure / timeout: this worker is gone.
                    if worker.alive:  # heartbeat may have beaten us to it
                        worker.alive = False
                        telemetry.count("net/worker_deaths")
                    task.attempts += 1
                    if task.attempts > self.max_task_retries:
                        queue.abort(
                            RPCError(
                                f"chunk {task.index} failed on "
                                f"{task.attempts} workers (last: "
                                f"{worker.endpoint}): {exc}"
                            )
                        )
                        queue.complete()
                    else:
                        logger.warning(
                            "worker %s lost (%s); reassigning chunk %d",
                            worker.endpoint, exc, task.index,
                        )
                        telemetry.count("net/reassignments")
                        queue.requeue(task)
                    return
                queue.complete()
        finally:
            client.close()

    def _run_task(
        self, client: NetClient, worker: _WorkerState, task: _Task, run: _Run
    ) -> None:
        telemetry = run.telemetry
        if not worker.has_graph:
            client.call(
                {
                    "op": "load_graph",
                    "graph": run.fingerprint,
                    "blob": run.graph_blob(),
                },
            )
            worker.has_graph = True
            telemetry.count("net/graphs_shipped")
        with telemetry.span("net/census_rpc"):
            response = client.call(
                {
                    "op": "census",
                    "graph": run.fingerprint,
                    "blob": encode_blob((task.roots, *run.payload)),
                },
            )
        censuses, snapshot = decode_blob(response["blob"])
        with run.lock:
            run.results[task.index] = censuses
            telemetry.merge(snapshot)
        telemetry.count("net/tasks_dispatched")

    # -- liveness monitoring ----------------------------------------------
    def _heartbeat(self, stop: threading.Event, telemetry: Telemetry) -> None:
        """Ping live workers on separate connections until stopped.

        Workers answer pings even while a census burns their one compute
        thread, so a missed heartbeat means the *process* is gone — the
        worker is marked dead immediately instead of after the census
        RPC times out.
        """
        clients: dict[int, NetClient] = {}
        try:
            while not stop.wait(self.heartbeat_interval):
                for i, worker in enumerate(self.workers):
                    if not worker.alive:
                        continue
                    client = clients.get(i)
                    if client is None:
                        client = clients[i] = NetClient(
                            worker.endpoint,
                            connect_timeout=self.connect_timeout,
                            request_timeout=self.connect_timeout,
                            retry=RetryPolicy(retries=0),
                        )
                    try:
                        client.ping(timeout=self.connect_timeout)
                        telemetry.count("net/heartbeats")
                    except NetError:
                        telemetry.count("net/heartbeat_failures")
                        logger.warning(
                            "heartbeat lost for worker %s", worker.endpoint
                        )
                        if worker.alive:
                            worker.alive = False
                            telemetry.count("net/worker_deaths")
        finally:
            for client in clients.values():
                client.close()
