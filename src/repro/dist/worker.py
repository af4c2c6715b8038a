"""Census worker daemon: answer census RPCs against whole loaded graphs.

``repro worker --listen ENDPOINT`` runs one of these per machine (or
per core, in a local topology test): an op table on the shared
:mod:`repro.net.server` op-table server — same newline-framed JSON
protocol, same typed error codes, same lifecycle and telemetry
(``worker/requests|errors|latency_s``) as the feature-serving daemon —
whose job is purely computational: hold whole graphs in memory, keyed
by :meth:`fingerprint`, and census the root batches the coordinator
sends.

Operations (blob payloads are pickled+zlib+base64, trusted deployments
only — the worker protocol is for coordinator↔worker links you control,
not the open internet):

* ``ping`` — liveness + graph inventory (the fingerprints it holds; the
  remote executor's heartbeat and shipping both key off this).
* ``load_graph`` — install a shipped graph under its fingerprint.  The
  worker rehashes the graph and answers ``bad_request`` when the hash
  differs from the frame's ``graph``; a retried ship is harmless.
* ``census`` — census a batch of roots against a loaded graph with the
  local fan-out's own chunk body
  (:func:`repro.core.features._census_chunk`), returning the censuses
  plus the compute thread's telemetry snapshot.  Bit-identical to
  ``subgraph_census`` by construction: it *is* ``subgraph_census`` on
  the same graph.
* ``stats`` — counters for inspection.
* ``shutdown`` — acknowledge, drain, exit (built into the server).

Census work runs on a single worker thread so one long census never
blocks the event loop: heartbeats keep answering while the CPU burns,
which is exactly the signal the coordinator needs to tell a *slow*
worker from a *dead* one.
"""

from __future__ import annotations

import os

from repro.core.features import _census_chunk
from repro.core.graph import FlatGraph
from repro.exceptions import ReproError
from repro.net.protocol import NetError, decode_blob, encode_blob, require
from repro.net.server import OpServer
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry, thread_telemetry

logger = get_logger(__name__)


class CensusWorker(OpServer):
    """One graph-holding census worker on a :mod:`repro.net` endpoint.

    ``graphs`` preloads graphs (any census-capable graph, e.g. an
    :class:`~repro.core.mmap_graph.MmapGraph`); each is registered under
    its fingerprint, so a coordinator censusing the same graph ships
    nothing.
    """

    family = "worker"
    # Census failures are the task's problem, not the transport's: ship
    # them back typed so the coordinator can fail the run with the real
    # message instead of retrying.
    domain_error = (ReproError, "census_error")

    def __init__(self, endpoint, *, graphs=()) -> None:
        # One census at a time: censuses are CPU-bound, and the
        # coordinator assigns at most one task per worker anyway.  The
        # loop itself stays free for pings.
        super().__init__(endpoint, threads=1)
        self.graphs: dict = {graph.fingerprint(): graph for graph in graphs}
        self.censuses = 0
        #: Census RPCs currently executing (0 or 1 — one compute thread);
        #: visible through ``stats`` so orchestration tests and monitors
        #: can tell a busy worker from an idle one.
        self.inflight = 0

    def op_table(self) -> dict:
        return {
            "ping": self._op_ping,
            "load_graph": self._op_load_graph,
            "census": self._op_census,
            "stats": self._op_stats,
        }

    async def _op_ping(self, request: dict) -> dict:
        return {
            "pid": os.getpid(),
            "graphs": sorted(self.graphs),
            "requests": self.requests,
        }

    async def _op_stats(self, request: dict) -> dict:
        return {
            "graphs": sorted(self.graphs),
            "requests": self.requests,
            "censuses": self.censuses,
            "inflight": self.inflight,
        }

    async def _op_load_graph(self, request: dict) -> dict:
        fingerprint = require(request, "graph", str)
        graph = decode_blob(require(request, "blob"))
        if not isinstance(graph, FlatGraph):
            raise NetError(
                "bad_request",
                f"load_graph blob decoded to {type(graph).__name__}, "
                "expected FlatGraph",
            )
        actual = graph.fingerprint()
        if actual != fingerprint:
            raise NetError(
                "bad_request",
                f"fingerprint mismatch: frame says {fingerprint}, "
                f"graph hashes to {actual}",
            )
        self.graphs[fingerprint] = graph
        get_telemetry().count("worker/graphs_loaded")
        logger.info("loaded graph %s (%d nodes)", fingerprint, graph.num_nodes)
        return {"loaded": fingerprint, "graphs": sorted(self.graphs)}

    async def _op_census(self, request: dict) -> dict:
        fingerprint = require(request, "graph", str)
        graph = self.graphs.get(fingerprint)
        if graph is None:
            raise NetError(
                "census_error",
                f"graph {fingerprint} not loaded "
                f"(have {sorted(self.graphs)}); ship it with load_graph",
            )
        payload = decode_blob(require(request, "blob"))
        if not (isinstance(payload, (tuple, list)) and len(payload) == 4):
            raise NetError(
                "bad_request",
                f"census blob decoded to {type(payload).__name__}, "
                "expected (roots, config, engine, sampled)",
            )
        roots, config, engine, sampled = payload

        def _run() -> str:
            with thread_telemetry() as telemetry:
                censuses = _census_chunk(
                    (graph, config, engine, sampled, None), roots
                )
            return encode_blob((censuses, telemetry.snapshot()))

        self.inflight += 1
        try:
            blob = await self.run_in_thread(_run)
        finally:
            self.inflight -= 1
        self.censuses += 1
        get_telemetry().count("worker/censuses")
        return {"blob": blob}
