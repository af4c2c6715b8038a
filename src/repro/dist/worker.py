"""Shard-worker daemon: answer census RPCs for loaded graph shards.

``repro worker --listen ENDPOINT`` runs one of these per machine (or
per core, in a local topology test): an op table on the shared
:mod:`repro.net.server` op-table server — same newline-framed JSON
protocol, same typed error codes, same lifecycle and telemetry
(``worker/requests|errors|latency_s``) as the feature-serving daemon —
whose job is purely computational: hold halo-complete
:class:`~repro.dist.partition.GraphPartition` shards in memory and
census the roots the coordinator sends.

Operations (blob payloads are pickled+zlib+base64, trusted deployments
only — the worker protocol is for coordinator↔worker links you control,
not the open internet):

* ``ping`` — liveness + shard inventory (the remote executor's
  heartbeat and scheduling both key off this).
* ``load_shard`` — install a shipped :class:`GraphPartition` under its
  partition id; idempotent, so a retried ship is harmless.
* ``census`` — census the given global roots against a loaded shard
  (:func:`_census_partition`), returning results plus the worker-side
  telemetry snapshot.  A halo-complete shard holds every node and edge
  an owned root's census can reach, with global degrees, so the
  results are bit-identical to ``subgraph_census`` on the whole graph.
* ``stats`` — counters for inspection.
* ``shutdown`` — acknowledge, drain, exit (built into the server).

Census work runs on a single worker thread so one long shard census
never blocks the event loop: heartbeats keep answering while the CPU
burns, which is exactly the signal the coordinator needs to tell a
*slow* worker from a *dead* one.
"""

from __future__ import annotations

import os

from repro.core.census import CensusConfig, subgraph_census
from repro.core.sampled import SampledCensusConfig
from repro.dist.partition import GraphPartition
from repro.exceptions import CensusError, ReproError
from repro.net.protocol import NetError, decode_blob, encode_blob, require
from repro.net.server import OpServer
from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry, get_telemetry

logger = get_logger(__name__)


def _census_partition(
    partition: GraphPartition,
    roots: list,
    config: CensusConfig,
    engine: str | None,
    telemetry: Telemetry,
    sampled: SampledCensusConfig | None = None,
) -> dict:
    """Census the owned ``roots`` (global ids) against one shard.

    Sampled censuses seed their probe RNG from the *global* root id
    (``sample_root_key``), not the shard-local index — local indices
    depend on the partition count, and the determinism contract promises
    bit-identical estimates at any ``k``.
    """
    results: dict = {}
    part_graph = partition.graph
    with telemetry.span("dist/partition_wall") as span:
        for root in roots:
            local = partition.local(root)
            with telemetry.span("census/root"):
                try:
                    results[root] = subgraph_census(
                        part_graph,
                        local,
                        config,
                        engine=engine,
                        sampled=sampled,
                        sample_root_key=root,
                    )
                except CensusError as exc:
                    # Shard-local node ids are meaningless to the caller:
                    # re-raise with the global root and the shard named.
                    raise CensusError(
                        f"{exc} [global root {root}, "
                        f"partition {partition.part_id}]"
                    ) from exc
    telemetry.count("dist/partition_tasks")
    telemetry.count("dist/roots_censused", len(roots))
    telemetry.gauge_max("dist/straggler_s", span.elapsed)
    return results


class ShardWorker(OpServer):
    """One shard-holding census worker on a :mod:`repro.net` endpoint."""

    family = "worker"
    # Census/partition failures are the shard's problem, not the
    # transport's: ship them back typed so the coordinator can fail the
    # run with the real message instead of retrying.
    domain_error = (ReproError, "shard_error")

    def __init__(
        self,
        endpoint,
        *,
        partitions: dict[int, GraphPartition] | None = None,
    ) -> None:
        # One census at a time: shard censuses are CPU-bound, and the
        # coordinator assigns at most one task per worker anyway.  The
        # loop itself stays free for pings.
        super().__init__(endpoint, threads=1)
        self.shards: dict[int, GraphPartition] = dict(partitions or {})
        self.censuses = 0
        #: Census RPCs currently executing (0 or 1 — one compute thread);
        #: visible through ``stats`` so orchestration tests and monitors
        #: can tell a busy worker from an idle one.
        self.inflight = 0

    def op_table(self) -> dict:
        return {
            "ping": self._op_ping,
            "load_shard": self._op_load_shard,
            "census": self._op_census,
            "stats": self._op_stats,
        }

    async def _op_ping(self, request: dict) -> dict:
        return {
            "pid": os.getpid(),
            "shards": sorted(self.shards),
            "requests": self.requests,
        }

    async def _op_stats(self, request: dict) -> dict:
        return {
            "shards": sorted(self.shards),
            "requests": self.requests,
            "censuses": self.censuses,
            "inflight": self.inflight,
        }

    async def _op_load_shard(self, request: dict) -> dict:
        shard_id = require(request, "shard", int)
        partition = decode_blob(require(request, "blob"))
        if not isinstance(partition, GraphPartition):
            raise NetError(
                "bad_request",
                f"load_shard blob decoded to {type(partition).__name__}, "
                "expected GraphPartition",
            )
        if partition.part_id != shard_id:
            raise NetError(
                "bad_request",
                f"shard id mismatch: frame says {shard_id}, "
                f"partition says {partition.part_id}",
            )
        self.shards[shard_id] = partition
        get_telemetry().count("worker/shards_loaded")
        logger.info("loaded shard %d", shard_id)
        return {"loaded": shard_id, "shards": sorted(self.shards)}

    async def _op_census(self, request: dict) -> dict:
        shard_id = require(request, "shard", int)
        partition = self.shards.get(shard_id)
        if partition is None:
            raise NetError(
                "shard_error",
                f"shard {shard_id} not loaded "
                f"(have {sorted(self.shards)}); ship it with load_shard",
            )
        payload = decode_blob(require(request, "blob"))
        if not (isinstance(payload, (tuple, list)) and len(payload) == 4):
            raise NetError(
                "bad_request",
                f"census blob decoded to {type(payload).__name__}, "
                "expected (roots, config, engine, sampled)",
            )
        roots, config, engine, sampled = payload

        def _run() -> bytes:
            telemetry = Telemetry()
            results = _census_partition(
                partition, roots, config, engine, telemetry, sampled
            )
            return encode_blob((results, telemetry.snapshot()))

        self.inflight += 1
        try:
            blob = await self.run_in_thread(_run)
        finally:
            self.inflight -= 1
        self.censuses += 1
        get_telemetry().count("worker/censuses")
        return {"shard": shard_id, "blob": blob}

