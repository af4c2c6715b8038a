"""Sharded census driver: fan halo-complete partitions across workers.

:func:`subgraph_census_sharded` is the scale-out counterpart of
``SubgraphFeatureExtractor.census_many``: instead of fanning *roots*
over one shared in-memory graph (every worker receives the whole
pickled graph), it fans *partitions* — each worker receives one compact
shard (owned nodes + halo, built once by :mod:`repro.dist.partition`)
and censuses only the roots its shard owns.  Halo nodes are read-only
context, per-root results are translated back to global node ids, and
the merged list is restored to input order — **bit-identical** to the
single-shard fast engine.

Partition sets are content-addressed in the
:class:`~repro.runtime.store.ArtifactStore` under the ``"partition"``
stage (keyed by graph fingerprint, ``k``, strategy, halo depth, and
``d_max``), so warm reruns skip the partitioning step entirely.

Telemetry: per-partition wall clock (``dist/partition_wall`` timer and
the ``dist/straggler_s`` peak gauge), owned/halo node counts and the
halo expansion ratio (``dist/*`` counters/gauges), all merged into the
run manifest alongside the artifact-store counters.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.census import CensusConfig, subgraph_census
from repro.core.graph import HeteroGraph
from repro.core.sampled import SampledCensusConfig
from repro.dist.partition import (
    GraphPartition,
    PartitionConfig,
    PartitionSet,
    partition_graph,
    partition_store_config,
)
from repro.exceptions import CensusError, PartitionError
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.runtime.context import VALID_EXECUTORS, RunContext, resolve_engine
from repro.runtime.executor import run_tasks
from repro.runtime.store import STAGE_PARTITION


def ensure_partitions(
    graph: HeteroGraph,
    config: PartitionConfig,
    census_config: CensusConfig,
    ctx: RunContext | None = None,
) -> PartitionSet:
    """Fetch the partition set from the context store, or build it.

    Store hits/misses land under ``artifact/partition/*`` like every
    other stage, so a warm rerun's skipped partitioning is auditable.
    """
    store = ctx.store if ctx is not None else None
    if store is None:
        return partition_graph(graph, config, census_config)
    stage_config = partition_store_config(config, census_config)
    cached = store.get(graph.fingerprint(), STAGE_PARTITION, stage_config)
    if cached is not None:
        return cached
    pset = partition_graph(graph, config, census_config)
    store.put(graph.fingerprint(), STAGE_PARTITION, stage_config, pset)
    return pset


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


def _census_shard(shared: tuple, task: tuple) -> dict:
    """Census one shard's owned roots: the local shard fan-out task."""
    config, engine, sampled = shared
    partition, roots = task
    return _census_partition(
        partition, roots, config, engine, get_telemetry(), sampled
    )


def sharded_census_map(
    graph: HeteroGraph,
    roots: Sequence[int],
    config: CensusConfig,
    partitions: PartitionSet,
    *,
    engine: str | None = None,
    sampled: SampledCensusConfig | None = None,
    n_jobs: int = 1,
    executor: str = "local",
    workers: Sequence | None = None,
) -> dict:
    """Census unique global ``roots`` through the shards; return a dict.

    Roots are routed to their owning partition; shard tasks are
    dispatched heaviest-first (summed root degree) so straggler shards
    start early, mirroring the hub-first scheduling of the root-fanning
    driver.

    ``executor="local"`` (the default) fans tasks out through
    :func:`repro.runtime.executor.run_tasks` — ``n_jobs == 1`` (or a
    single loaded shard) runs in-process, no pool startup for small
    work.  ``executor="remote"`` ships the *same* task list to
    ``workers`` (a sequence of ``repro worker`` endpoint specs) through
    :class:`repro.dist.remote.RemoteExecutor`; the shard census code is
    shared, so results are bit-identical either way.
    """
    resolve_engine(executor, VALID_EXECUTORS, param="executor")
    telemetry = get_telemetry()
    telemetry.annotate("dist/partitions", len(partitions))
    telemetry.annotate("dist/strategy", partitions.config.strategy)
    telemetry.annotate("dist/executor", executor)
    by_partition: dict[int, list] = {}
    for root in roots:
        root = int(root)
        by_partition.setdefault(partitions.owner_of(root), []).append(root)
    tasks = [
        (partitions.partitions[part_id], owned_roots)
        for part_id, owned_roots in by_partition.items()
    ]
    degrees = graph.flat().degrees
    tasks.sort(
        key=lambda task: sum(degrees[r] for r in task[1]), reverse=True
    )
    if executor == "remote":
        from repro.dist.remote import RemoteExecutor

        if not workers:
            raise PartitionError(
                "executor='remote' needs worker endpoints "
                "(--workers HOST:PORT[,HOST:PORT...])"
            )
        return RemoteExecutor(workers).census_map(
            tasks, config, engine=engine, sampled=sampled, telemetry=telemetry
        )
    results: dict = {}
    for shard_results in run_tasks(
        _census_shard, tasks, n_jobs=n_jobs, shared=(config, engine, sampled)
    ):
        results.update(shard_results)
    return results


def subgraph_census_sharded(
    graph: HeteroGraph,
    nodes: Sequence[int],
    config: CensusConfig | None = None,
    *,
    partitions: "int | PartitionConfig | PartitionSet",
    sampled: SampledCensusConfig | None = None,
    ctx: RunContext | None = None,
) -> list[Counter]:
    """Rooted censuses for ``nodes``, computed over graph shards.

    Parameters
    ----------
    graph:
        The full heterogeneous network (used for routing and, on a cold
        store, for cutting the shards).
    nodes:
        Root node indices; results align positionally, duplicates are
        censused once and fanned out as independent copies.
    config:
        Census parameters; defaults to ``CensusConfig()``.
    partitions:
        Shard count, a :class:`~repro.dist.partition.PartitionConfig`,
        or a prebuilt :class:`~repro.dist.partition.PartitionSet`.
    sampled:
        Estimator knobs for ``engine="sampled"``; the per-root budget
        rides into each shard task unchanged and the probe RNG seeds
        from global root ids, so estimates are bit-identical at any
        partition count.
    ctx:
        Optional :class:`~repro.runtime.context.RunContext` carrying the
        census ``engine`` each worker runs, ``n_jobs`` worker processes
        for the shard fan-out (``0`` = all cores), the ``executor``
        (``"local"`` process pool, the default, or ``"remote"`` to ship
        tasks to the ``repro worker`` daemons listed in ``workers``), and
        the artifact store memoising partition sets.

    Returns
    -------
    list[Counter]
        Per-root censuses, bit-identical to
        ``subgraph_census(graph, root, config)`` for every root.
    """
    if config is None:
        config = CensusConfig()
    ctx = ctx if ctx is not None else RunContext()
    if isinstance(partitions, PartitionSet):
        pset = partitions
        if pset.fingerprint != graph.fingerprint():
            raise PartitionError(
                "partition set was built for a different graph"
            )
    else:
        if isinstance(partitions, PartitionConfig):
            pconfig = partitions
        else:
            pconfig = PartitionConfig(num_partitions=int(partitions))
        pset = ensure_partitions(graph, pconfig, config, ctx)

    positions: dict[int, list[int]] = {}
    for pos, node in enumerate(nodes):
        positions.setdefault(int(node), []).append(pos)
    computed = sharded_census_map(
        graph,
        list(positions),
        config,
        pset,
        engine=ctx.engine,
        sampled=sampled,
        n_jobs=ctx.resolved_n_jobs(default=1),
        executor=ctx.resolved_executor(),
        workers=ctx.workers,
    )
    results: list = [None] * len(nodes)
    for node, node_positions in positions.items():
        census = computed[node]
        results[node_positions[0]] = census
        for pos in node_positions[1:]:
            # copy() rather than Counter(): a SampledCensus copy keeps
            # its confidence report.
            results[pos] = census.copy()
    return results
