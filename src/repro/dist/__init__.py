"""Distributed census: halo-complete graph shards + partition fan-out.

The census is local by construction (a rooted subgraph with ``e_max``
edges never leaves the ``e_max``-ball of its root), so it shards: cut
the node set into ``k`` owned ranges, expand each shard with the halo
its roots can reach, and every shard censuses its own roots against a
compact local adjacency — bit-identical to the single-shard engines.
See ``docs/distributed_census.md`` for the partitioning scheme, the
halo-depth derivation, and the merge semantics.

Above :func:`sharded_census_map` sits the cross-machine dispatch layer:
``repro worker`` runs a :class:`~repro.dist.worker.ShardWorker` daemon
on a :mod:`repro.net` endpoint, and ``executor="remote"`` routes the
same shard tasks through :class:`~repro.dist.remote.RemoteExecutor`
(shard shipping, per-shard timeouts, heartbeats, dead-worker
reassignment) — results stay bit-identical to the local pool.
"""

from repro.dist.partition import (
    GraphPartition,
    PartitionConfig,
    PartitionGraph,
    PartitionSet,
    STRATEGIES,
    partition_graph,
    partition_store_config,
    required_halo_depth,
)
from repro.dist.remote import RemoteExecutor
from repro.dist.sharded import (
    ensure_partitions,
    sharded_census_map,
    subgraph_census_sharded,
)
from repro.dist.worker import ShardWorker

__all__ = [
    "GraphPartition",
    "PartitionConfig",
    "PartitionGraph",
    "PartitionSet",
    "STRATEGIES",
    "RemoteExecutor",
    "ShardWorker",
    "ensure_partitions",
    "partition_graph",
    "partition_store_config",
    "required_halo_depth",
    "sharded_census_map",
    "subgraph_census_sharded",
]
