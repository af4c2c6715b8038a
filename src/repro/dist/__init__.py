"""Remote census: halo-complete graph shards shipped to worker daemons.

The census is local by construction (a rooted subgraph with ``e_max``
edges never leaves the ``e_max``-ball of its root), so it shards: cut
the node set into ``k`` owned ranges, expand each shard with the halo
its roots can reach, and every shard censuses its own roots against a
compact local adjacency — bit-identical to ``subgraph_census`` on the
whole graph.  Shards are the unit of remote work only: ``repro worker``
runs a :class:`~repro.dist.worker.ShardWorker` daemon on a
:mod:`repro.net` endpoint, and :class:`~repro.dist.remote.RemoteExecutor`
ships shards and root lists to those daemons (per-shard timeouts,
heartbeats, dead-worker reassignment).  A local census fans out by
root instead (``SubgraphFeatureExtractor.census_many``).  See
``docs/distributed_census.md`` for the partitioning scheme, the
halo-depth derivation, and the merge semantics.
"""

from repro.dist.partition import (
    GraphPartition,
    PartitionConfig,
    PartitionGraph,
    PartitionSet,
    STRATEGIES,
    ensure_partitions,
    partition_graph,
    partition_store_config,
    required_halo_depth,
)
from repro.dist.remote import RemoteExecutor
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
]
