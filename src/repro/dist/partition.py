"""Graph partitioning with halo-complete shards for the rooted census.

A rooted census (``repro.core.census``) only ever touches the ball of
radius ``e_max`` around its root: a connected subgraph with at most
``e_max`` edges cannot contain a node further than ``e_max`` hops away.
That locality is what makes the census shardable: split the node set
into ``k`` *owned* ranges, expand every shard with the halo nodes its
owned roots can reach, and each shard can census its own roots without
ever consulting the rest of the graph — the per-partition results are
**bit-identical** to the single-shard engines (asserted by the
randomized parity suite in ``tests/test_census_partitioned.py``).

Halo depth derivation
---------------------
The halo must contain every node a census subgraph rooted at an owned
node can include:

* ``e_max`` bounds the depth outright — reaching a node at hop distance
  ``d`` costs at least ``d`` of the ``e_max`` edge budget, so depth
  ``h = e_max`` always suffices (edges between two depth-``h`` nodes
  would need ``e_max + 1`` edges to reach and are never enumerated);
* the ``d_max`` hub heuristic tightens the *frontier*: the census never
  expands past a node whose **global** degree exceeds ``d_max`` (the
  root itself is exempt), so halo BFS stops at hubs too — hub-heavy
  graphs get dramatically smaller halos.  Owned nodes are all treated
  as potential roots (always expanded), which can only enlarge the
  halo, never corrupt a count.

Because the hub check compares *global* degree, every partition carries
the global degree of each of its nodes; a hub whose local degree drops
below ``d_max`` inside a shard must still be treated as a hub.

Local ids
---------
Each partition re-indexes its nodes into a dense local id space (global
order preserved) and rebuilds a compact
:class:`~repro.core.graph.FlatAdjacency` over it once, at partition
time.  Canonical census codes only mention labels — never node ids —
so re-indexing cannot perturb emitted keys, and the per-node adjacency
order (sorted by label, then global index) is preserved by filtering,
keeping the grouping heuristic's same-label runs contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.census import CensusConfig
from repro.core.graph import FlatAdjacency, FlatGraph, HeteroGraph
from repro.core.labels import LabelSet
from repro.exceptions import PartitionError
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext, resolve_engine
from repro.runtime.store import STAGE_PARTITION

logger = get_logger(__name__)

#: Valid partitioning strategies: ``"contiguous"`` slices the node index
#: space into k near-equal ranges (preserves locality of index-clustered
#: datasets); ``"hash"`` assigns node ``v`` to partition ``v % k``
#: (spreads hubs and index-correlated load).
STRATEGIES = ("contiguous", "hash")


def required_halo_depth(config: CensusConfig) -> int:
    """The halo depth guaranteeing local completeness for ``config``.

    ``e_max`` hops — see the module docstring for the derivation.
    """
    return config.max_edges


@dataclass(frozen=True)
class PartitionConfig:
    """How a graph is split into census shards.

    Attributes
    ----------
    num_partitions:
        ``k`` — how many shards to cut the node set into.
    strategy:
        ``"contiguous"`` (node ranges) or ``"hash"`` (``node % k``).
    halo_depth:
        Hop depth of the halo, or ``None`` (default) to derive it from
        the census config via :func:`required_halo_depth`.  Values below
        the derived depth are rejected at partition time — a too-shallow
        halo would silently undercount.
    """

    num_partitions: int
    strategy: str = "contiguous"
    halo_depth: int | None = None

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise PartitionError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )
        resolve_engine(
            self.strategy,
            STRATEGIES,
            param="partition strategy",
            error=PartitionError,
        )
        if self.halo_depth is not None and self.halo_depth < 1:
            raise PartitionError(
                f"halo_depth must be >= 1, got {self.halo_depth}"
            )


class PartitionGraph(FlatGraph):
    """Census-compatible view of one shard (owned nodes plus halo).

    A plain :class:`~repro.core.graph.FlatGraph` over the shard's compact
    local adjacency — the flat-adjacency contract is exactly the surface
    the census engines touch.  The one shard-specific wrinkle is that
    ``degree``/``degrees`` report the node's degree in the *full* graph
    (the snapshot's ``degrees`` are recorded globally at partition time,
    see the module docstring) so ``d_max`` hub checks inside a shard
    match the single-shard engines bit for bit, while node ids are
    partition-local.
    """

    storage_kind = "partition"

    __slots__ = ()


@dataclass
class GraphPartition:
    """One shard: owned node set, halo, local graph, and id maps.

    ``global_ids[local] -> global`` and ``local_of[global] -> local``
    translate between the shard's dense id space and the parent graph;
    ``owned_locals`` are the local ids this shard is authoritative for
    (workers census only those — halo nodes are read-only context).
    """

    part_id: int
    graph: PartitionGraph
    global_ids: list
    local_of: dict
    owned_locals: list
    halo_depth: int
    stats: dict = field(default_factory=dict)

    @property
    def owned_count(self) -> int:
        return len(self.owned_locals)

    @property
    def halo_count(self) -> int:
        return len(self.global_ids) - len(self.owned_locals)

    def local(self, global_index: int) -> int:
        """Local id of a global node index (must be present in the shard)."""
        try:
            return self.local_of[int(global_index)]
        except KeyError:
            raise PartitionError(
                f"node {global_index} is not in partition {self.part_id}"
            ) from None


@dataclass
class PartitionSet:
    """All shards of one graph under one :class:`PartitionConfig`.

    Owner assignment is an exact cover: every global node index belongs
    to exactly one partition's owned set, so routing roots via
    :meth:`owner_of` can never drop or double-census a root.
    """

    config: PartitionConfig
    fingerprint: str
    num_nodes: int
    halo_depth: int
    partitions: list

    def owner_of(self, node: int) -> int:
        """Partition id owning the global node index ``node``."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise PartitionError(f"node index {node} out of range")
        k = self.config.num_partitions
        if self.config.strategy == "hash":
            return node % k
        bound = -(-self.num_nodes // k)  # ceil-divided contiguous ranges
        return min(node // bound, k - 1) if bound else 0

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def aggregate_stats(self) -> dict:
        """Shard-size summary used for telemetry and the run manifest."""
        owned = [part.owned_count for part in self.partitions]
        halo = [part.halo_count for part in self.partitions]
        edges = [part.graph.num_edges for part in self.partitions]
        total_owned = sum(owned) or 1
        return {
            "num_partitions": len(self.partitions),
            "halo_depth": self.halo_depth,
            "strategy": self.config.strategy,
            "owned_nodes": sum(owned),
            "halo_nodes": sum(halo),
            "halo_ratio": sum(halo) / total_owned,
            "max_partition_nodes": max(
                (o + h for o, h in zip(owned, halo)), default=0
            ),
            "local_edges": sum(edges),
        }


def partition_store_config(
    config: PartitionConfig, census_config: CensusConfig
) -> tuple:
    """The artifact-store stage config addressing one partition set.

    Only the census parameters the halo shape depends on participate
    (``max_edges`` via the derived depth, ``max_degree`` via hub
    pruning) — key modes, masking, and caps reuse the same shards.
    """
    depth = (
        config.halo_depth
        if config.halo_depth is not None
        else required_halo_depth(census_config)
    )
    return (
        config.num_partitions,
        config.strategy,
        depth,
        census_config.max_degree,
    )


def _owned_ranges(num_nodes: int, config: PartitionConfig) -> list:
    """Global node indices owned by each partition (exact cover)."""
    k = config.num_partitions
    if config.strategy == "hash":
        return [list(range(p, num_nodes, k)) for p in range(k)]
    bound = -(-num_nodes // k) if num_nodes else 0
    owned = [[] for _ in range(k)]
    for part in range(k):
        lo = min(part * bound, num_nodes)
        hi = min(lo + bound, num_nodes) if part < k - 1 else num_nodes
        owned[part] = list(range(lo, hi))
    return owned


def _halo_bfs(
    flat: FlatAdjacency, owned: list, depth: int, max_degree: int | None
) -> set:
    """Nodes reachable by a census rooted anywhere in ``owned``.

    Mirrors the census frontier exactly: seeds (potential roots) are
    always expanded, later levels stop at global-degree hubs when the
    ``d_max`` heuristic is active, and everything stops at ``depth``
    hops.  Returns the full included node set (owned plus halo).
    """
    indptr = flat.indptr
    neighbors = flat.neighbors
    degrees = flat.degrees
    seen = set(owned)
    frontier = owned
    for level in range(depth):
        nxt = []
        for node in frontier:
            if level > 0 and max_degree is not None and degrees[node] > max_degree:
                continue  # census never expands past a non-root hub
            for other in neighbors[indptr[node]: indptr[node + 1]]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        if not nxt:
            break
        frontier = nxt
    return seen


def _build_partition(
    part_id: int,
    flat: FlatAdjacency,
    labelset: LabelSet,
    owned: list,
    depth: int,
    max_degree: int | None,
) -> GraphPartition:
    """Cut one shard: halo BFS, local re-index, compact flat adjacency."""
    included = _halo_bfs(flat, owned, depth, max_degree)
    global_ids = sorted(included)
    local_of = {g: i for i, g in enumerate(global_ids)}
    owned_set = set(owned)

    indptr_g = flat.indptr
    neighbors_g = flat.neighbors
    labels: list = []
    degrees: list = []
    indptr = [0]
    neighbors: list = []
    edge_ids: list = []
    edge_u: list = []
    edge_v: list = []
    id_of: dict = {}
    for g in global_ids:
        labels.append(flat.labels[g])
        degrees.append(flat.degrees[g])  # global degree, deliberately
        u = local_of[g]
        for w in neighbors_g[indptr_g[g]: indptr_g[g + 1]]:
            lw = local_of.get(w)
            if lw is None:
                continue  # neighbour outside the shard: never census-reachable
            neighbors.append(lw)
            key = (u, lw) if u < lw else (lw, u)
            eid = id_of.get(key)
            if eid is None:
                eid = len(edge_u)
                id_of[key] = eid
                edge_u.append(key[0])
                edge_v.append(key[1])
            edge_ids.append(eid)
        indptr.append(len(neighbors))
    local_flat = FlatAdjacency(
        labels=labels,
        degrees=degrees,
        indptr=indptr,
        neighbors=neighbors,
        edge_ids=edge_ids,
        edge_u=edge_u,
        edge_v=edge_v,
    )
    owned_locals = [local_of[g] for g in owned]
    partition = GraphPartition(
        part_id=part_id,
        graph=PartitionGraph(local_flat, labelset),
        global_ids=global_ids,
        local_of=local_of,
        owned_locals=owned_locals,
        halo_depth=depth,
    )
    partition.stats = {
        "owned": len(owned),
        "halo": len(global_ids) - len(owned),
        "local_edges": len(edge_u),
    }
    return partition


def partition_graph(
    graph: HeteroGraph,
    config: PartitionConfig,
    census_config: CensusConfig | None = None,
) -> PartitionSet:
    """Split ``graph`` into halo-complete census shards.

    ``census_config`` supplies the halo parameters (``e_max`` depth and
    the ``d_max`` frontier cut) unless the partition config pins an
    explicit ``halo_depth``; an explicit depth below the derived
    requirement is rejected because it would silently undercount.
    Partition-size telemetry lands under ``dist/*`` counters.

    A shard whose halo grows it to the whole graph is *degenerate*: it
    costs a full copy of the graph and saves nothing.  Such shards are
    counted as ``dist/degenerate_shards``, and the build logs one
    warning.  A single shard owning every node has no halo and is not
    counted.
    """
    census_config = census_config if census_config is not None else CensusConfig()
    needed = required_halo_depth(census_config)
    depth = config.halo_depth if config.halo_depth is not None else needed
    if depth < needed:
        raise PartitionError(
            f"halo_depth={depth} is below the e_max-derived requirement "
            f"{needed}; rooted censuses would be locally incomplete"
        )
    flat = graph.flat()
    labelset = graph.labelset
    telemetry = get_telemetry()
    partitions = []
    with telemetry.span("dist/partition_build"):
        for part_id, owned in enumerate(_owned_ranges(graph.num_nodes, config)):
            partitions.append(
                _build_partition(
                    part_id,
                    flat,
                    labelset,
                    owned,
                    depth,
                    census_config.max_degree,
                )
            )
    pset = PartitionSet(
        config=config,
        fingerprint=graph.fingerprint(),
        num_nodes=graph.num_nodes,
        halo_depth=depth,
        partitions=partitions,
    )
    stats = pset.aggregate_stats()
    telemetry.count("dist/partition_builds")
    telemetry.count("dist/halo_nodes", stats["halo_nodes"])
    telemetry.count("dist/owned_nodes", stats["owned_nodes"])
    telemetry.gauge_max("dist/halo_ratio_max", stats["halo_ratio"])
    degenerate = sum(
        1
        for part in partitions
        if part.halo_count and len(part.global_ids) == graph.num_nodes
    )
    if degenerate:
        telemetry.count("dist/degenerate_shards", degenerate)
        logger.warning(
            "degenerate cut: %d of %d shards hold all %d nodes "
            "(halo depth %d, d_max %s); fewer partitions or a smaller "
            "d_max ship less",
            degenerate,
            len(partitions),
            graph.num_nodes,
            depth,
            census_config.max_degree,
        )
    return pset


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
