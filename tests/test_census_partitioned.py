"""Randomized parity suite for the partitioned census (`repro.dist`).

The contract under test is absolute: for every root, the sharded census
must return a ``Counter`` *bit-identical* to the single-shard fast
engine, across shard counts, partitioning strategies, masked/unmasked
configs, hub-capped and uncapped runs, and duplicate/out-of-order root
lists.  The suite also pins the partitioner invariants the guarantee
rests on: exact-cover ownership, global degrees inside shards, and the
rejection of halos too shallow for the census radius.
"""

from __future__ import annotations

import random

import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.dist import (
    PartitionConfig,
    PartitionSet,
    ensure_partitions,
    partition_graph,
    required_halo_depth,
    subgraph_census_sharded,
)
from repro.core.graph import HeteroGraph
from repro.exceptions import FeatureError, PartitionError
from repro.runtime.context import RunContext
from repro.runtime.store import STAGE_PARTITION, ArtifactStore

PARTITION_COUNTS = (1, 2, 3, 7)


def random_hetero_graph(seed: int, directed_sampling: bool = False) -> HeteroGraph:
    """A random labelled graph; density and size vary with the seed.

    ``directed_sampling`` draws edges as *ordered* pairs (both
    orientations possible, canonicalised by ``HeteroGraph`` into one
    undirected edge) — a different degree/multiplicity profile than
    plain undirected sampling, exercising the dedup path of the flat
    adjacency builder inside each shard.
    """
    rng = random.Random(seed)
    num_labels = rng.randint(2, 4)
    labels = "ABCD"[:num_labels]
    n = rng.randint(12, 30)
    nodes = {f"n{i}": rng.choice(labels) for i in range(n)}
    p = rng.uniform(0.08, 0.25)
    if directed_sampling:
        # ordered pairs, canonicalised + deduped into undirected edges
        drawn = {
            (min(i, j), max(i, j))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < p / 2
        }
        edges = [(f"n{i}", f"n{j}") for i, j in sorted(drawn)]
    else:
        edges = [
            (f"n{i}", f"n{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
    if not edges:
        edges = [("n0", "n1")]
    return HeteroGraph.from_edges(nodes, edges)


def hubby_graph() -> HeteroGraph:
    """A star-of-stars: hub nodes whose pruning must match across shards."""
    nodes = {"hub": "A"}
    edges = []
    for i in range(8):
        spoke = f"s{i}"
        nodes[spoke] = "B"
        edges.append(("hub", spoke))
        for j in range(3):
            leaf = f"s{i}_l{j}"
            nodes[leaf] = "C"
            edges.append((spoke, leaf))
    return HeteroGraph.from_edges(nodes, edges)


def single_shard(graph, roots, config):
    return [subgraph_census(graph, r, config, engine="fast") for r in roots]


# ---------------------------------------------------------------------------
# parity: sharded == single-shard fast engine, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("strategy", ("contiguous", "hash"))
def test_randomized_parity(seed, strategy):
    directed_sampling = seed % 2 == 1
    graph = random_hetero_graph(seed, directed_sampling=directed_sampling)
    rng = random.Random(seed + 1000)
    config = CensusConfig(
        max_edges=3,
        max_degree=rng.choice([None, 3, 5]),
        mask_start_label=seed % 3 == 0,
    )
    # out-of-order roots with duplicates
    roots = list(range(graph.num_nodes))
    rng.shuffle(roots)
    roots = roots[: max(4, graph.num_nodes // 2)]
    roots += [roots[0], roots[2], roots[0]]
    expected = single_shard(graph, roots, config)
    for k in PARTITION_COUNTS:
        pconfig = PartitionConfig(num_partitions=k, strategy=strategy)
        got = subgraph_census_sharded(graph, roots, config, partitions=pconfig)
        assert got == expected, f"k={k} strategy={strategy}"


@pytest.mark.parametrize("max_degree", (None, 2, 4))
def test_hub_graph_parity(max_degree):
    """Hub pruning must behave identically inside shards (global degrees)."""
    graph = hubby_graph()
    config = CensusConfig(max_edges=3, max_degree=max_degree)
    roots = list(range(graph.num_nodes))
    expected = single_shard(graph, roots, config)
    for k in PARTITION_COUNTS:
        for strategy in ("contiguous", "hash"):
            got = subgraph_census_sharded(
                graph,
                roots,
                config,
                partitions=PartitionConfig(num_partitions=k, strategy=strategy),
            )
            assert got == expected


def test_parity_with_multiprocess_fanout():
    graph = random_hetero_graph(42)
    config = CensusConfig(max_edges=3, max_degree=4, mask_start_label=True)
    roots = list(range(graph.num_nodes)) + [0, 0]
    expected = single_shard(graph, roots, config)
    got = subgraph_census_sharded(
        graph, roots, config, partitions=3, ctx=RunContext(n_jobs=2)
    )
    assert got == expected


def test_multiprocess_fanout_keeps_census_counters():
    """Counters the census records inside shard workers reach the parent."""
    from repro.obs.telemetry import fresh_telemetry

    graph = random_hetero_graph(42)
    config = CensusConfig(max_edges=3)
    roots = list(range(graph.num_nodes))
    stats = []
    for n_jobs in (1, 2):
        with fresh_telemetry() as telemetry:
            subgraph_census_sharded(
                graph, roots, config, partitions=2, ctx=RunContext(n_jobs=n_jobs)
            )
        stats.append(telemetry)
    serial, parallel = stats
    for name in ("census/calls", "census/subgraphs"):
        assert parallel.counters[name] == serial.counters[name] > 0
    assert (
        parallel.timers["census/root"].count
        == serial.timers["census/root"].count
    )


def test_duplicate_roots_are_independent_counters():
    graph = random_hetero_graph(7)
    config = CensusConfig(max_edges=2)
    results = subgraph_census_sharded(graph, [0, 0], config, partitions=2)
    assert results[0] == results[1]
    results[0]["poison"] = 99
    assert "poison" not in results[1]


def test_key_modes_and_cap_survive_sharding():
    graph = random_hetero_graph(11)
    for key in ("canonical", "string", "hash"):
        config = CensusConfig(max_edges=2, key=key)
        roots = [0, 1, 2]
        assert (
            subgraph_census_sharded(graph, roots, config, partitions=3)
            == single_shard(graph, roots, config)
        )


# ---------------------------------------------------------------------------
# partitioner invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ("contiguous", "hash"))
@pytest.mark.parametrize("k", PARTITION_COUNTS)
def test_ownership_is_an_exact_cover(strategy, k):
    graph = random_hetero_graph(5)
    config = PartitionConfig(num_partitions=k, strategy=strategy)
    pset = partition_graph(graph, config, CensusConfig(max_edges=2))
    seen = {}
    for part in pset:
        for local in part.owned_locals:
            g = part.global_ids[local]
            assert g not in seen, f"node {g} owned twice"
            seen[g] = part.part_id
            assert pset.owner_of(g) == part.part_id
    assert sorted(seen) == list(range(graph.num_nodes))


def test_local_global_id_maps_are_inverse():
    graph = random_hetero_graph(9)
    pset = partition_graph(
        graph, PartitionConfig(num_partitions=3), CensusConfig(max_edges=3)
    )
    for part in pset:
        for local, g in enumerate(part.global_ids):
            assert part.local_of[g] == local
            assert part.local(g) == local
            # labels and (global) degrees survive the re-index
            assert part.graph.label_of(local) == graph.label_of(g)
            assert part.graph.degree(local) == graph.degree(g)
        with pytest.raises(PartitionError):
            part.local(graph.num_nodes + 5)


def test_halo_contains_census_ball_of_every_owned_root():
    """Every node any owned root's census can include is in the shard."""
    graph = random_hetero_graph(13)
    config = CensusConfig(max_edges=3, max_degree=4)
    pset = partition_graph(
        graph, PartitionConfig(num_partitions=3, strategy="hash"), config
    )
    for part in pset:
        present = set(part.global_ids)
        for local in part.owned_locals:
            root = part.global_ids[local]
            census_nodes = _census_reachable(graph, root, config)
            assert census_nodes <= present


def _census_reachable(graph, root, config):
    """Hub-pruned e_max ball: the nodes the census can possibly include."""
    depth = config.max_edges
    dmax = config.max_degree
    seen = {root}
    frontier = [root]
    for level in range(depth):
        nxt = []
        for node in frontier:
            if (
                level > 0
                and dmax is not None
                and graph.degree(node) > dmax
            ):
                continue
            for other in graph.neighbors(node):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def test_shallow_halo_is_rejected():
    graph = random_hetero_graph(1)
    census = CensusConfig(max_edges=4)
    assert required_halo_depth(census) == 4
    with pytest.raises(PartitionError, match="locally incomplete"):
        partition_graph(
            graph,
            PartitionConfig(num_partitions=2, halo_depth=2),
            census,
        )
    # an equal-or-deeper explicit halo is fine
    pset = partition_graph(
        graph, PartitionConfig(num_partitions=2, halo_depth=5), census
    )
    assert pset.halo_depth == 5


def test_partition_config_validation():
    with pytest.raises(PartitionError):
        PartitionConfig(num_partitions=0)
    with pytest.raises(PartitionError, match="partition strategy"):
        PartitionConfig(num_partitions=2, strategy="ring")
    with pytest.raises(PartitionError):
        PartitionConfig(num_partitions=2, halo_depth=0)


def test_mismatched_partition_set_is_rejected():
    graph = random_hetero_graph(2)
    other = random_hetero_graph(3)
    pset = partition_graph(
        graph, PartitionConfig(num_partitions=2), CensusConfig(max_edges=2)
    )
    assert isinstance(pset, PartitionSet)
    with pytest.raises(PartitionError, match="different graph"):
        subgraph_census_sharded(
            other, [0], CensusConfig(max_edges=2), partitions=pset
        )


def test_cap_error_names_global_root_and_partition():
    """Shard-local failures must report global ids, not local ones."""
    graph = hubby_graph()
    config = CensusConfig(max_edges=3, max_subgraphs=1)
    with pytest.raises(Exception) as excinfo:
        subgraph_census_sharded(graph, [graph.num_nodes - 1], config, partitions=3)
    assert "global root" in str(excinfo.value)
    assert "partition" in str(excinfo.value)


# ---------------------------------------------------------------------------
# runtime integration: store memoisation, extractor, context
# ---------------------------------------------------------------------------


def test_partition_artifacts_are_store_memoised(tmp_path):
    graph = random_hetero_graph(21)
    census = CensusConfig(max_edges=3, max_degree=4)
    store = ArtifactStore(tmp_path / "store.pkl")
    ctx = RunContext(store=store)
    pconfig = PartitionConfig(num_partitions=2)
    first = ensure_partitions(graph, pconfig, census, ctx)
    assert store.misses == 1 and store.hits == 0
    second = ensure_partitions(graph, pconfig, census, ctx)
    assert store.hits == 1
    assert second.fingerprint == first.fingerprint
    assert [p.global_ids for p in second] == [p.global_ids for p in first]
    assert store.stage_entries(STAGE_PARTITION) == 1
    # a different d_max reshapes the halo -> a different artifact
    ensure_partitions(
        graph, pconfig, CensusConfig(max_edges=3, max_degree=2), ctx
    )
    assert store.stage_entries(STAGE_PARTITION) == 2


def test_extractor_routes_through_shards(tmp_path):
    graph = random_hetero_graph(17)
    config = CensusConfig(max_edges=3, max_degree=5, mask_start_label=True)
    roots = list(range(0, graph.num_nodes, 2)) + [1, 1]
    expected = single_shard(graph, roots, config)

    plain = SubgraphFeatureExtractor(config)
    assert plain.census_many(graph, roots, partitions=3) == expected
    assert plain.partitions is None  # per-call override leaves the policy

    store = ArtifactStore(tmp_path / "store.pkl")
    ctx = RunContext(partitions=3, store=store)
    sharded = SubgraphFeatureExtractor(config, ctx=ctx)
    assert sharded.partitions == 3
    assert sharded.census_many(graph, roots) == expected
    # shards were cut once and cached alongside the per-root censuses
    assert store.stage_entries(STAGE_PARTITION) == 1
    with pytest.raises(FeatureError):
        sharded.census_many(graph, roots, partitions=0)


def test_context_resolves_partitions():
    assert RunContext().resolved_partitions() is None
    assert RunContext(partitions=4).resolved_partitions() == 4
    assert RunContext().resolved_partitions(default=2) == 2
    with pytest.raises(ValueError):
        RunContext(partitions=0).resolved_partitions()
