"""Engine parity: the fast census must match the reference bit-for-bit.

The library's exact census (`_FastCensusRun`) is an optimisation of the
straightforward recursive enumeration kept as the oracle in
``tests/oracles/census.py``.  The fast engine's whole contract is that
it is an *optimisation*, not an approximation, so these tests assert exact
``Counter`` equality on randomized graphs across every configuration
axis: key mode, root masking, the grouping heuristic, the ``d_max`` hub
cut-off, and ``e_max`` from 1 to 5.  The fan-out tests run the same
census through ``census_many`` on a two-process pool and on two
loopback ``repro worker`` daemons, and hold both to the plain census.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusError, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.obs.telemetry import fresh_telemetry
from repro.runtime.context import RunContext
from tests.fleet import WorkerFleet
from tests.oracles import reference_census

KEY_MODES = ("canonical", "string", "hash")

#: The two sides of every parity check: the library and the oracle.
CENSUS = {"fast": subgraph_census, "reference": reference_census}


def random_hetero_graph(seed: int) -> HeteroGraph:
    """A small random labelled graph; density varies with the seed."""
    rng = random.Random(seed)
    num_labels = rng.randint(2, 4)
    labels = "ABCD"[:num_labels]
    n = rng.randint(5, 13)
    nodes = {f"n{i}": rng.choice(labels) for i in range(n)}
    p = rng.uniform(0.15, 0.45)
    edges = [
        (f"n{i}", f"n{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges = [("n0", "n1")]
    return HeteroGraph.from_edges(nodes, edges)


def censuses_match(graph: HeteroGraph, root: int, config: CensusConfig) -> bool:
    fast = subgraph_census(graph, root, config, engine="fast")
    reference = reference_census(graph, root, config)
    return fast == reference


class TestEngineParity:
    @pytest.mark.parametrize("key", KEY_MODES)
    @pytest.mark.parametrize("emax", [1, 2, 3, 4, 5])
    def test_randomized_parity(self, key, emax):
        """Random graphs, random roots, random flag combinations."""
        for seed in range(6):
            rng = random.Random(f"{seed}-{key}-{emax}")
            graph = random_hetero_graph(seed * 7919 + emax)
            config = CensusConfig(
                max_edges=emax,
                max_degree=rng.choice([None, rng.randint(2, 6)]),
                mask_start_label=rng.random() < 0.5,
                key=key,
                group_by_label=rng.random() < 0.5,
                include_trivial=rng.random() < 0.5,
            )
            roots = rng.sample(range(graph.num_nodes), min(3, graph.num_nodes))
            for root in roots:
                assert censuses_match(graph, root, config), (
                    f"engine mismatch: seed={seed} root={root} config={config}"
                )

    @pytest.mark.parametrize("key", KEY_MODES)
    @pytest.mark.parametrize("mask", [False, True])
    @pytest.mark.parametrize("group", [False, True])
    @pytest.mark.parametrize("dmax", [None, 2])
    def test_flag_grid_on_fixture(self, publication_graph, key, mask, group, dmax):
        """The full flag grid on a deterministic fixture, every root."""
        config = CensusConfig(
            max_edges=3,
            max_degree=dmax,
            mask_start_label=mask,
            key=key,
            group_by_label=group,
        )
        for root in range(publication_graph.num_nodes):
            assert censuses_match(publication_graph, root, config)

    def test_cap_raises_in_both_engines(self, dense_two_label_graph):
        config = CensusConfig(max_edges=3, max_subgraphs=2)
        for engine in ("fast", "reference"):
            with pytest.raises(CensusError, match="max_subgraphs"):
                CENSUS[engine](dense_two_label_graph, 0, config)

    def test_unknown_engine_rejected(self, triangle_graph):
        with pytest.raises(CensusError, match="engine"):
            subgraph_census(triangle_graph, 0, CensusConfig(), engine="turbo")


class TestKeyTypes:
    """Census keys must never leak numpy scalar types (they pickle ~5x
    larger than plain ints and compare non-portably across platforms)."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_hash_keys_are_plain_ints(self, publication_graph, engine):
        config = CensusConfig(max_edges=3, key="hash")
        root = np.int64(3)  # numpy scalar root, as node lists often carry
        counts = CENSUS[engine](publication_graph, root, config)
        assert counts
        for key in counts:
            assert type(key) is int

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("mask", [False, True])
    def test_canonical_entries_are_plain_ints(
        self, publication_graph, engine, mask
    ):
        config = CensusConfig(max_edges=3, mask_start_label=mask)
        counts = CENSUS[engine](publication_graph, np.int64(0), config)
        assert counts
        for code in counts:
            for row in code:
                for entry in row:
                    assert type(entry) is int

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_counts_are_plain_ints(self, publication_graph, engine):
        config = CensusConfig(max_edges=3)
        counts = CENSUS[engine](publication_graph, 0, config)
        for value in counts.values():
            assert type(value) is int


def _all_configs(max_edges: int, **extra):
    """Every key mode x masking x grouping combination at one ``e_max``."""
    for key in KEY_MODES:
        for mask in (False, True):
            for group in (False, True):
                yield CensusConfig(
                    max_edges=max_edges,
                    key=key,
                    mask_start_label=mask,
                    group_by_label=group,
                    **extra,
                )


class TestLastSlotParity:
    """The branches of the counted last edge slot, against the oracle."""

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],  # triangle
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")],  # 4-cycle
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d"), ("b", "d")],
        ],
        ids=["triangle", "four-cycle", "k4"],
    )
    def test_chord_through_new_node(self, edges):
        """A new node with an edge back to a member walks its edges."""
        nodes = {name: "XYX"[i % 3] for i, name in enumerate("abcde")}
        graph = HeteroGraph.from_edges(
            {n: nodes[n] for e in edges for n in e}, edges
        )
        for emax in (2, 3, 4, 5):
            for config in _all_configs(emax, include_trivial=emax == 3):
                for root in range(graph.num_nodes):
                    assert censuses_match(graph, root, config), (emax, root, config)

    def test_new_node_is_capped_hub(self):
        """A d_max hub joined at the last slot exposes nothing."""
        nodes = {"r": "R", "h": "H", "x": "X"}
        edges = [("r", "h"), ("r", "x")]
        for i in range(6):
            nodes[f"l{i}"] = "AB"[i % 2]
            edges.append(("h", f"l{i}"))
        edges.append(("x", "l0"))
        graph = HeteroGraph.from_edges(nodes, edges)
        root = graph.index("r")
        for emax in (2, 3, 4):
            for dmax in (None, 2, 5):
                for config in _all_configs(emax, max_degree=dmax):
                    assert censuses_match(graph, root, config), (emax, config)

    def test_single_edge_census(self, publication_graph):
        """``max_edges == 1`` counts the root's own edges by neighbour label."""
        graph = publication_graph
        for config in _all_configs(1, include_trivial=True, max_degree=1):
            for root in range(graph.num_nodes):
                assert censuses_match(graph, root, config)
        for root in range(graph.num_nodes):
            counts = subgraph_census(graph, root, CensusConfig(max_edges=1))
            assert sum(counts.values()) == graph.degree(root)
            assert len(counts) == len({graph.label_of(v) for v in graph.neighbors(root)})

    def test_cap_overflow_inside_counted_group(self):
        """A cap crossed inside one counted group raises as the walk did."""
        nodes = {"r": "R", "w": "W"}
        edges = [("r", "w")]
        for i in range(8):
            nodes[f"l{i}"] = "L"
            edges.append(("w", f"l{i}"))
        graph = HeteroGraph.from_edges(nodes, edges)
        root = graph.index("r")
        total = sum(subgraph_census(graph, root, CensusConfig(max_edges=2)).values())
        assert total == 9
        for cap in range(1, total + 2):
            config = CensusConfig(max_edges=2, max_subgraphs=cap)
            errors = []
            for census in CENSUS.values():
                try:
                    census(graph, root, config)
                    errors.append(None)
                except CensusError as error:
                    errors.append(str(error))
            assert errors[0] == errors[1], cap
            assert (errors[0] is None) == (cap >= total), cap


# ---------------------------------------------------------------------------
# fan-out: a process pool and remote workers, against the plain census
# ---------------------------------------------------------------------------


def _fanout_contexts():
    """``census_many`` contexts: a 2-process pool, then 2 remote workers."""
    yield RunContext(n_jobs=2)
    with WorkerFleet(2) as fleet:
        yield RunContext(workers=fleet.specs)


def test_parity_with_multiprocess_fanout():
    graph = random_hetero_graph(42)
    config = CensusConfig(max_edges=3, max_degree=4, mask_start_label=True)
    roots = list(range(graph.num_nodes))[::-1] + [0, 0]
    expected = [subgraph_census(graph, root, config) for root in roots]
    for ctx in _fanout_contexts():
        with fresh_telemetry():
            got = SubgraphFeatureExtractor(config, ctx=ctx).census_many(graph, roots)
        assert got == expected, ctx


def test_multiprocess_fanout_keeps_census_counters():
    """Counters the census records in pool processes or on remote
    workers reach the parent, equal to those of an in-process census."""
    graph = random_hetero_graph(42)
    config = CensusConfig(max_edges=3)
    roots = list(range(graph.num_nodes))
    with fresh_telemetry() as serial:
        SubgraphFeatureExtractor(config).census_many(graph, roots)
    for ctx in _fanout_contexts():
        with fresh_telemetry() as fanned:
            SubgraphFeatureExtractor(config, ctx=ctx).census_many(graph, roots)
        for name in ("census/calls", "census/subgraphs", "census/codes_built"):
            assert fanned.counters[name] == serial.counters[name] > 0, (ctx, name)
        assert (
            fanned.timers["census/root"].count
            == serial.timers["census/root"].count
        ), ctx


def test_duplicate_roots_are_independent_counters():
    graph = random_hetero_graph(7)
    config = CensusConfig(max_edges=2)
    roots = list(range(graph.num_nodes)) + [0]
    for ctx in _fanout_contexts():
        with fresh_telemetry():
            results = SubgraphFeatureExtractor(config, ctx=ctx).census_many(
                graph, roots
            )
        assert results[0] == results[-1]
        results[0]["poison"] = 99
        assert "poison" not in results[-1], ctx



def _key_order(census) -> list:
    return list(census.items())


class TestSharedExtensionKeys:
    """An extractor shares one extension-key table across its roots; each
    root's census must still equal a per-call census, key order included
    (feature columns are assigned in that order)."""

    @pytest.mark.parametrize("key", ("canonical", "string"))
    @pytest.mark.parametrize("mask", (False, True))
    def test_shared_table_matches_per_call_tables(self, key, mask):
        for seed in range(4):
            graph = random_hetero_graph(seed * 7919 + 5)
            roots = list(range(graph.num_nodes))
            random.Random(seed).shuffle(roots)
            for emax in (1, 2, 3, 4):
                for dmax in (None, 2):
                    config = CensusConfig(
                        max_edges=emax, max_degree=dmax, mask_start_label=mask, key=key
                    )
                    shared: dict = {}
                    for root in roots:
                        got = subgraph_census(graph, root, config, extension_keys=shared)
                        want = subgraph_census(graph, root, config)
                        assert _key_order(got) == _key_order(want), (seed, emax, dmax, root)
                    extractor = SubgraphFeatureExtractor(config)
                    for got, root in zip(extractor.census_many(graph, roots), roots):
                        want = subgraph_census(graph, root, config)
                        assert _key_order(got) == _key_order(want)

    def test_one_extractor_on_two_alphabets(self):
        first = random_hetero_graph(11)
        nodes = {f"m{i}": "XYZ"[i % 3] for i in range(9)}
        second = HeteroGraph.from_edges(
            nodes,
            [(f"m{i}", f"m{i + 1}") for i in range(8)]
            + [(f"m{i}", f"m{i + 3}") for i in range(0, 6, 2)],
        )
        for key in ("canonical", "string"):
            extractor = SubgraphFeatureExtractor(CensusConfig(max_edges=3, key=key))
            for graph in (first, second, first):
                roots = list(range(graph.num_nodes))[::-1]
                for got, root in zip(extractor.census_many(graph, roots), roots):
                    want = subgraph_census(graph, root, extractor.config)
                    assert _key_order(got) == _key_order(want)
            assert len(extractor._extension_keys) == 2  # one table per alphabet

    def test_cap_overflow_clears_the_table(self, monkeypatch):
        import repro.core.census as census_module

        monkeypatch.setattr(census_module, "EXTENSION_KEYS_CAP", 2)
        graph = random_hetero_graph(3)
        config = CensusConfig(max_edges=4)
        shared: dict = {}
        for root in range(graph.num_nodes):
            got = subgraph_census(graph, root, config, extension_keys=shared)
            want = subgraph_census(graph, root, config)
            assert _key_order(got) == _key_order(want)
            assert all(len(table) <= 2 for table in shared.values())

    def test_threads_sharing_one_table(self, monkeypatch):
        """Serve reads census cold roots on concurrent threads through one
        extractor: a shared table (cleared often here) and the snapshot's
        label-degree memo must never change a result."""
        import sys
        import threading

        import repro.core.census as census_module

        monkeypatch.setattr(census_module, "EXTENSION_KEYS_CAP", 3)
        graph = random_hetero_graph(27)
        config = CensusConfig(max_edges=4, key="string")
        want = {root: _key_order(subgraph_census(graph, root, config))
                for root in range(graph.num_nodes)}
        fresh = HeteroGraph.from_edges(
            {node: graph.labelset.name(graph.label_of(i)) for i, node in enumerate(graph.node_ids)},
            [(graph.node_ids[u], graph.node_ids[v]) for u, v in graph.edges()],
        )
        shared: dict = {}
        errors: list = []

        def work(seed: int) -> None:
            roots = list(range(graph.num_nodes)) * 3
            random.Random(seed).shuffle(roots)
            for root in roots:
                got = subgraph_census(fresh, root, config, extension_keys=shared)
                if _key_order(got) != want[root]:
                    errors.append(root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
