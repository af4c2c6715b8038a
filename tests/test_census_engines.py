"""Engine parity: the fast census must match the reference bit-for-bit.

The library's exact census (`_FastCensusRun`) is an optimisation of the
straightforward recursive enumeration kept as the oracle in
``tests/oracles/census.py``.  The fast engine's whole contract is that
it is an *optimisation*, not an approximation, so these tests assert exact
``Counter`` equality on randomized graphs across every configuration
axis: key mode, root masking, the grouping heuristic, the ``d_max`` hub
cut-off, and ``e_max`` from 1 to 5.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusError, subgraph_census
from repro.core.graph import HeteroGraph
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
