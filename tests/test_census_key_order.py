"""Pin the exact census's key *order*, not just its counts.

``Counter`` equality (the parity suites) is order-blind, but the order in
which a root's census first inserts each key is part of the contract:
:meth:`~repro.core.features.FeatureSpace.fit` assigns feature columns in
that order, the forests sample features by column, and so every recorded
score (``perfbench/reference.json``) depends on it.  The parity oracle
cannot stand in for this check because it inserts keys in a different
order than the fast engine.

Each case digests ``repr(list(census.items()))`` for one (graph, root,
config) and compares it with the digest recorded in
``tests/data/census_key_order.json``.  The sampled engine's cases also
digest the estimate's ``report`` and are recorded in
``tests/data/census_sampled.json``: its estimates depend on the probe
RNG stream and the branch order, so any change to its run state shows
here.  Re-record only for a deliberate change (an exact key-order change
also invalidates ``perfbench/reference.json``)::

    PYTHONPATH=src python -m tests.test_census_key_order
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.census import CensusConfig, subgraph_census
from repro.core.sampled import SampledCensusConfig, run_sampled_census
from repro.datasets import MagConfig, SyntheticMAG
from tests.conftest import publication_graph as _publication_graph
from tests.test_census_engines import KEY_MODES, random_hetero_graph

DIGESTS_PATH = Path(__file__).parent / "data" / "census_key_order.json"
SAMPLED_DIGESTS_PATH = Path(__file__).parent / "data" / "census_sampled.json"


def _graphs() -> dict:
    mag = SyntheticMAG(
        MagConfig(
            num_institutions=8,
            authors_per_institution=2,
            papers_per_conference_year=8,
            conferences=("KDD",),
            years=(2013, 2014, 2015),
            seed=3,
        )
    )
    graphs = {
        "publication": _publication_graph.__wrapped__(),
        "mag-rank": mag.build_rank_graph("KDD", 2014),
    }
    for seed in range(8):
        graphs[f"random-{seed}"] = random_hetero_graph(seed * 104729 + 17)
    return graphs


def _cases(graphs: dict):
    """Yield ``(case id, graph name, root, config)`` for every pinned case."""
    graph = graphs["publication"]
    for key in KEY_MODES:
        for mask in (False, True):
            for group in (False, True):
                for dmax in (None, 2):
                    config = CensusConfig(
                        max_edges=3,
                        max_degree=dmax,
                        mask_start_label=mask,
                        key=key,
                        group_by_label=group,
                    )
                    for root in range(graph.num_nodes):
                        yield (
                            f"publication/{key}/mask={mask}/group={group}"
                            f"/dmax={dmax}/root={root}",
                            "publication",
                            root,
                            config,
                        )
    for seed in range(8):
        name = f"random-{seed}"
        graph = graphs[name]
        for emax in (1, 2, 3, 4, 5):
            rng = random.Random(f"key-order-{seed}-{emax}")
            config = CensusConfig(
                max_edges=emax,
                max_degree=rng.choice([None, rng.randint(2, 6)]),
                mask_start_label=rng.random() < 0.5,
                key=rng.choice(KEY_MODES),
                group_by_label=rng.random() < 0.5,
                include_trivial=rng.random() < 0.5,
            )
            for root in rng.sample(range(graph.num_nodes), min(3, graph.num_nodes)):
                yield f"{name}/emax={emax}/root={root}", name, root, config
    graph = graphs["mag-rank"]
    roots = sorted(
        {graph.index(node) for node in graph.node_ids if str(node).startswith("I")}
        | set(range(0, graph.num_nodes, 7))
    )
    for emax in (2, 3, 4):
        for dmax in (None, 8):
            config = CensusConfig(max_edges=emax, max_degree=dmax)
            for root in roots:
                yield f"mag-rank/emax={emax}/dmax={dmax}/root={root}", "mag-rank", root, config


def _sampled_cases(graphs: dict):
    """Yield ``(case id, graph name, root, config, sampled config)`` for
    the sampled engine: every key mode, masked or not, with and without a
    ``d_max`` cap, spending the full budget or stopping early."""
    for name in ("publication", "random-1", "random-5", "mag-rank"):
        graph = graphs[name]
        roots = random.Random(f"sampled-{name}").sample(
            range(graph.num_nodes), min(4, graph.num_nodes)
        )
        for key in KEY_MODES:
            for mask in (False, True):
                for dmax in (None, 2):
                    config = CensusConfig(
                        max_edges=4,
                        max_degree=dmax,
                        mask_start_label=mask,
                        key=key,
                        include_trivial=mask,
                    )
                    for rel_err in (None, 0.25):
                        sampled = SampledCensusConfig(
                            budget=48, seed=11, rel_err=rel_err, min_draws=8
                        )
                        for root in roots:
                            yield (
                                f"{name}/{key}/mask={mask}/dmax={dmax}"
                                f"/rel_err={rel_err}/root={root}",
                                name,
                                root,
                                config,
                                sampled,
                            )


def digest(counts) -> str:
    return hashlib.sha256(repr(list(counts.items())).encode()).hexdigest()[:16]


def compute_digests() -> dict:
    graphs = _graphs()
    return {
        case: digest(subgraph_census(graphs[name], root, config))
        for case, name, root, config in _cases(graphs)
    }


def compute_sampled_digests() -> dict:
    graphs = _graphs()
    digests = {}
    for case, name, root, config, sampled in _sampled_cases(graphs):
        estimate = run_sampled_census(graphs[name], root, config, sampled)
        state = repr((list(estimate.items()), estimate.report))
        digests[case] = hashlib.sha256(state.encode()).hexdigest()[:16]
    return digests


def _assert_pinned(path: Path, got: dict) -> None:
    expected = json.loads(path.read_text())
    assert got.keys() == expected.keys()
    changed = [case for case in expected if got[case] != expected[case]]
    assert not changed, f"{len(changed)} pinned censuses changed, e.g. {changed[:5]}"


def test_census_key_order_is_pinned():
    _assert_pinned(DIGESTS_PATH, compute_digests())


def test_sampled_census_is_pinned():
    _assert_pinned(SAMPLED_DIGESTS_PATH, compute_sampled_digests())


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    for path, compute in (
        (DIGESTS_PATH, compute_digests),
        (SAMPLED_DIGESTS_PATH, compute_sampled_digests),
    ):
        path.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n")
        print(f"wrote {path}")
