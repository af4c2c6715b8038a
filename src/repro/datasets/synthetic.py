"""Generic synthetic heterogeneous graph generators.

These are the building blocks of the dataset stand-ins and of the test
suite: a degree-corrected label-affinity model (Chung-Lu flavoured) that
produces heavy-tailed heterogeneous networks, and small deterministic
fixtures (stars, paths, complete bipartite) used by unit tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import HeteroGraph
from repro.core.labels import LabelSet


def powerlaw_weights(
    size: int, exponent: float = 2.5, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Heavy-tailed positive weights via inverse-CDF sampling.

    ``P(w > x) ~ x^(1 - exponent)``; exponents around 2–3 match the skewed
    degree distributions the paper's heuristics target.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    rng = np.random.default_rng(rng)
    uniform = rng.random(size)
    return (1.0 - uniform) ** (-1.0 / (exponent - 1.0))


def affinity_graph(
    label_sizes: dict[str, int],
    affinity: dict[tuple[str, str], float],
    mean_degree: float = 8.0,
    degree_exponent: float = 2.5,
    rng: np.random.Generator | int | None = None,
    id_prefix: str = "n",
) -> HeteroGraph:
    """Degree-corrected heterogeneous random graph.

    Parameters
    ----------
    label_sizes:
        Number of nodes per label, e.g. ``{"L": 100, "O": 50}``.
    affinity:
        Relative edge propensity per unordered label pair; pairs absent from
        the mapping get zero (no edges).  Keys may be given in either order.
    mean_degree:
        Target average degree of the whole network.
    degree_exponent:
        Power-law exponent of the per-node propensity weights.
    rng:
        Seed or generator.
    id_prefix:
        Node ids are ``f"{id_prefix}:{label}{i}"``.

    Notes
    -----
    Edges are sampled Chung-Lu style: the expected number of edges between
    two nodes is proportional to the product of their weights times the
    affinity of their label pair, then scaled so the expected total degree
    matches ``mean_degree``.  Self loops and duplicates are discarded.
    """
    if not label_sizes:
        raise ValueError("label_sizes must not be empty")
    rng = np.random.default_rng(rng)
    labelset = LabelSet(tuple(label_sizes))

    # Flatten nodes with per-node propensity weights.
    node_labels: dict[str, str] = {}
    label_of: list[int] = []
    weights: list[float] = []
    members: dict[int, list[int]] = {i: [] for i in range(len(labelset))}
    for label, size in label_sizes.items():
        if size < 1:
            raise ValueError(f"label {label!r} must have at least one node")
        w = powerlaw_weights(size, degree_exponent, rng)
        for i in range(size):
            node_id = f"{id_prefix}:{label}{i}"
            index = len(label_of)
            node_labels[node_id] = label
            label_of.append(labelset.index(label))
            weights.append(float(w[i]))
            members[labelset.index(label)].append(index)
    ids = list(node_labels)
    weights_arr = np.asarray(weights)
    num_nodes = len(ids)

    def pair_affinity(a: str, b: str) -> float:
        return affinity.get((a, b), affinity.get((b, a), 0.0))

    # Expected edge budget per label pair, proportional to affinity and the
    # participating weight masses.
    target_edges = mean_degree * num_nodes / 2.0
    pair_masses: dict[tuple[int, int], float] = {}
    names = labelset.names
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], start=i):
            aff = pair_affinity(a, b)
            if aff <= 0:
                continue
            mass_a = weights_arr[members[i]].sum()
            mass_b = weights_arr[members[j]].sum()
            raw = aff * mass_a * mass_b
            if i == j:
                raw /= 2.0
            pair_masses[(i, j)] = raw
    total_mass = sum(pair_masses.values())
    if total_mass <= 0:
        raise ValueError("affinity admits no edges")

    edges: set[tuple[str, str]] = set()
    for (i, j), mass in pair_masses.items():
        budget = int(round(target_edges * mass / total_mass))
        if budget == 0:
            continue
        side_a = np.asarray(members[i])
        side_b = np.asarray(members[j])
        prob_a = weights_arr[side_a] / weights_arr[side_a].sum()
        prob_b = weights_arr[side_b] / weights_arr[side_b].sum()
        picks_a = rng.choice(side_a, size=budget, p=prob_a)
        picks_b = rng.choice(side_b, size=budget, p=prob_b)
        for u, v in zip(picks_a, picks_b):
            if u == v:
                continue
            edge = (ids[u], ids[v]) if u < v else (ids[v], ids[u])
            edges.add(edge)
    return HeteroGraph.from_edges(node_labels, edges, labelset=labelset)


def star(center_label: str, leaf_labels: list[str]) -> HeteroGraph:
    """Deterministic star fixture: one centre connected to each leaf."""
    node_labels = {"c": center_label}
    edges = []
    for i, label in enumerate(leaf_labels):
        node_labels[f"l{i}"] = label
        edges.append(("c", f"l{i}"))
    return HeteroGraph.from_edges(node_labels, edges)


def path(labels: list[str]) -> HeteroGraph:
    """Deterministic path fixture following the given label sequence."""
    node_labels = {f"p{i}": label for i, label in enumerate(labels)}
    edges = [(f"p{i}", f"p{i + 1}") for i in range(len(labels) - 1)]
    return HeteroGraph.from_edges(node_labels, edges)
