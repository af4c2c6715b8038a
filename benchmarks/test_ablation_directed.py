"""Ablation: directed subgraph features (the paper's future work).

Section 5 suspects that "for denser directed networks, directed subgraph
features may turn out to be more performant than the undirected variety".
This bench plants a purely directional signal — source / relay / sink roles
that share one node label and differ only in edge orientation — and shows
that directed (edge-typed) censuses recover the roles while undirected
censuses cannot see them at all.
"""

import numpy as np

from repro.core import CensusConfig, subgraph_census
from repro.core.features import FeatureSpace
from repro.extensions import EdgeTypedGraph, typed_subgraph_census
from repro.ml import RandomForestClassifier, macro_f1, train_test_split


def _directional_world(num_per_role=60, seed=0):
    """Nodes of one label; roles differ only in edge direction mix."""
    rng = np.random.default_rng(seed)
    roles = (
        ["source"] * num_per_role + ["relay"] * num_per_role + ["sink"] * num_per_role
    )
    n = len(roles)
    node_labels = {f"v{i}": "N" for i in range(n)}
    edges = set()

    def want_out(role):
        return {"source": 0.9, "relay": 0.5, "sink": 0.1}[role]

    attempts = 0
    while len(edges) < 4 * n and attempts < 40 * n:
        attempts += 1
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        # orient by the two roles' out-preferences
        p = want_out(roles[i]) * (1 - want_out(roles[j]))
        q = want_out(roles[j]) * (1 - want_out(roles[i]))
        if p + q == 0:
            continue
        if rng.random() < p / (p + q):
            edge = (f"v{i}", f"v{j}")
        else:
            edge = (f"v{j}", f"v{i}")
        if edge not in edges and (edge[1], edge[0]) not in edges:
            edges.add(edge)
    return node_labels, sorted(edges), np.array(roles)


def _score(X, y, seed=0):
    X_train, X_test, y_train, y_test = train_test_split(
        np.log1p(X), y, test_size=0.3, rng=seed, stratify=y
    )
    model = RandomForestClassifier(n_estimators=40, random_state=seed)
    model.fit(X_train, y_train)
    return macro_f1(y_test, model.predict(X_test))


def test_ablation_directed_features(benchmark):
    node_labels, directed_edges, roles = _directional_world()

    def run():
        # Directed (edge-typed) features.
        digraph = EdgeTypedGraph.from_directed(node_labels, directed_edges)
        nodes = list(range(digraph.num_nodes))
        typed = [typed_subgraph_census(digraph, v, max_edges=3) for v in nodes]
        X_directed = FeatureSpace().fit(typed).to_matrix(typed)

        # Undirected features: the typed graph is its own shadow.
        config = CensusConfig(max_edges=3)
        censuses = [subgraph_census(digraph, v, config) for v in nodes]
        X_undirected = FeatureSpace().fit(censuses).to_matrix(censuses)
        return X_directed, X_undirected

    X_directed, X_undirected = benchmark.pedantic(run, rounds=1, iterations=1)

    directed_f1 = _score(X_directed, roles)
    undirected_f1 = _score(X_undirected, roles)

    print()
    print("Ablation -- directed subgraph features (planted orientation roles)")
    print(f"  directed features:   {X_directed.shape[1]:>5} columns, macro-F1 {directed_f1:.3f}")
    print(f"  undirected features: {X_undirected.shape[1]:>5} columns, macro-F1 {undirected_f1:.3f}")

    # The signal is purely directional: directed features must dominate.
    assert directed_f1 > undirected_f1 + 0.15
    assert directed_f1 > 0.45
