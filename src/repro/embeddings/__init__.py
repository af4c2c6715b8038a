"""Neural node-embedding baselines: DeepWalk, node2vec, and LINE.

All three are implemented from scratch on numpy (random-walk corpora,
skip-gram with negative sampling, edge-sampled LINE) with the default
parameters the paper evaluates: ``d=128, r=10, l=80, k=10, p=q=1, K=5``.
"""

from repro.embeddings.alias import AliasTable
from repro.embeddings.deepwalk import DeepWalk
from repro.embeddings.line import LINE
from repro.embeddings.node2vec import Node2Vec
from repro.embeddings.skipgram import SkipGramTrainer, walks_to_pairs
from repro.embeddings.walks import (
    node2vec_walks,
    uniform_random_walks,
    walk_lengths,
    walk_node_frequencies,
)

__all__ = [
    "AliasTable",
    "DeepWalk",
    "LINE",
    "Node2Vec",
    "SkipGramTrainer",
    "node2vec_walks",
    "uniform_random_walks",
    "walk_lengths",
    "walk_node_frequencies",
    "walks_to_pairs",
]
