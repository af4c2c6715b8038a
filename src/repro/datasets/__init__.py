"""Synthetic stand-ins for the paper's three evaluation networks.

The real data (Microsoft Academic Graph, the LOAD Wikipedia network, IMDB
lists) is proprietary or unavailable offline; these generators produce
networks with the same label schemas (Figure 2), skewed degrees, and — for
MAG — a planted relevance ground truth computed from the KDD-Cup
directives.  See DESIGN.md for the substitution rationale.
"""

from repro.datasets.imdb import ImdbConfig, SyntheticIMDB
from repro.datasets.load import LoadConfig, SyntheticLOAD, sample_nodes_per_label
from repro.datasets.mag import (
    CONFERENCES,
    MagConfig,
    Paper,
    SyntheticMAG,
    stopwords,
)
from repro.datasets.schema import (
    IMDB_SCHEMA,
    LOAD_SCHEMA,
    MAG_LABEL_SCHEMA,
    MAG_RANK_SCHEMA,
    NetworkSchema,
)
from repro.datasets.synthetic import (
    affinity_graph,
    path,
    powerlaw_weights,
    star,
)

__all__ = [
    "CONFERENCES",
    "IMDB_SCHEMA",
    "ImdbConfig",
    "LOAD_SCHEMA",
    "LoadConfig",
    "MAG_LABEL_SCHEMA",
    "MAG_RANK_SCHEMA",
    "MagConfig",
    "NetworkSchema",
    "Paper",
    "SyntheticIMDB",
    "SyntheticLOAD",
    "SyntheticMAG",
    "affinity_graph",
    "path",
    "powerlaw_weights",
    "sample_nodes_per_label",
    "star",
    "stopwords",
]
