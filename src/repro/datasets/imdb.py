"""Synthetic IMDB movie network (Section 4.1).

The paper's IMDB subset covers Golden-Age movies (1930–1940): each movie
``M`` connects to its actors ``A``, directors ``D``, writers ``W``,
composers ``C``, and keywords ``K`` — and to nothing else, giving the
sparse star-shaped label connectivity graph of Figure 2 with no same-label
edges.

The stand-in reproduces that relational record structure.  Satellites are
reused across movies with Zipf-like popularity, and each role has a
characteristic cast size (many actors per movie, one director, ...), so a
masked node's label remains inferable from how many movies it touches and
what else those movies touch — the only signal a star topology offers,
which is exactly why IMDB is the paper's hardest label-prediction dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import HeteroGraph
from repro.datasets.load import sample_nodes_per_label
from repro.datasets.schema import IMDB_SCHEMA
from repro.datasets.synthetic import choice_cdf, weighted_sample


@dataclass
class ImdbConfig:
    """Size knobs: roughly one satellite pool per role, shared by movies."""

    num_movies: int = 400
    num_actors: int = 600
    num_directors: int = 120
    num_writers: int = 180
    num_composers: int = 80
    num_keywords: int = 150
    actors_per_movie: tuple[int, int] = (3, 8)
    writers_per_movie: tuple[int, int] = (1, 3)
    keywords_per_movie: tuple[int, int] = (2, 5)
    composer_rate: float = 0.8
    popularity_exponent: float = 1.2
    seed: int = 23


class SyntheticIMDB:
    """Generator wrapper exposing the IMDB star network."""

    def __init__(self, config: ImdbConfig | None = None) -> None:
        self.config = config if config is not None else ImdbConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        pools = {
            "A": [f"imdb:A{i}" for i in range(cfg.num_actors)],
            "D": [f"imdb:D{i}" for i in range(cfg.num_directors)],
            "W": [f"imdb:W{i}" for i in range(cfg.num_writers)],
            "C": [f"imdb:C{i}" for i in range(cfg.num_composers)],
            "K": [f"imdb:K{i}" for i in range(cfg.num_keywords)],
        }
        popularity = {
            role: self._zipf_weights(len(members), cfg.popularity_exponent)
            for role, members in pools.items()
        }
        popularity_cdfs = {role: choice_cdf(p) for role, p in popularity.items()}

        node_labels: dict[str, str] = {}
        edges: set[tuple[str, str]] = set()
        for role, members in pools.items():
            for member in members:
                node_labels[member] = role

        for movie_index in range(cfg.num_movies):
            movie = f"imdb:M{movie_index}"
            node_labels[movie] = "M"
            cast = {
                "A": rng.integers(cfg.actors_per_movie[0], cfg.actors_per_movie[1] + 1),
                "D": 1,
                "W": rng.integers(cfg.writers_per_movie[0], cfg.writers_per_movie[1] + 1),
                "C": 1 if rng.random() < cfg.composer_rate else 0,
                "K": rng.integers(cfg.keywords_per_movie[0], cfg.keywords_per_movie[1] + 1),
            }
            for role, count in cast.items():
                if count == 0:
                    continue
                members = pools[role]
                count = min(int(count), len(members))
                picks = weighted_sample(
                    rng, popularity[role], popularity_cdfs[role], count
                )
                for pick in picks:
                    edges.add((movie, members[pick]))

        self.graph = HeteroGraph.from_edges(
            node_labels, edges, labelset=IMDB_SCHEMA.labelset
        )

    @staticmethod
    def _zipf_weights(size: int, exponent: float) -> np.ndarray:
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = ranks**-exponent
        return weights / weights.sum()

    @property
    def schema(self):
        return IMDB_SCHEMA

    def sample_nodes_per_label(self, per_label: int, rng=None):
        """Sample up to ``per_label`` non-isolated nodes of each label."""
        return sample_nodes_per_label(self.graph, per_label, rng)
