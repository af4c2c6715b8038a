"""A rank experiment without family reuse: every family lookup rebuilds.

The library's :class:`RankPredictionExperiment` computes the classic and
subgraph blocks once per conference and stacks them for ``combined``.
This oracle recomputes every block on every request — a second census of
the same graphs for ``combined`` — and must score identically.
"""

from __future__ import annotations

from repro.experiments.rank_prediction import RankPredictionExperiment


class RebuildingRankExperiment(RankPredictionExperiment):
    def _cached_family(self, conference: str, family: str, build):
        return build(conference)
