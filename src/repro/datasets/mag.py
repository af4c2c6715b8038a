"""Synthetic Microsoft-Academic-Graph stand-in (Section 4.1 / 4.2).

The paper's rank-prediction task uses a proprietary MAG subset: 741
institutions whose authors published at KDD, ICML, FSE, MM, and MobiCom in
2007–2015, with a KDD-Cup-2016-style relevance ground truth.  This module
generates a publication world with the same moving parts:

* institutions with per-conference latent strength following an AR(1)
  process over years — so history *is* predictive, as the task requires;
* authors affiliated with institutions (rarely two, as the paper notes);
* per conference and year: papers with 1–4 authors sampled by institution
  strength, full/short status, topic-flavoured titles, and citations to
  earlier papers;
* the exact three KDD-Cup relevance directives: every accepted full paper
  has one vote, split equally over its authors, split equally over each
  author's affiliations.

Two graph views feed the experiments: :meth:`SyntheticMAG.build_rank_graph`
(labels I/A/P for one conference-year, with referenced papers up to a given
citation depth) and :meth:`SyntheticMAG.build_label_graph` (the six-label
network of Figure 2 right, for label prediction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.graph import HeteroGraph
from repro.datasets.schema import MAG_LABEL_SCHEMA, MAG_RANK_SCHEMA
from repro.datasets.synthetic import choice_cdf, uniform_sample, weighted_pick, weighted_sample

CONFERENCES = ("KDD", "FSE", "ICML", "MM", "MOBICOM")

# Vocabulary for synthetic titles, grouped by word class so the linguistic
# features of Section 4.2.2 have real material to count.
_TOPIC_NOUNS = {
    "KDD": ["mining", "patterns", "clusters", "features", "graphs", "streams"],
    "FSE": ["software", "testing", "bugs", "refactoring", "builds", "apis"],
    "ICML": ["learning", "models", "kernels", "gradients", "bandits", "networks"],
    "MM": ["video", "images", "audio", "retrieval", "multimedia", "scenes"],
    "MOBICOM": ["wireless", "mobility", "spectrum", "sensing", "protocols", "radios"],
}
_COMMON_NOUNS = ["data", "systems", "analysis", "approach", "framework", "evaluation"]
_VERBS = ["predicting", "improving", "scaling", "detecting", "modeling", "ranking"]
_ADJECTIVES = ["efficient", "robust", "scalable", "deep", "adaptive", "fast"]
_ADVERBS = ["provably", "jointly", "rapidly"]
_NUMBERS = ["2", "10", "100"]
_STOPWORDS = {"a", "an", "the", "of", "for", "with", "in", "on", "and", "via"}
_FILLERS = ["for", "with", "of", "via", "in", "the", "a"]


@dataclass(frozen=True)
class Paper:
    """One synthetic publication record."""

    paper_id: str
    conference: str
    year: int
    authors: tuple[str, ...]
    #: Per-author affiliation tuples, aligned with ``authors``.
    affiliations: tuple[tuple[str, ...], ...]
    is_full: bool
    title: str
    keywords: tuple[str, ...]
    references: tuple[str, ...]


@dataclass
class MagConfig:
    """Size and dynamics knobs of the generator.

    Defaults target laptop-scale experiments: tens of institutions, a few
    hundred authors, a few thousand papers across all conference-years.
    """

    num_institutions: int = 60
    authors_per_institution: int = 8
    papers_per_conference_year: int = 70
    years: tuple[int, ...] = tuple(range(2007, 2016))
    conferences: tuple[str, ...] = CONFERENCES
    full_paper_rate: float = 0.7
    multi_affiliation_rate: float = 0.02
    strength_persistence: float = 0.85
    strength_noise: float = 0.35
    references_per_paper: float = 3.0
    seed: int = 7


class SyntheticMAG:
    """A synthetic publication world with a planted relevance signal."""

    def __init__(self, config: MagConfig | None = None) -> None:
        self.config = config if config is not None else MagConfig()
        rng = np.random.default_rng(self.config.seed)
        self._rng = rng
        self.institutions = [f"I{i}" for i in range(self.config.num_institutions)]
        self._build_authors(rng)
        self._build_strengths(rng)
        self._build_papers(rng)

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def _build_authors(self, rng: np.random.Generator) -> None:
        self.authors: list[str] = []
        self.author_affiliations: dict[str, tuple[str, ...]] = {}
        self.institution_authors: dict[str, list[str]] = {i: [] for i in self.institutions}
        counter = 0
        for institution in self.institutions:
            for _ in range(self.config.authors_per_institution):
                author = f"A{counter}"
                counter += 1
                affiliations = [institution]
                if rng.random() < self.config.multi_affiliation_rate:
                    other = self.institutions[rng.integers(len(self.institutions))]
                    if other != institution:
                        affiliations.append(other)
                self.authors.append(author)
                self.author_affiliations[author] = tuple(affiliations)
                for a in affiliations:
                    self.institution_authors[a].append(author)
        # Author seniority: seniors are likelier to hold the last-author slot
        # and to publish repeatedly, feeding the paper's classic features.
        self.author_seniority = {
            author: float(rng.gamma(2.0, 1.0)) for author in self.authors
        }

    def _build_strengths(self, rng: np.random.Generator) -> None:
        """AR(1) institution strength per conference and year."""
        cfg = self.config
        self.strength: dict[tuple[str, str, int], float] = {}
        for conference in cfg.conferences:
            level = rng.lognormal(mean=0.0, sigma=1.0, size=len(self.institutions))
            for year in cfg.years:
                noise = rng.normal(0.0, cfg.strength_noise, size=len(self.institutions))
                level = cfg.strength_persistence * level + noise
                level = np.maximum(level, 0.01)
                for institution, value in zip(self.institutions, level):
                    self.strength[(institution, conference, year)] = float(value)

    def _sample_title(self, conference: str, rng: np.random.Generator) -> tuple[str, tuple[str, ...]]:
        def pick(words: list[str]) -> str:  # rng.choice(words), same stream
            return words[rng.integers(len(words))]

        pools = (_ADJECTIVES, _TOPIC_NOUNS[conference], _FILLERS, _VERBS, _COMMON_NOUNS)
        words = [pick(pool) for pool in pools]
        if rng.random() < 0.3:
            words.insert(0, pick(_NUMBERS))
        if rng.random() < 0.4:
            words.append(pick(_ADVERBS))
        title = " ".join(words)
        # Keywords carry a variant suffix so the field-of-study space is
        # wide (real MAG has tens of thousands of fields); without it the
        # handful of topic nouns would collapse into a few mega-hub F nodes.
        pool = _TOPIC_NOUNS[conference] + _COMMON_NOUNS
        keywords = tuple(
            f"{pool[i]}-{rng.integers(0, 5)}"
            for i in uniform_sample(rng, len(pool), int(rng.integers(2, 5)))
        )
        return title, keywords

    def _build_papers(self, rng: np.random.Generator) -> None:
        """Papers per conference-year; ``Generator.choice`` draws are
        replayed over CDFs built once each (same stream, same world)."""
        cfg = self.config
        self.papers: dict[str, Paper] = {}
        self.papers_by_conf_year: dict[tuple[str, int], list[str]] = {}
        # Team members per (institution, last slot); the last slot prefers
        # senior authors (the paper's feature viii).
        member_cdfs = {}
        for institution, candidates in self.institution_authors.items():
            weights = np.array([self.author_seniority[a] for a in candidates])
            for last, slot in ((False, weights), (True, weights**2)):
                member_cdfs[institution, last] = choice_cdf(slot / slot.sum())
        paper_counter = 0
        for conference in cfg.conferences:
            earlier: list[str] = []
            for year in cfg.years:
                strengths = np.array(
                    [self.strength[(i, conference, year)] for i in self.institutions]
                )
                institution_cdf = choice_cdf(strengths / strengths.sum())
                # Preferential attachment to recent papers: linear recency weights.
                weights = np.arange(1, len(earlier) + 1, dtype=np.float64)
                weights = weights / weights.sum()
                recency = (weights, choice_cdf(weights) if earlier else [])
                bucket: list[str] = []
                for _ in range(cfg.papers_per_conference_year):
                    paper_id = f"P{paper_counter}"
                    paper_counter += 1
                    lead = self.institutions[weighted_pick(rng, institution_cdf)]
                    num_authors = int(rng.integers(1, 5))
                    authors = self._sample_author_team(
                        lead, num_authors, institution_cdf, member_cdfs, rng
                    )
                    affiliations = tuple(self.author_affiliations[a] for a in authors)
                    title, keywords = self._sample_title(conference, rng)
                    references = self._sample_references(earlier, recency, rng)
                    paper = Paper(
                        paper_id=paper_id,
                        conference=conference,
                        year=year,
                        authors=tuple(authors),
                        affiliations=affiliations,
                        is_full=bool(rng.random() < cfg.full_paper_rate),
                        title=title,
                        keywords=keywords,
                        references=references,
                    )
                    self.papers[paper_id] = paper
                    bucket.append(paper_id)
                self.papers_by_conf_year[(conference, year)] = bucket
                earlier.extend(bucket)

    def _sample_author_team(
        self,
        lead_institution: str,
        num_authors: int,
        institution_cdf: list[float],
        member_cdfs: dict[tuple[str, bool], list[float]],
        rng: np.random.Generator,
    ) -> list[str]:
        """Author team: mostly the lead institution, sometimes collaborators.

        Cross-institution collaboration correlates with strength because
        collaborators are drawn from the same strength distribution — that
        is the structural signal Figure 4 later surfaces as discriminative.
        """
        team: list[str] = []
        for position in range(num_authors):
            if position == 0 or rng.random() < 0.7:
                institution = lead_institution
            else:
                institution = self.institutions[weighted_pick(rng, institution_cdf)]
            cdf = member_cdfs[institution, position == num_authors - 1]
            choice = self.institution_authors[institution][weighted_pick(rng, cdf)]
            if choice not in team:
                team.append(choice)
        return team

    def _sample_references(
        self, earlier: list[str], recency: tuple[np.ndarray, list[float]], rng: np.random.Generator
    ) -> tuple[str, ...]:
        if not earlier:
            return ()
        count = min(int(rng.poisson(self.config.references_per_paper)), len(earlier))
        if count == 0:
            return ()
        picks = weighted_sample(rng, *recency, count)
        return tuple(earlier[i] for i in sorted(picks))

    # ------------------------------------------------------------------
    # Ground truth (the three KDD-Cup directives)
    # ------------------------------------------------------------------
    def relevance(self, conference: str, year: int) -> dict[str, float]:
        """Institution relevance for one conference-year.

        Directive (i): each accepted *full* paper has an equal vote.
        Directive (ii): each author contributes equally to its paper.
        Directive (iii): multi-affiliation authors split their contribution.
        """
        scores = {institution: 0.0 for institution in self.institutions}
        for paper_id in self._papers_for(conference, year):
            paper = self.papers[paper_id]
            if not paper.is_full:
                continue
            author_share = 1.0 / len(paper.authors)
            for affiliations in paper.affiliations:
                affiliation_share = author_share / len(affiliations)
                for institution in affiliations:
                    scores[institution] += affiliation_share
        return scores

    def _papers_for(self, conference: str, year: int) -> list[str]:
        try:
            return self.papers_by_conf_year[(conference, year)]
        except KeyError:
            raise KeyError(
                f"no papers generated for ({conference!r}, {year}); "
                f"conferences={self.config.conferences}, years={self.config.years}"
            ) from None

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def build_rank_graph(
        self, conference: str, year: int, reference_depth: int = 2
    ) -> HeteroGraph:
        """The I/A/P network of one conference-year (Section 4.2.2).

        Contains every institution (so feature rows exist even for
        institutions without papers that year), the authors and papers of
        the conference-year, and referenced papers up to
        ``reference_depth`` citation hops.
        """
        node_labels, edges = self._rank_network(conference, year, reference_depth)
        return HeteroGraph.from_edges(
            node_labels, edges, labelset=MAG_RANK_SCHEMA.labelset
        )

    def build_rank_digraph(
        self, conference: str, year: int, reference_depth: int = 2
    ):
        """Edge-typed variant of :meth:`build_rank_graph` with directed
        citations (Section 5's future-work discussion).

        Citation edges point from the citing to the cited paper (role
        ``out`` at the source, ``in`` at the target); affiliation and
        authorship edges carry the symmetric role ``und`` at both ends.
        The MAG is the paper's only network with meaningful directions, and
        the paper reports *no significant difference* between directed and
        undirected features on it — the ablation bench reproduces that.
        """
        from repro.core.labels import LabelSet
        from repro.extensions.edge_typed import EdgeTypedGraph

        node_labels, edges = self._rank_network(conference, year, reference_depth)
        return EdgeTypedGraph.from_roles(
            node_labels,
            (pair + roles for pair, roles in edges.items()),
            labelset=MAG_RANK_SCHEMA.labelset,
            roleset=LabelSet(("out", "in", "und")),
        )

    def _rank_network(
        self, conference: str, year: int, reference_depth: int
    ) -> tuple[dict[str, str], dict[tuple[str, str], tuple[str, str]]]:
        """Node labels and edges of the rank network, each edge mapped to
        its roles: ``("out", "in")`` from citing to cited paper,
        ``("und", "und")`` otherwise."""
        paper_ids = set(self._papers_for(conference, year))
        frontier = set(paper_ids)
        for _ in range(reference_depth):
            next_frontier = set()
            for paper_id in frontier:
                for ref in self.papers[paper_id].references:
                    if ref not in paper_ids:
                        next_frontier.add(ref)
            paper_ids |= next_frontier
            frontier = next_frontier

        node_labels: dict[str, str] = {i: "I" for i in self.institutions}
        edges: dict[tuple[str, str], tuple[str, str]] = {}
        # Sorted iteration keeps node index assignment deterministic across
        # processes (set order is hash-randomised); embeddings align their
        # random streams to node indices, so this matters for replay.
        for paper_id in sorted(paper_ids):
            paper = self.papers[paper_id]
            node_labels[paper_id] = "P"
            for author in paper.authors:
                node_labels[author] = "A"
                edges[(author, paper_id)] = ("und", "und")
                for institution in self.author_affiliations[author]:
                    edges[(institution, author)] = ("und", "und")
            for ref in paper.references:
                if ref in paper_ids:
                    edges[(paper_id, ref)] = ("out", "in")
        return node_labels, edges

    def build_label_graph(
        self,
        conferences: Iterable[str] | None = None,
        years: Iterable[int] | None = None,
        journal_rate: float = 0.3,
        num_journals: int = 8,
    ) -> HeteroGraph:
        """The six-label MAG view of Figure 2 (right) for label prediction.

        Papers connect to their venue — a per-year conference ``C`` node
        (real MAG venues are conference *instances*), or for a
        ``journal_rate`` fraction of referenced papers one of
        ``num_journals`` journal ``J`` nodes — to one field-of-study ``F``
        node per keyword, to their authors ``A``, and authors to their
        institutions ``I``.  Spreading venues over years and fields over
        keywords keeps every label class populated by many moderate-degree
        nodes, as in the real MAG, instead of a couple of mega-hubs.
        """
        cfg = self.config
        conferences = tuple(conferences) if conferences is not None else cfg.conferences[:2]
        years = tuple(years) if years is not None else cfg.years[-5:]
        rng = np.random.default_rng(cfg.seed + 1)

        paper_ids: set[str] = set()
        for conference in conferences:
            for year in years:
                paper_ids |= set(self._papers_for(conference, year))
        referenced = set()
        for paper_id in paper_ids:
            referenced.update(self.papers[paper_id].references)
        all_papers = paper_ids | referenced

        journal_names = [f"J:journal-{i}" for i in range(num_journals)]

        node_labels: dict[str, str] = {}
        edges: set[tuple[str, str]] = set()
        for paper_id in sorted(all_papers):
            paper = self.papers[paper_id]
            node_labels[paper_id] = "P"
            # Venue: core papers go to their conference instance (one node
            # per conference and year); referenced papers are journal-
            # published with some probability.
            if paper_id in paper_ids or rng.random() > journal_rate:
                venue = f"C:{paper.conference}:{paper.year}"
                node_labels[venue] = "C"
            else:
                venue = journal_names[int(rng.integers(num_journals))]
                node_labels[venue] = "J"
            edges.add((paper_id, venue))
            for keyword in paper.keywords:
                field_name = f"F:{keyword}"
                node_labels[field_name] = "F"
                edges.add((paper_id, field_name))
            for author in paper.authors:
                node_labels[author] = "A"
                edges.add((author, paper_id))
                for institution in self.author_affiliations[author]:
                    node_labels[institution] = "I"
                    edges.add((institution, author))
            for ref in paper.references:
                if ref in all_papers:
                    edges.add((paper_id, ref))
        return HeteroGraph.from_edges(
            node_labels, edges, labelset=MAG_LABEL_SCHEMA.labelset
        )


def stopwords() -> set[str]:
    """The stopword list used by the linguistic classic features."""
    return set(_STOPWORDS)
