"""Classic engineered features for the rank-prediction task (Section 4.2.2).

The paper pits subgraph features against "classic" features engineered with
domain knowledge: eight publication-history features plus 32 linguistically
motivated title features.  This module computes both families from a
:class:`~repro.datasets.mag.SyntheticMAG` world for a given
``(institution, conference, year)`` — always using only information from
*before* the target year, the temporal discipline the task needs.

Feature inventory (names in :data:`CLASSIC_FEATURE_NAMES`):

* (i)/(ii) previous-year relevance, absolute and normalised by accepted
  full papers, plus two further lags for the longer history the paper uses;
* (iii)/(iv) cumulative full-paper and all-paper counts;
* (v) the authorship score: per-author average papers per year, summed over
  the institution's authors;
* (vi)/(vii) distinct full-paper and short-paper author counts;
* (viii) last-author occurrences.

The 32 linguistic features mirror Section 4.2.2: 4 simple aggregates,
8 word-class features (6 class fractions + word-count distribution
aggregates), and the usage of the conference's overall top-20 title words.
POS classes come from the generator's word lexicon, standing in for a
dictionary POS tagger.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from repro.datasets.mag import (
    SyntheticMAG,
    _ADJECTIVES,
    _ADVERBS,
    _COMMON_NOUNS,
    _NUMBERS,
    _TOPIC_NOUNS,
    _VERBS,
    stopwords,
)

CLASSIC_FEATURE_NAMES = (
    "relevance_lag1",
    "relevance_lag1_normalized",
    "relevance_lag2",
    "relevance_lag3",
    "full_papers_past",
    "all_papers_past",
    "authorship_score",
    "full_paper_authors",
    "short_paper_authors",
    "last_author_count",
)

_WORD_CLASSES = ("noun", "verb", "adjective", "adverb", "number", "punctuation")


def _build_pos_lexicon() -> dict[str, str]:
    lexicon: dict[str, str] = {}
    for words in _TOPIC_NOUNS.values():
        for word in words:
            lexicon[word] = "noun"
    for word in _COMMON_NOUNS:
        lexicon[word] = "noun"
    for word in _VERBS:
        lexicon[word] = "verb"
    for word in _ADJECTIVES:
        lexicon[word] = "adjective"
    for word in _ADVERBS:
        lexicon[word] = "adverb"
    for word in _NUMBERS:
        lexicon[word] = "number"
    return lexicon


_POS_LEXICON = _build_pos_lexicon()
_TOKEN_PATTERN = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize_title(title: str) -> list[str]:
    """Lowercase tokens; punctuation marks survive as single-char tokens."""
    return _TOKEN_PATTERN.findall(title.lower())


def stem(word: str) -> str:
    """Tiny suffix stemmer sufficient for the synthetic vocabulary."""
    for suffix in ("ing", "s"):
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            return word[: -len(suffix)]
    return word


def pos_class(token: str) -> str:
    """Word class of a token via the lexicon (punctuation by shape)."""
    if token in _POS_LEXICON:
        return _POS_LEXICON[token]
    if token.isdigit():
        return "number"
    if not token.isalnum():
        return "punctuation"
    return "noun"  # open-class default, like a naive tagger backoff


def top_title_words(mag: SyntheticMAG, conference: str, years, top: int = 20) -> list[str]:
    """The conference's overall top-``top`` stemmed, stopword-free title words."""
    counts: Counter = Counter()
    stop = stopwords()
    for year in years:
        for paper_id in mag.papers_by_conf_year.get((conference, year), ()):
            for token in tokenize_title(mag.papers[paper_id].title):
                if token in stop or not token.isalnum():
                    continue
                counts[stem(token)] += 1
    return [word for word, _ in counts.most_common(top)]


class ClassicFeatureExtractor:
    """Computes the classic + linguistic feature matrix for institutions.

    Parameters
    ----------
    mag:
        The synthetic publication world.
    history_years:
        Years available as history (top-20 word lists are computed on these).
    """

    def __init__(self, mag: SyntheticMAG, history_years) -> None:
        self.mag = mag
        self.history_years = tuple(history_years)
        self._conferences: dict[str, tuple] = {}
        self._titles: dict[str, tuple] = {}
        self._relevance_cache: dict[tuple[str, int], dict[str, float]] = {}

    @property
    def feature_names(self) -> tuple[str, ...]:
        linguistic = (
            "avg_institutions",
            "avg_keywords",
            "avg_title_words",
            "avg_title_chars",
            *(f"fraction_{cls}" for cls in _WORD_CLASSES),
            "avg_distinct_words",
            "type_token_ratio",
            *(f"top_word_{i}" for i in range(20)),
        )
        return CLASSIC_FEATURE_NAMES + linguistic

    # ------------------------------------------------------------------
    def _relevance(self, conference: str, year: int) -> dict[str, float]:
        key = (conference, year)
        if key not in self._relevance_cache:
            self._relevance_cache[key] = self.mag.relevance(conference, year)
        return self._relevance_cache[key]

    def _conference(self, conference: str) -> tuple:
        """``(top words, institution -> [(paper, involved authors)])``.

        Built on first use.  Each institution's papers are the history
        papers any of its authors wrote, in history order.
        """
        if conference not in self._conferences:
            by_institution: dict[str, list] = {}
            for past_year in self.history_years:
                for paper_id in self.mag.papers_by_conf_year.get((conference, past_year), ()):
                    paper = self.mag.papers[paper_id]
                    affiliations = [self.mag.author_affiliations[a] for a in paper.authors]
                    for institution in {i for affils in affiliations for i in affils}:
                        involved = [
                            a for a, affils in zip(paper.authors, affiliations)
                            if institution in affils
                        ]
                        by_institution.setdefault(institution, []).append((paper, involved))
            self._conferences[conference] = (
                top_title_words(self.mag, conference, self.history_years),
                by_institution,
            )
        return self._conferences[conference]

    def _title(self, paper) -> tuple:
        """``(stems, word-class counts, token count)`` of a title, analysed once."""
        if paper.paper_id not in self._titles:
            stop = stopwords()
            tokens = tokenize_title(paper.title)
            stems = [stem(t) for t in tokens if t not in stop and t.isalnum()]
            self._titles[paper.paper_id] = (
                stems, Counter(pos_class(t) for t in tokens), len(tokens)
            )
        return self._titles[paper.paper_id]

    def features_for(self, institution: str, conference: str, year: int) -> np.ndarray:
        """Feature vector for one ``(institution, conference, year)`` sample."""
        classic = self._classic_block(institution, conference, year)
        linguistic = self._linguistic_block(institution, conference, year)
        return np.concatenate([classic, linguistic])

    def matrix(self, institutions, conference: str, year: int) -> np.ndarray:
        """Stacked feature matrix for many institutions of one sample year."""
        return np.vstack(
            [self.features_for(inst, conference, year) for inst in institutions]
        )

    # ------------------------------------------------------------------
    def _classic_block(self, institution: str, conference: str, year: int) -> np.ndarray:
        mag = self.mag
        lags = []
        for lag in (1, 2, 3):
            past = year - lag
            if past in self.history_years:
                lags.append(self._relevance(conference, past).get(institution, 0.0))
            else:
                lags.append(0.0)
        full_last = sum(
            1
            for pid in mag.papers_by_conf_year.get((conference, year - 1), ())
            if mag.papers[pid].is_full
        )
        lag1_normalized = lags[0] / full_last if full_last else 0.0

        full_papers = 0
        all_papers = 0
        full_authors: set[str] = set()
        short_authors: set[str] = set()
        last_author_count = 0
        author_years: dict[str, set[int]] = {}
        author_papers: dict[str, int] = {}
        for paper, involved in self._conference(conference)[1].get(institution, ()):
            if paper.year >= year:
                continue
            all_papers += 1
            if paper.is_full:
                full_papers += 1
                full_authors.update(involved)
            else:
                short_authors.update(involved)
            if paper.authors[-1] in involved:
                last_author_count += 1
            for author in involved:
                author_years.setdefault(author, set()).add(paper.year)
                author_papers[author] = author_papers.get(author, 0) + 1

        authorship_score = sum(
            count / len(author_years[author])
            for author, count in author_papers.items()
        )
        return np.array(
            [
                lags[0],
                lag1_normalized,
                lags[1],
                lags[2],
                float(full_papers),
                float(all_papers),
                float(authorship_score),
                float(len(full_authors)),
                float(len(short_authors)),
                float(last_author_count),
            ]
        )

    def _linguistic_block(self, institution: str, conference: str, year: int) -> np.ndarray:
        top_words, by_institution = self._conference(conference)
        papers = [
            paper
            for paper, _ in by_institution.get(institution, ())
            if paper.year == year - 1
        ]
        if not papers:
            return np.zeros(12 + len(top_words))

        institutions_per_paper = []
        keywords_per_paper = []
        words_per_title = []
        chars_per_title = []
        class_counts = Counter()
        total_tokens = 0
        distinct_per_title = []
        all_stems: Counter = Counter()
        top_usage = np.zeros(len(top_words))
        for paper in papers:
            institutions_involved = {
                inst for affils in paper.affiliations for inst in affils
            }
            institutions_per_paper.append(len(institutions_involved))
            keywords_per_paper.append(len(paper.keywords))
            stems, classes, n_tokens = self._title(paper)
            words_per_title.append(len(stems))
            chars_per_title.append(len(paper.title))
            distinct_per_title.append(len(set(stems)))
            class_counts.update(classes)
            total_tokens += n_tokens
            all_stems.update(stems)
            for i, word in enumerate(top_words):
                top_usage[i] += stems.count(word)

        fractions = [
            class_counts.get(cls, 0) / total_tokens if total_tokens else 0.0
            for cls in _WORD_CLASSES
        ]
        total_stems = sum(all_stems.values())
        type_token = len(all_stems) / total_stems if total_stems else 0.0
        simple = [
            float(np.mean(institutions_per_paper)),
            float(np.mean(keywords_per_paper)),
            float(np.mean(words_per_title)),
            float(np.mean(chars_per_title)),
        ]
        aggregates = [float(np.mean(distinct_per_title)), float(type_token)]
        return np.concatenate(
            [simple, fractions, aggregates, top_usage / len(papers)]
        )
