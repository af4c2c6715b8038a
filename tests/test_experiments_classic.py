"""Tests for classic engineered features (Section 4.2.2)."""

import hashlib

import numpy as np
import pytest

from repro.datasets import MagConfig, SyntheticMAG
from repro.experiments.classic_features import (
    CLASSIC_FEATURE_NAMES,
    ClassicFeatureExtractor,
    pos_class,
    stem,
    tokenize_title,
    top_title_words,
)


@pytest.fixture(scope="module")
def world():
    mag = SyntheticMAG(
        MagConfig(
            num_institutions=10,
            authors_per_institution=3,
            papers_per_conference_year=15,
            conferences=("KDD",),
            years=tuple(range(2010, 2016)),
            seed=4,
        )
    )
    extractor = ClassicFeatureExtractor(mag, history_years=range(2010, 2015))
    return mag, extractor


class TestTextHelpers:
    def test_tokenize_lowercases(self):
        assert tokenize_title("Deep Mining") == ["deep", "mining"]

    def test_tokenize_splits_punctuation(self):
        assert tokenize_title("graphs, fast") == ["graphs", ",", "fast"]

    def test_stem_strips_suffixes(self):
        assert stem("patterns") == "pattern"
        assert stem("predicting") == "predict"
        assert stem("data") == "data"

    def test_stem_keeps_short_words(self):
        assert stem("is") == "is"

    def test_pos_class_lexicon(self):
        assert pos_class("mining") == "noun"
        assert pos_class("predicting") == "verb"
        assert pos_class("efficient") == "adjective"
        assert pos_class("provably") == "adverb"
        assert pos_class("10") == "number"
        assert pos_class(",") == "punctuation"

    def test_top_title_words(self, world):
        mag, _ = world
        words = top_title_words(mag, "KDD", range(2010, 2015), top=20)
        assert 0 < len(words) <= 20
        assert all(isinstance(w, str) for w in words)


class TestFeatureVector:
    def test_shape_is_42(self, world):
        """10 classic + 32 linguistic features (4 + 8 + 20)."""
        mag, extractor = world
        vector = extractor.features_for(mag.institutions[0], "KDD", 2015)
        assert vector.shape == (len(CLASSIC_FEATURE_NAMES) + 32,)
        assert vector.shape == (len(extractor.feature_names),)

    def test_matrix_stacks_institutions(self, world):
        mag, extractor = world
        matrix = extractor.matrix(mag.institutions, "KDD", 2015)
        assert matrix.shape == (10, len(extractor.feature_names))
        assert np.all(np.isfinite(matrix))

    def test_relevance_lag_matches_ground_truth(self, world):
        mag, extractor = world
        institution = mag.institutions[0]
        vector = extractor.features_for(institution, "KDD", 2015)
        expected = mag.relevance("KDD", 2014)[institution]
        assert vector[0] == pytest.approx(expected)

    def test_no_information_from_target_year(self, world):
        """Features for year y must not change if year-y papers change;
        verify by checking only past years feed the counters."""
        mag, extractor = world
        vector_2014 = extractor.features_for(mag.institutions[0], "KDD", 2014)
        # full_papers_past at 2014 counts years 2010-2013 only
        full = 0
        for year in range(2010, 2014):
            for pid in mag.papers_by_conf_year[("KDD", year)]:
                paper = mag.papers[pid]
                if paper.is_full and any(
                    mag.institutions[0] in mag.author_affiliations[a]
                    for a in paper.authors
                ):
                    full += 1
        names = list(extractor.feature_names)
        assert vector_2014[names.index("full_papers_past")] == full

    def test_inactive_institution_zero_linguistic(self, world):
        """An institution with no previous-year papers gets a zero
        linguistic block, not NaNs."""
        mag, extractor = world
        # Find an institution with no 2014 KDD papers, if any.
        active = set()
        for pid in mag.papers_by_conf_year[("KDD", 2014)]:
            for affils in mag.papers[pid].affiliations:
                active.update(affils)
        inactive = [i for i in mag.institutions if i not in active]
        if not inactive:
            pytest.skip("all institutions active in 2014")
        vector = extractor.features_for(inactive[0], "KDD", 2015)
        linguistic = vector[len(CLASSIC_FEATURE_NAMES):]
        assert np.allclose(linguistic, 0.0)

    def test_features_are_predictive(self, world):
        """Sanity: lag-1 relevance correlates with target relevance."""
        mag, extractor = world
        matrix = extractor.matrix(mag.institutions, "KDD", 2015)
        target = np.array(
            [mag.relevance("KDD", 2015)[i] for i in mag.institutions]
        )
        lag1 = matrix[:, 0]
        assert np.corrcoef(lag1, target)[0, 1] > 0.2


#: SHA-256 of ``extractor.matrix(mag.institutions, "KDD", year).tobytes()``
#: for every year of the fixture world.  The features are float sums over
#: an institution's past papers, so any change to which papers are visited,
#: or in what order, shows here.
MATRIX_DIGESTS = {
    2010: "9b00b8930d66b11eb3cc96e31d08b2889160b0e617f1f6c229fa37c92578c23c",
    2011: "55cbf0d515c2e4bb1d1a7f0ab498a385cb84d84f4da4b840b5b88b28033b72b5",
    2012: "7225ddf7f86956490d765d7046540f7f8def3c5ab50119e6e44eef2177caa80a",
    2013: "90a361db2cc9e9f61a1416423dcc6e71983b8b3c4541adfeb4717e2a4ddd186a",
    2014: "739effba393cb4d6a78fd734e7e74650d67260a1daf19a5082ff34e8249ad7c2",
    2015: "822f05e30f56e285361fb0866a606c2565b4b7d7136ba7dd22b49238f489c84d",
}


@pytest.mark.parametrize("year", sorted(MATRIX_DIGESTS))
def test_matrix_digest(world, year):
    """The feature matrix is bit-identical to the recorded one."""
    mag, extractor = world
    matrix = extractor.matrix(mag.institutions, "KDD", year)
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == MATRIX_DIGESTS[year]
