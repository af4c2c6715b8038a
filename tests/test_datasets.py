"""Tests for the synthetic dataset generators and their schemas."""

import hashlib

import numpy as np
import pytest

from repro.core.connectivity import label_connectivity
from repro.datasets import (
    IMDB_SCHEMA,
    LOAD_SCHEMA,
    MAG_LABEL_SCHEMA,
    MAG_RANK_SCHEMA,
    ImdbConfig,
    LoadConfig,
    MagConfig,
    SyntheticIMDB,
    SyntheticLOAD,
    SyntheticMAG,
    affinity_graph,
    path,
    powerlaw_weights,
    sample_nodes_per_label,
    star,
)
from repro.datasets.synthetic import choice_cdf, uniform_sample, weighted_pick, weighted_sample


# Small worlds shared across tests in this module.
@pytest.fixture(scope="module")
def small_mag():
    return SyntheticMAG(
        MagConfig(
            num_institutions=15,
            authors_per_institution=4,
            papers_per_conference_year=20,
            conferences=("KDD", "ICML"),
            years=tuple(range(2010, 2016)),
            seed=1,
        )
    )


@pytest.fixture(scope="module")
def small_load():
    return SyntheticLOAD(
        LoadConfig(
            num_locations=60,
            num_organizations=40,
            num_actors=70,
            num_dates=30,
            mean_degree=8,
            seed=2,
        )
    )


@pytest.fixture(scope="module")
def small_imdb():
    return SyntheticIMDB(
        ImdbConfig(
            num_movies=60,
            num_actors=90,
            num_directors=20,
            num_writers=30,
            num_composers=15,
            num_keywords=25,
            seed=3,
        )
    )


class TestSynthetic:
    def test_powerlaw_heavy_tail(self):
        weights = powerlaw_weights(5000, exponent=2.5, rng=0)
        assert weights.min() >= 1.0
        assert weights.max() / np.median(weights) > 10

    def test_powerlaw_validation(self):
        with pytest.raises(ValueError):
            powerlaw_weights(0)
        with pytest.raises(ValueError):
            powerlaw_weights(10, exponent=1.0)

    def test_affinity_graph_respects_zero_affinity(self):
        graph = affinity_graph(
            {"A": 50, "B": 50},
            {("A", "B"): 1.0},  # no A-A, no B-B
            mean_degree=6,
            rng=0,
        )
        connectivity = label_connectivity(graph)
        assert not connectivity.has_loops
        pairs = {(a, b) for a, b, _ in connectivity.label_pairs()}
        assert pairs == {("A", "B")}

    def test_affinity_graph_mean_degree_approximate(self):
        graph = affinity_graph(
            {"A": 200, "B": 200},
            {("A", "B"): 1.0, ("A", "A"): 1.0, ("B", "B"): 1.0},
            mean_degree=10,
            rng=1,
        )
        mean = 2 * graph.num_edges / graph.num_nodes
        # Duplicate discards push the realised mean below target.
        assert 5 <= mean <= 10.5

    def test_affinity_graph_empty_affinity_rejected(self):
        with pytest.raises(ValueError):
            affinity_graph({"A": 10}, {}, rng=0)

    def test_fixtures(self):
        s = star("M", ["A", "A", "K"])
        assert s.num_edges == 3
        p = path(["x", "y", "z"])
        assert p.num_edges == 2


class TestMag:
    def test_paper_counts(self, small_mag):
        assert len(small_mag.papers) == 2 * 6 * 20

    def test_relevance_directives(self, small_mag):
        """Total relevance equals the number of full papers (each paper has
        one vote, fully distributed)."""
        for conference in small_mag.config.conferences:
            relevance = small_mag.relevance(conference, 2014)
            full = sum(
                1
                for pid in small_mag.papers_by_conf_year[(conference, 2014)]
                if small_mag.papers[pid].is_full
            )
            assert sum(relevance.values()) == pytest.approx(full)

    def test_relevance_unknown_year_raises(self, small_mag):
        with pytest.raises(KeyError):
            small_mag.relevance("KDD", 1999)

    def test_relevance_nonnegative(self, small_mag):
        relevance = small_mag.relevance("ICML", 2013)
        assert all(v >= 0 for v in relevance.values())

    def test_rank_graph_schema(self, small_mag):
        graph = small_mag.build_rank_graph("KDD", 2013)
        assert MAG_RANK_SCHEMA.validate(label_connectivity(graph)) == []
        assert graph.labelset == MAG_RANK_SCHEMA.labelset

    def test_rank_graph_contains_all_institutions(self, small_mag):
        graph = small_mag.build_rank_graph("KDD", 2013)
        for institution in small_mag.institutions:
            graph.index(institution)  # does not raise

    def test_rank_graph_reference_depth_monotone(self, small_mag):
        shallow = small_mag.build_rank_graph("KDD", 2014, reference_depth=0)
        deep = small_mag.build_rank_graph("KDD", 2014, reference_depth=2)
        assert deep.num_nodes >= shallow.num_nodes
        assert deep.num_edges >= shallow.num_edges

    def test_label_graph_schema(self, small_mag):
        graph = small_mag.build_label_graph()
        assert MAG_LABEL_SCHEMA.validate(label_connectivity(graph)) == []

    def test_label_graph_has_all_six_labels(self, small_mag):
        graph = small_mag.build_label_graph()
        assert set(graph.labelset.names) == {"A", "I", "C", "J", "F", "P"}
        counts = graph.label_counts()
        assert np.all(counts > 0)

    def test_strength_is_persistent(self, small_mag):
        """Year-over-year strength correlation must be positive — that is
        what makes history predictive."""
        years = small_mag.config.years
        values = np.array(
            [
                [small_mag.strength[(i, "KDD", y)] for i in small_mag.institutions]
                for y in years
            ]
        )
        correlations = [
            np.corrcoef(values[k], values[k + 1])[0, 1] for k in range(len(years) - 1)
        ]
        assert np.mean(correlations) > 0.5

    def test_relevance_correlates_with_strength(self, small_mag):
        strengths = np.array(
            [small_mag.strength[(i, "KDD", 2014)] for i in small_mag.institutions]
        )
        relevance = small_mag.relevance("KDD", 2014)
        values = np.array([relevance[i] for i in small_mag.institutions])
        assert np.corrcoef(strengths, values)[0, 1] > 0.3

    def test_deterministic(self):
        config = MagConfig(
            num_institutions=5,
            authors_per_institution=2,
            papers_per_conference_year=5,
            conferences=("KDD",),
            years=(2014, 2015),
            seed=9,
        )
        a, b = SyntheticMAG(config), SyntheticMAG(config)
        assert a.relevance("KDD", 2015) == b.relevance("KDD", 2015)
        assert [p.title for p in a.papers.values()] == [
            p.title for p in b.papers.values()
        ]

    def test_titles_non_empty(self, small_mag):
        assert all(paper.title for paper in small_mag.papers.values())


class TestLoad:
    def test_schema(self, small_load):
        connectivity = label_connectivity(small_load.graph)
        assert small_load.schema is LOAD_SCHEMA
        assert LOAD_SCHEMA.validate(connectivity) == []

    def test_fully_connected_label_graph(self, small_load):
        """LOAD's label connectivity graph is complete with self loops."""
        connectivity = label_connectivity(small_load.graph)
        assert connectivity.has_loops
        assert len(connectivity.label_pairs()) == 10  # C(4,2) + 4 loops

    def test_degree_skew(self, small_load):
        degrees = small_load.graph.degrees()
        assert degrees.max() > 5 * np.median(degrees[degrees > 0])

    def test_sampling(self, small_load):
        nodes, labels = small_load.sample_nodes_per_label(10, rng=0)
        assert len(nodes) == 40
        counts = np.bincount(labels, minlength=4)
        assert counts.tolist() == [10, 10, 10, 10]
        degrees = small_load.graph.degrees()
        assert np.all(degrees[nodes] > 0)


class TestImdb:
    def test_schema_star_shape(self, small_imdb):
        connectivity = label_connectivity(small_imdb.graph)
        assert IMDB_SCHEMA.validate(connectivity) == []
        assert not connectivity.has_loops

    def test_all_edges_touch_movies(self, small_imdb):
        graph = small_imdb.graph
        movie_label = graph.labelset.index("M")
        for u, v in graph.edges():
            assert movie_label in (graph.label_of(u), graph.label_of(v))

    def test_each_movie_has_one_director(self, small_imdb):
        graph = small_imdb.graph
        d = graph.labelset.index("D")
        for movie in graph.nodes_with_label(graph.labelset.index("M")):
            assert dict(graph.flat().label_degrees_of(int(movie))).get(d) == 1

    def test_actor_counts_in_range(self, small_imdb):
        graph = small_imdb.graph
        a = graph.labelset.index("A")
        low, high = small_imdb.config.actors_per_movie
        for movie in graph.nodes_with_label(graph.labelset.index("M")):
            assert low <= dict(graph.flat().label_degrees_of(int(movie))).get(a, 0) <= high

    def test_popularity_reuse(self, small_imdb):
        """Some satellites appear in many movies (Zipf popularity)."""
        graph = small_imdb.graph
        actor_degrees = graph.degrees()[
            graph.nodes_with_label(graph.labelset.index("A"))
        ]
        assert actor_degrees.max() >= 5


class TestWorldDigests:
    """Pinned worlds: the benchmark's reference scores, the classic-feature
    digest and the pinned graph fingerprints all follow from these draws.

    The digests assume numpy's ``Generator`` streams (PCG64 and the
    ``random``/``integers``/``poisson``/``gamma``/``normal``/``lognormal``
    and ``choice`` algorithms) as of numpy 2.4.  If they fail after a
    numpy upgrade with no code change, re-record them from the previous
    commit, never from the change under test.
    """

    MAG = {
        "default": (
            None,
            "6687f91f1bfc8373920fb728a82d4d4d730bf099a00157386e8a36b7a35fc861",
        ),
        "rank-table1": (
            (30, 6, 40),
            "fcce6f7795bdf234b3ba75d6d215c5c25b141b4511925d60afbd98b082c40811",
        ),
        "serve-mixed": (
            (20, 4, 12),
            "996211aaa7316f9a89db2f4edd88b6301fc136524be709f820ab48d83e17cd41",
        ),
    }

    @staticmethod
    def mag_digest(world: SyntheticMAG) -> str:
        digest = hashlib.sha256()
        for paper_id in sorted(world.papers, key=lambda pid: int(pid[1:])):
            p = world.papers[paper_id]
            record = (
                p.paper_id, p.conference, p.year, p.authors, p.affiliations,
                p.is_full, p.title, p.keywords, p.references,
            )
            digest.update(repr(record).encode())
        for table in (
            world.author_affiliations,
            world.author_seniority,
            world.strength,
            world.papers_by_conf_year,
        ):
            digest.update(repr(sorted(table.items())).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("name", sorted(MAG))
    def test_mag_digest(self, name):
        size, expected = self.MAG[name]
        config = MagConfig()
        if size is not None:
            config = MagConfig(
                num_institutions=size[0],
                authors_per_institution=size[1],
                papers_per_conference_year=size[2],
            )
        assert self.mag_digest(SyntheticMAG(config)) == expected

    def test_imdb_fingerprint(self):
        assert SyntheticIMDB().graph.fingerprint() == "079c61912ac8fdf49221f154596a050f"

    def test_load_fingerprint(self):
        # The label-fig5 world is LOAD at its default size.
        assert SyntheticLOAD().graph.fingerprint() == "231034cc31ba74c50b0a2761d685ae31"


class TestDrawReplays:
    """Each replay against live ``Generator.choice`` on a twin generator:
    the same indices, and the stream left in the same state."""

    @staticmethod
    def twins(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_pick(self, seed):
        ours, numpy_rng = self.twins(seed)
        p = np.array([0.0, 3.0, 0.5, 0.0, 7.0, 1e-9, 2.0])
        p = p / p.sum()
        cdf = choice_cdf(p)
        for _ in range(200):
            assert weighted_pick(ours, cdf) == numpy_rng.choice(len(p), p=p)
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_sample(self, seed):
        # Other draws between samples: a 32-bit word left over from one
        # 64-bit output carries across calls, as in the MAG title draws.
        ours, numpy_rng = self.twins(seed)
        for p in (2, 3, 12, 97, 10000):
            for _ in range(50):
                size = int(ours.integers(1, p))
                assert size == numpy_rng.integers(1, p)
                expected = numpy_rng.choice(p, size, replace=False)
                assert uniform_sample(ours, p, size) == expected.tolist()
                assert ours.random() == numpy_rng.random()
                assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def check_sample(self, seed, p, size, rounds=50):
        ours, numpy_rng = self.twins(seed)
        cdf = choice_cdf(p)
        for _ in range(rounds):
            expected = numpy_rng.choice(len(p), size, replace=False, p=p)
            assert weighted_sample(ours, p, cdf, size) == expected.tolist()
            assert ours.bit_generator.state == numpy_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_skewed_sample_near_population_redraws(self, seed):
        # Zipf weights with k near n: nearly every call repeats an index
        # in its first round and runs the redraw loop, often several times.
        p = np.arange(1, 13, dtype=np.float64) ** -2.0
        p = p / p.sum()
        for size in (1, 6, 10, 11, 12):
            self.check_sample(seed, p, size)

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_with_zero_entries(self, seed):
        p = np.array([0.0, 5.0, 0.0, 1.0, 0.2, 0.0, 3.0, 0.05, 0.0])
        p = p / p.sum()
        for size in (0, 2, 4):
            self.check_sample(seed, p, size)
        # As many picks as non-zero entries: every one of them, in draw order.
        self.check_sample(seed, p, int(np.count_nonzero(p)))

    def test_sample_recency_weights(self):
        p = np.arange(1, 401, dtype=np.float64)
        p = p / p.sum()
        for size in (1, 3, 9):
            self.check_sample(11, p, size, rounds=200)

    def test_too_few_nonzero_entries_raises(self):
        ours, numpy_rng = self.twins(3)
        p = np.array([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(ValueError) as expected:
            numpy_rng.choice(len(p), 3, replace=False, p=p)
        with pytest.raises(ValueError) as raised:
            weighted_sample(ours, p, choice_cdf(p), 3)
        assert str(raised.value) == str(expected.value)
        assert ours.bit_generator.state == numpy_rng.bit_generator.state


class TestSampler:
    def test_bad_per_label(self, small_load):
        with pytest.raises(ValueError):
            sample_nodes_per_label(small_load.graph, 0)

    def test_caps_at_available(self):
        graph = star("M", ["A", "A", "K"])
        nodes, labels = sample_nodes_per_label(graph, 10, rng=0)
        # 1 M + 2 A + 1 K = 4 non-isolated nodes
        assert len(nodes) == 4


class TestDegreeCappedSampling:
    """Section 4.3.5: skipping top-degree roots."""

    def test_cap_excludes_hubs(self, small_load):
        graph = small_load.graph
        degrees = graph.degrees()
        nodes, _ = sample_nodes_per_label(
            graph, 50, rng=0, max_degree_percentile=90.0
        )
        cap = np.percentile(degrees[degrees > 0], 90.0)
        assert np.all(degrees[nodes] <= cap)

    def test_cap_100_equals_uncapped(self, small_load):
        graph = small_load.graph
        a = sample_nodes_per_label(graph, 10, rng=3)[0]
        b = sample_nodes_per_label(graph, 10, rng=3, max_degree_percentile=100.0)[0]
        assert np.array_equal(a, b)

    def test_all_hub_label_falls_back(self):
        """A label whose every member is a hub must still be sampled."""
        hub_world = star("M", ["A"] * 30)
        nodes, labels = sample_nodes_per_label(
            hub_world, 5, rng=0, max_degree_percentile=50.0
        )
        # M (the hub) still appears despite exceeding the cap.
        m_index = hub_world.labelset.index("M")
        assert m_index in labels

    def test_bad_percentile(self, small_load):
        with pytest.raises(ValueError):
            sample_nodes_per_label(small_load.graph, 5, max_degree_percentile=0.0)
        with pytest.raises(ValueError):
            sample_nodes_per_label(small_load.graph, 5, max_degree_percentile=101.0)


class TestRankDigraph:
    """Directed MAG view for the Section 5 ablation."""

    def test_same_shadow_as_undirected(self, small_mag):
        graph = small_mag.build_rank_graph("KDD", 2013)
        digraph = small_mag.build_rank_digraph("KDD", 2013)
        assert digraph.num_nodes == graph.num_nodes
        assert digraph.num_edges == graph.num_edges

    def test_citations_directed_others_symmetric(self, small_mag):
        digraph = small_mag.build_rank_digraph("KDD", 2013)
        out_role = digraph.roleset.index("out")
        in_role = digraph.roleset.index("in")
        und_role = digraph.roleset.index("und")
        paper = digraph.labelset.index("P")
        flat = digraph.flat()
        for u, v, (role_u, role_v) in zip(flat.edge_u, flat.edge_v, digraph.roles):
            lu = digraph.label_of(u)
            lv = digraph.label_of(v)
            if lu == paper and lv == paper:
                assert {role_u, role_v} == {out_role, in_role}
            else:
                assert role_u == role_v == und_role

    def test_citation_orientation_matches_references(self, small_mag):
        """The 'out' endpoint of a citation edge is the citing paper."""
        digraph = small_mag.build_rank_digraph("KDD", 2014)
        out_role = digraph.roleset.index("out")
        paper = digraph.labelset.index("P")
        ids = digraph.node_ids
        flat = digraph.flat()
        checked = 0
        for u, v, (role_u, _) in zip(flat.edge_u, flat.edge_v, digraph.roles):
            if digraph.label_of(u) == paper and digraph.label_of(v) == paper:
                citing_idx = u if role_u == out_role else v
                cited_idx = v if citing_idx == u else u
                citing, cited = ids[citing_idx], ids[cited_idx]
                assert cited in small_mag.papers[citing].references
                checked += 1
        assert checked > 0

    def test_typed_census_totals_match_undirected(self, small_mag):
        from repro.core import CensusConfig, subgraph_census
        from repro.extensions import typed_subgraph_census

        graph = small_mag.build_rank_graph("KDD", 2013)
        digraph = small_mag.build_rank_digraph("KDD", 2013)
        root = small_mag.institutions[0]
        undirected = subgraph_census(graph, graph.index(root), CensusConfig(max_edges=3))
        typed = typed_subgraph_census(digraph, digraph.index(root), max_edges=3)
        assert sum(typed.values()) == sum(undirected.values())
        assert len(typed) >= len(undirected)
