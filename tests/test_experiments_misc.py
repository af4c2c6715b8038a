"""Tests for runtime measurement, importance reports, and rendering."""

import pytest

from repro.datasets import ImdbConfig, MagConfig, SyntheticIMDB, SyntheticMAG
from repro.experiments.common import EmbeddingParams, percentile_degree
from repro.experiments.importance import discriminative_subgraphs
from repro.experiments.rank_prediction import RankTaskConfig
from repro.experiments.reporting import (
    render_sweep,
    render_table,
    render_table2,
    render_table3,
)
from repro.experiments.runtime import (
    RuntimeReport,
    runtime_report,
    time_census_per_node,
    time_embeddings_per_node,
)
from repro.runtime import RunContext


@pytest.fixture(scope="module")
def imdb_graph():
    return SyntheticIMDB(
        ImdbConfig(
            num_movies=40,
            num_actors=60,
            num_directors=15,
            num_writers=20,
            num_composers=10,
            num_keywords=15,
            seed=7,
        )
    ).graph


class TestPercentileDegree:
    def test_100_means_no_cap(self, imdb_graph):
        assert percentile_degree(imdb_graph, 100) is None
        assert percentile_degree(imdb_graph, 150) is None

    def test_percentile_value(self, imdb_graph):
        p90 = percentile_degree(imdb_graph, 90)
        degrees = imdb_graph.degrees()
        assert (degrees <= p90).mean() >= 0.85


class TestRuntime:
    def test_census_times_positive(self, imdb_graph):
        times = time_census_per_node(imdb_graph, [0, 1, 2], emax=2)
        assert times.shape == (3,)
        assert (times > 0).all()

    def test_embedding_times(self, imdb_graph):
        params = EmbeddingParams(dim=8, num_walks=2, walk_length=8, window=3,
                                 line_samples=2_000)
        per_node = time_embeddings_per_node(imdb_graph, params)
        assert set(per_node) == {"node2vec", "deepwalk", "line"}
        assert all(v > 0 for v in per_node.values())

    def test_report_and_row(self, imdb_graph):
        params = EmbeddingParams(dim=8, num_walks=2, walk_length=8, window=3,
                                 line_samples=2_000)
        report = runtime_report(
            "IMDB", imdb_graph, [0, 1, 2, 3], emax=2, embedding_params=params
        )
        assert report.census_max >= report.census_p95 >= report.census_p75
        assert report.num_nodes_timed == 4
        row = report.row()
        assert "IMDB" in row
        assert "engine=fast" in row
        assert "n_jobs=1" in row
        rendered = render_table3([report])
        assert "Table 3" in rendered
        assert "pipeline" in rendered

    def test_row_with_missing_method_renders_na(self):
        """A partial run without every embedding must not KeyError."""
        report = RuntimeReport(
            dataset="IMDB",
            census_mean=0.1,
            census_p75=0.1,
            census_p90=0.1,
            census_p95=0.1,
            census_max=0.2,
            embedding_mean={"node2vec": 0.5},  # deepwalk and line missing
            num_nodes_timed=3,
        )
        row = report.row()
        assert "n/a" in row
        assert "0.50000" in row
        rendered = render_table3([report])
        assert "n/a" in rendered

    def test_census_cache_serves_second_timing_pass(self, imdb_graph):
        from repro.obs.telemetry import fresh_telemetry
        from repro.runtime import ArtifactStore, RunContext

        ctx = RunContext(store=ArtifactStore())
        with fresh_telemetry() as telemetry:
            cold = time_census_per_node(imdb_graph, [0, 1, 2], emax=2, ctx=ctx)
            warm = time_census_per_node(imdb_graph, [0, 1, 2], emax=2, ctx=ctx)
        assert cold.shape == warm.shape == (3,)
        assert telemetry.counters["census/cache_misses"] == 3
        assert telemetry.counters["census/cache_hits"] == 3
        assert telemetry.timers["census/root_timed"].count == 6

    def test_sampled_timing_never_poisons_exact_keys(self, imdb_graph):
        """Sampled estimates timed into a store stay under sampled keys:
        a later exact lookup of the same roots misses or is exact."""
        from repro.core.cache import stored_census
        from repro.core.census import CensusConfig, subgraph_census
        from repro.core.sampled import SampledCensus
        from repro.experiments.common import percentile_degree
        from repro.runtime import ArtifactStore, RunContext

        store = ArtifactStore()
        roots = [0, 1, 2]
        time_census_per_node(
            imdb_graph, roots, emax=2, ctx=RunContext(engine="sampled", store=store)
        )
        config = CensusConfig(
            max_edges=2,
            max_degree=percentile_degree(imdb_graph, 90.0),
            mask_start_label=True,
        )
        for root in roots:
            hit = stored_census(store, imdb_graph, config, root)
            assert hit is None or (
                not isinstance(hit, SampledCensus)
                and hit == subgraph_census(imdb_graph, root, config)
            )

    def test_report_records_pipeline(self, imdb_graph):
        params = EmbeddingParams(dim=8, num_walks=2, walk_length=8, window=3,
                                 line_samples=2_000)
        report = runtime_report(
            "IMDB", imdb_graph, [0, 1], emax=2, embedding_params=params,
            ctx=RunContext(engine="sampled", n_jobs=2),
        )
        assert report.engine == "sampled"
        assert "engine=sampled" in report.row()
        assert "n_jobs=2" in report.row()


class TestImportance:
    def test_reports_decodable(self):
        mag = SyntheticMAG(
            MagConfig(
                num_institutions=8,
                authors_per_institution=3,
                papers_per_conference_year=12,
                conferences=("KDD",),
                years=tuple(range(2012, 2016)),
                seed=8,
            )
        )
        config = RankTaskConfig(
            train_years=(2014,), test_year=2015, emax=3, forest_trees=15, seed=0
        )
        reports = discriminative_subgraphs(mag, config, top=2)
        assert len(reports) == 1
        report = reports[0]
        assert report.conference == "KDD"
        assert len(report.ranking) == 2
        assert report.ranking[0].importance >= report.ranking[1].importance
        # Descriptions decode into readable subgraph summaries.
        assert "nodes" in report.ranking[0].description

    def test_render(self):
        mag = SyntheticMAG(
            MagConfig(
                num_institutions=6,
                authors_per_institution=2,
                papers_per_conference_year=8,
                conferences=("KDD",),
                years=(2013, 2014, 2015),
                seed=9,
            )
        )
        config = RankTaskConfig(
            train_years=(2014,), test_year=2015, emax=2, forest_trees=10, seed=0
        )
        reports = discriminative_subgraphs(mag, config, top=1)
        graph = mag.build_rank_graph("KDD", 2013)
        text = reports[0].render(graph.labelset)
        assert "KDD" in text
        assert "#1" in text


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "b"], [("row", [1.0, 2.0])])
        lines = text.split("\n")
        assert lines[0] == "T"
        assert "1.00" in lines[2]
        assert "2.00" in lines[2]

    def test_render_table2(self):
        text = render_table2({"LOAD": {90.0: 0.7, 100.0: 0.8}})
        assert "90%" in text and "100%" in text and "LOAD" in text

    def test_render_sweep(self):
        from repro.experiments.label_prediction import SweepResult

        sweep = SweepResult({("subgraph", 0.5): [0.7, 0.8]})
        text = render_sweep("Fig", sweep)
        assert "subgraph" in text
        assert "50%" in text
        assert "0.75" in text
