"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import write_edgelist, write_graph_json
from tests.shards import WorkerFleet


@pytest.fixture
def graph_json(publication_graph, tmp_path):
    target = tmp_path / "graph.json"
    write_graph_json(publication_graph, target)
    return str(target)


@pytest.fixture
def graph_hel(publication_graph, tmp_path):
    target = tmp_path / "graph.hel"
    write_edgelist(publication_graph, target)
    return str(target)


class TestInfo:
    def test_summarises(self, graph_json, capsys):
        assert main(["info", graph_json]) == 0
        out = capsys.readouterr().out
        assert "HeteroGraph" in out
        assert "I: 2 nodes" in out
        assert "degree" in out

    def test_edgelist_format(self, graph_hel, capsys):
        assert main(["info", graph_hel]) == 0
        assert "nodes=7" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="no such file"):
            main(["info", "/nonexistent/graph.json"])


class TestConnectivity:
    def test_renders_pairs(self, graph_json, capsys):
        assert main(["connectivity", graph_json]) == 0
        out = capsys.readouterr().out
        assert "I -- A" in out
        assert "collision-free e_max: 4" in out  # P-P loop present


class TestCensus:
    def test_counts_printed(self, graph_json, capsys):
        assert main(["census", graph_json, "--root", "i1", "--emax", "2"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.strip().split("\n") if l]
        assert all("\t" in line for line in lines)
        assert "classes" in captured.err

    def test_describe_flag(self, graph_json, capsys):
        assert main(
            ["census", graph_json, "--root", "i1", "--emax", "2", "--describe"]
        ) == 0
        assert "nodes" in capsys.readouterr().out

    def test_mask_flag(self, graph_json, capsys):
        assert main(
            ["census", graph_json, "--root", "i1", "--emax", "1", "--mask"]
        ) == 0
        assert "__mask__" in capsys.readouterr().out

    def test_census_cache_file_roundtrip(self, graph_json, tmp_path, capsys):
        """--artifact-store writes a store file that serves the second run."""
        cache_path = tmp_path / "census.store"
        args = [
            "census",
            graph_json,
            "--root",
            "i1",
            "--emax",
            "2",
            "--artifact-store",
            str(cache_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert cache_path.exists()
        assert "1 misses" in first.err

        assert main(args) == 0
        second = capsys.readouterr()
        assert "1 hits" in second.err
        assert first.out == second.out

    def test_n_jobs_flag_accepted(self, graph_json, capsys):
        assert main(
            ["census", graph_json, "--root", "i1", "--emax", "2", "--n-jobs", "2"]
        ) == 0
        assert "classes" in capsys.readouterr().err


class TestIngest:
    def test_builds_hmg_and_census_matches(self, graph_hel, tmp_path, capsys):
        hmg = tmp_path / "graph.hmg"
        assert main(["ingest", graph_hel, "--out", str(hmg)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 7" in out
        assert "fingerprint: " in out
        assert hmg.exists()

        assert main(["census", str(hmg), "--root", "i1", "--emax", "2"]) == 0
        mmap_out = capsys.readouterr().out
        assert main(["census", graph_hel, "--root", "i1", "--emax", "2"]) == 0
        assert capsys.readouterr().out == mmap_out

    def test_default_out_swaps_suffix(self, graph_hel, capsys):
        assert main(["ingest", graph_hel]) == 0
        out = capsys.readouterr().out
        expected = graph_hel.removesuffix(".hel") + ".hmg"
        assert f"{expected}: " in out

    def test_chunk_edges_and_no_ids(self, graph_hel, tmp_path, capsys):
        hmg = tmp_path / "dense.hmg"
        assert main(
            ["ingest", graph_hel, "--out", str(hmg), "--chunk-edges", "2", "--no-ids"]
        ) == 0
        capsys.readouterr()
        from repro.core.mmap_graph import MmapGraph

        with MmapGraph(hmg) as graph:
            assert graph.node_id(0) == 0  # dense indices, no id table

    def test_bad_line_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.hel"
        bad.write_text("v a A\ne a ghost\n")
        with pytest.raises(SystemExit, match=r"bad\.hel:2: .*'ghost'"):
            main(["ingest", str(bad), "--out", str(tmp_path / "bad.hmg")])
        assert not (tmp_path / "bad.hmg").exists()

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["ingest", str(tmp_path / "absent.hel")])

    def test_manifest_records_ingest_counters(self, graph_hel, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert main(
            [
                "ingest",
                graph_hel,
                "--out",
                str(tmp_path / "graph.hmg"),
                "--telemetry-out",
                str(manifest_path),
            ]
        ) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "ingest"
        assert manifest["counters"]["ingest/nodes"] == 7


class TestMmapGraphFlag:
    def test_census_mmap_matches_plain(self, graph_json, capsys):
        assert main(["census", graph_json, "--root", "i1", "--emax", "2"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["census", graph_json, "--root", "i1", "--emax", "2", "--mmap-graph"]
        ) == 0
        assert capsys.readouterr().out == plain

    def test_features_mmap_matches_plain(self, graph_json, tmp_path, capsys):
        def run(extra, name):
            out_path = tmp_path / name
            args = [
                "features",
                graph_json,
                "--nodes",
                "i1,a1,p1",
                "--emax",
                "2",
                "--out",
                str(out_path),
            ] + extra
            assert main(args) == 0
            capsys.readouterr()
            return json.loads(out_path.read_text())

        assert run(["--mmap-graph"], "mm.json") == run([], "plain.json")

    def test_manifest_records_mmap_storage(self, graph_json, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert main(
            [
                "census",
                graph_json,
                "--root",
                "i1",
                "--emax",
                "2",
                "--mmap-graph",
                "--telemetry-out",
                str(manifest_path),
            ]
        ) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["provenance"]["annotations"]["census/storage"] == "mmap"


class TestFeatures:
    def test_writes_json(self, graph_json, tmp_path, capsys):
        out_path = tmp_path / "features.json"
        code = main(
            [
                "features",
                graph_json,
                "--nodes",
                "i1,i2",
                "--emax",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert len(document["matrix"]) == 2
        assert "wrote 2 x" in capsys.readouterr().out

    def test_n_jobs_and_cache_flags(self, graph_json, tmp_path, capsys):
        from repro.runtime import ArtifactStore

        out_path = tmp_path / "features.json"
        cache_path = tmp_path / "census.store"
        code = main(
            [
                "features",
                graph_json,
                "--nodes",
                "i1,i2,a1,a2",
                "--emax",
                "2",
                "--n-jobs",
                "2",
                "--artifact-store",
                str(cache_path),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "artifact store:" in capsys.readouterr().err
        assert ArtifactStore(cache_path).stage_entries("census") == 4

    def test_empty_nodes_rejected(self, graph_json, tmp_path):
        with pytest.raises(SystemExit, match="at least one node"):
            main(
                [
                    "features",
                    graph_json,
                    "--nodes",
                    "",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )


class TestEmbed:
    def test_writes_npy(self, graph_json, tmp_path, capsys):
        out_path = tmp_path / "emb.npy"
        code = main(
            [
                "embed",
                graph_json,
                "--method",
                "deepwalk",
                "--out",
                str(out_path),
                "--dim",
                "8",
                "--num-walks",
                "2",
                "--walk-length",
                "8",
                "--window",
                "3",
            ]
        )
        assert code == 0
        import numpy as np

        matrix = np.load(out_path)
        assert matrix.shape == (7, 8)
        assert "n_jobs=1" in capsys.readouterr().out

    def test_writes_json_keyed_by_node_id(self, graph_json, tmp_path):
        out_path = tmp_path / "emb.json"
        code = main(
            [
                "embed",
                graph_json,
                "--method",
                "line",
                "--out",
                str(out_path),
                "--dim",
                "4",
                "--line-samples",
                "500",
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 7
        assert "i1" in payload
        assert len(payload["i1"]) == 4

    def test_engine_and_n_jobs_flags(self, graph_json, tmp_path, capsys):
        out_path = tmp_path / "emb.npy"
        code = main(
            [
                "embed",
                graph_json,
                "--method",
                "node2vec",
                "--out",
                str(out_path),
                "--dim",
                "4",
                "--num-walks",
                "2",
                "--walk-length",
                "6",
                "--window",
                "2",
                "--p",
                "0.5",
                "--q",
                "2.0",
                "--n-jobs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_jobs=2" in out

    def test_bad_engine_rejected(self, graph_json, tmp_path):
        """Embeddings have one implementation: ``--engine`` is no flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "embed",
                    graph_json,
                    "--method",
                    "deepwalk",
                    "--out",
                    str(tmp_path / "x.npy"),
                    "--engine",
                    "fast",
                ]
            )
        assert excinfo.value.code == 2


class TestRuntime:
    def test_prints_table3_row(self, graph_json, capsys):
        code = main(
            [
                "runtime",
                graph_json,
                "--roots",
                "3",
                "--emax",
                "2",
                "--n-jobs",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "engine=fast" in out
        assert "n_jobs=1" in out


class TestCollisions:
    def test_reports_bound(self, capsys):
        assert main(["collisions", "--labels", "2", "--max-edges", "4"]) == 0
        out = capsys.readouterr().out
        assert "collision-free e_max >= 4" in out

    def test_first_collision_printed(self, capsys):
        assert main(
            ["collisions", "--labels", "2", "--max-edges", "5", "--first"]
        ) == 0
        out = capsys.readouterr().out
        assert "SmallGraph" in out


@pytest.fixture(scope="module")
def imdb_json(tmp_path_factory):
    """A labelled synthetic graph big enough for the label experiment."""
    from repro.datasets import ImdbConfig, SyntheticIMDB

    graph = SyntheticIMDB(
        ImdbConfig(
            num_movies=20,
            num_actors=30,
            num_directors=8,
            num_writers=10,
            num_composers=5,
            num_keywords=8,
            seed=7,
        )
    ).graph
    target = tmp_path_factory.mktemp("cli") / "imdb.json"
    write_graph_json(graph, target)
    return str(target)


class TestRank:
    def test_prints_table1(self, capsys):
        code = main(
            [
                "rank",
                "--conferences",
                "KDD",
                "--families",
                "classic",
                "--regressors",
                "LinRegr",
                "--train-years",
                "2013,2014",
                "--institutions",
                "12",
                "--authors",
                "2",
                "--papers",
                "8",
                "--trees",
                "10",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "classic" in captured.out
        assert "rank world" in captured.err


class TestLabel:
    def test_prints_sweep(self, imdb_json, capsys):
        code = main(
            [
                "label",
                imdb_json,
                "--features",
                "subgraph",
                "--fractions",
                "0.5",
                "--repeats",
                "2",
                "--per-label",
                "6",
                "--emax",
                "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5A-C" in captured.out
        assert "subgraph" in captured.out
        assert "label task" in captured.err


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestArtifactStore:
    def test_features_store_logs_summary(self, graph_json, tmp_path, capsys):
        store_path = tmp_path / "store.pkl"
        args = [
            "features",
            graph_json,
            "--nodes",
            "i1,i2",
            "--emax",
            "2",
            "--artifact-store",
            str(store_path),
            "--out",
            str(tmp_path / "features.json"),
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert store_path.exists()
        assert "artifact store:" in first.err

        # Warm rerun: the whole feature matrix is served from the store.
        assert main(args) == 0
        second = capsys.readouterr()
        assert "artifact store:" in second.err
        assert first.out == second.out

    def test_census_cache_flag_is_gone(self, graph_json, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "census",
                    graph_json,
                    "--root",
                    "i1",
                    "--census-cache",
                    str(tmp_path / "census.cache"),
                ]
            )

    def test_label_engine_flag(self, imdb_json, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "label",
                imdb_json,
                "--features",
                "subgraph",
                "--fractions",
                "0.5",
                "--repeats",
                "1",
                "--per-label",
                "4",
                "--emax",
                "2",
                "--engine",
                "sampled",
                "--telemetry-out",
                str(manifest_path),
            ]
        )
        assert code == 0
        assert "Figure 5A-C" in capsys.readouterr().out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["provenance"]["annotations"]["run/engine"] == "sampled"

    def test_rank_warm_rerun_skips_census_and_embed(self, tmp_path, capsys):
        """Acceptance gate: against a populated store, ``repro rank``
        recomputes no census or embedding artifact and its output is
        bit-identical to the cold run."""
        store_path = tmp_path / "store.pkl"
        manifest_path = tmp_path / "run.json"
        args = [
            "rank",
            "--conferences",
            "KDD",
            "--families",
            "subgraph,deepwalk",
            "--regressors",
            "LinRegr",
            "--train-years",
            "2013,2014",
            "--institutions",
            "10",
            "--authors",
            "2",
            "--papers",
            "6",
            "--trees",
            "5",
            "--emax",
            "2",
            "--artifact-store",
            str(store_path),
            "--telemetry-out",
            str(manifest_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        cold_stages = json.loads(manifest_path.read_text())["artifact_store"][
            "stages"
        ]
        assert cold_stages["census"]["misses"] > 0
        assert cold_stages["embed"]["misses"] > 0
        assert store_path.exists()

        assert main(args) == 0
        warm = capsys.readouterr().out
        warm_manifest = json.loads(manifest_path.read_text())
        stages = warm_manifest["artifact_store"]["stages"]
        assert stages["census"]["hits"] > 0
        assert stages["census"]["misses"] == 0
        assert stages["embed"]["hits"] > 0
        assert stages["embed"]["misses"] == 0
        assert warm_manifest["stages"]  # pipeline stage timers recorded
        assert warm == cold


class TestTelemetryAndLogging:
    def test_telemetry_out_writes_manifest(self, graph_json, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        cache_path = tmp_path / "census.store"
        args = [
            "census",
            graph_json,
            "--root",
            "i1",
            "--emax",
            "2",
            "--artifact-store",
            str(cache_path),
            "--telemetry-out",
            str(manifest_path),
        ]
        assert main(args) == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema_version"] == 2
        assert "census_cache" not in manifest
        assert manifest["command"] == "census"
        assert manifest["config"]["emax"] == 2
        census = manifest["artifact_store"]["stages"]["census"]
        assert census["misses"] == 1
        assert manifest["artifact_store"]["load_status"] == "missing"
        assert "total" in manifest["phases"]
        capsys.readouterr()

        # Second run hits the saved store; the manifest reflects it.
        assert main(args) == 0
        manifest = json.loads(manifest_path.read_text())
        census = manifest["artifact_store"]["stages"]["census"]
        assert census["hits"] == 1
        assert census["hit_rate"] == 1.0
        assert manifest["artifact_store"]["load_status"] == "loaded"
        capsys.readouterr()

    def test_runtime_manifest_has_phases_and_cache_stats(
        self, graph_json, tmp_path, capsys
    ):
        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "runtime",
                graph_json,
                "--roots",
                "3",
                "--emax",
                "2",
                "--n-jobs",
                "2",
                "--artifact-store",
                str(tmp_path / "census.store"),
                "--telemetry-out",
                str(manifest_path),
            ]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert {"census", "embeddings", "total"} <= set(manifest["phases"])
        assert manifest["artifact_store"]["stages"]["census"]["misses"] == 3
        assert manifest["provenance"]["n_jobs"] == 2
        assert manifest["provenance"]["annotations"]["census/engine"] == "fast"
        assert manifest["peak_rss_kb"] is None or manifest["peak_rss_kb"] > 0
        capsys.readouterr()

    def test_log_level_flag_silences_diagnostics(self, graph_json, capsys):
        assert main(
            [
                "census",
                graph_json,
                "--root",
                "i1",
                "--emax",
                "2",
                "--log-level",
                "warning",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "classes" not in captured.err  # info diagnostics suppressed
        assert "\t" in captured.out  # results still on stdout

    def test_verbose_flag_dumps_telemetry(self, graph_json, capsys):
        assert main(
            ["census", graph_json, "--root", "i1", "--emax", "2", "-v"]
        ) == 0
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "census/calls" in err


class TestPartitionedCensusCLI:
    """``--workers`` alone sends the census to ``repro worker`` daemons;
    ``--partitions`` only sets their shard count."""

    def test_census_partitions_matches_plain(self, graph_json, capsys):
        assert main(["census", graph_json, "--root", "i1", "--emax", "2"]) == 0
        plain = capsys.readouterr().out
        with WorkerFleet(2) as fleet:
            workers = ",".join(fleet.specs)
            for extra in ([], ["--partitions", "3"]):
                assert main(
                    [
                        "census",
                        graph_json,
                        "--root",
                        "i1",
                        "--emax",
                        "2",
                        "--workers",
                        workers,
                        *extra,
                    ]
                ) == 0
                assert capsys.readouterr().out == plain

    def test_partitioned_run_manifest_and_store(self, graph_json, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        store_path = tmp_path / "run.store"
        with WorkerFleet(2) as fleet:
            workers = ",".join(fleet.specs)
            assert main(
                [
                    "features",
                    graph_json,
                    "--nodes",
                    "i1,a1,p1",
                    "--emax",
                    "2",
                    "--workers",
                    workers,
                    "--artifact-store",
                    str(store_path),
                    "--out",
                    str(tmp_path / "features.json"),
                ]
            ) == 0
            capsys.readouterr()
            assert main(
                [
                    "census",
                    graph_json,
                    "--root",
                    "i1",
                    "--emax",
                    "2",
                    "--workers",
                    workers,
                    "--artifact-store",
                    str(store_path),
                    "--telemetry-out",
                    str(manifest_path),
                ]
            ) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["provenance"]["annotations"]["run/partitions"] == "2"
        assert manifest["provenance"]["annotations"]["run/workers"] == "2"
        # the store still holds the partition set cut by the features run
        # (the warm census cache short-circuits before it is consulted)
        assert manifest["artifact_store"]["entries"] > 0
        assert manifest["artifact_store"]["approx_payload_bytes"] > 0
        assert manifest["artifact_store"]["stages"]["partition"]["entries"] == 1

    @pytest.mark.parametrize("command", ("census", "features"))
    def test_partitions_without_workers_exit_2(self, graph_json, tmp_path, command):
        target = (
            ["--root", "i1"]
            if command == "census"
            else ["--nodes", "i1", "--out", str(tmp_path / "f.json")]
        )
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph_json, *target, "--partitions", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["rank", "--partitions", "2"], ["label", "g.json", "--partitions", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_grid_commands_take_no_partitions(self, argv):
        """rank/label have no --workers, so a shard count has no use."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_dead_worker_fails_instead_of_a_local_census(self, graph_json, capsys):
        """Nothing listens on port 1: the run must fail, not quietly print
        a census computed locally."""
        from repro.exceptions import RPCError

        with pytest.raises(RPCError):
            main(["census", graph_json, "--root", "i1", "--emax", "2",
                  "--workers", "127.0.0.1:1"])
        assert capsys.readouterr().out == ""


class TestNetCLI:
    """Parser plumbing for the net layer: serve transports, worker, workers."""

    def test_serve_requires_a_listen_flag(self, graph_json):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", graph_json])
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["serve", graph_json, "--socket", "/tmp/a", "--tcp", "h:1"]
            )
        args = parser.parse_args(["serve", graph_json, "--tcp", "127.0.0.1:0"])
        assert args.tcp == "127.0.0.1:0"
        assert args.socket is None

    def test_worker_parser(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["worker"])  # --listen is required
        args = parser.parse_args(
            ["worker", "--listen", "127.0.0.1:0", "--partitions", "2"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.func is not None

    def test_worker_preload_requires_partitions(self, graph_json):
        with pytest.raises(SystemExit):
            main(["worker", "--listen", "127.0.0.1:0", "--graph", graph_json])

    def test_workers_flag_builds_context_tuple(self, graph_json):
        from repro.cli import _build_context, build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "census", graph_json, "--root", "i1",
                "--workers", "127.0.0.1:9001,127.0.0.1:9002",
                "--workers", "unix:/run/w3.sock",
            ]
        )
        ctx = _build_context(args)
        assert ctx.workers == (
            "127.0.0.1:9001", "127.0.0.1:9002", "unix:/run/w3.sock"
        )


class TestSharedFlags:
    """``--n-jobs/--jobs``, ``--partitions``, ``--engine`` and ``--layout``
    come from one helper each; every subcommand keeps its flags, defaults,
    dest and help text."""

    CENSUS_JOBS = "worker processes for the census (0 = all cores)"
    CENSUS_PARTITIONS = (
        "halo-complete graph shards to cut for --workers "
        "(default: one per worker)"
    )
    CORPUS_JOBS = "worker processes for corpus generation"
    EXPECTED = {
        "census": {"n_jobs": CENSUS_JOBS, "partitions": CENSUS_PARTITIONS},
        "features": {"n_jobs": CENSUS_JOBS, "partitions": CENSUS_PARTITIONS},
        "embed": {"n_jobs": CORPUS_JOBS},
        "runtime": {"n_jobs": CORPUS_JOBS},
        "rank": {
            "n_jobs": "worker processes for the experiment grid and forests "
            "(results are identical for any value)",
        },
        "label": {
            "n_jobs": "worker processes for the training sweep "
            "(results are identical for any value)",
        },
        "serve": {"n_jobs": "worker processes for warm-up and repair censuses"},
        "worker": {
            "partitions": "partition count used to cut preloaded shards "
            "(must match the coordinator's --partitions)"
        },
    }
    FLAGS = {
        "n_jobs": (["--n-jobs", "--jobs"], 1),
        "partitions": (["--partitions"], None),
    }

    def test_flags_defaults_and_help_per_subcommand(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        found = {}
        for command, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest not in self.FLAGS:
                    continue
                option_strings, default = self.FLAGS[action.dest]
                assert action.option_strings == option_strings, command
                assert action.type is int, command
                assert action.default == default, command
                found.setdefault(command, {})[action.dest] = action.help
        assert found == self.EXPECTED

    ENGINE_HELP = {
        "census": "census implementation (sampled = budgeted estimates with "
        "confidence bounds)",
        "rank": "census implementation for the subgraph family (sampled = "
        "budgeted estimates with confidence bounds)",
        "label": "census implementation for the subgraph features (sampled = "
        "budgeted estimates with confidence bounds)",
        "serve": "census implementation (exact only: incremental repair must "
        "be bit-identical to a cold recompute)",
    }
    ENGINE_HELP["features"] = ENGINE_HELP["census"]

    def _actions(self, dest):
        import argparse

        from repro.cli import build_parser

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return {
            command: action
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if action.dest == dest
        }

    def test_engine_and_layout_flags_per_subcommand(self):
        engines = self._actions("engine")
        assert {command: a.help for command, a in engines.items()} == self.ENGINE_HELP
        for command, action in engines.items():
            assert action.option_strings == ["--engine"], command
            assert action.default == "fast", command
            expected = ("fast",) if command == "serve" else ("fast", "sampled")
            assert tuple(action.choices) == expected, command
        layouts = self._actions("layout")
        assert sorted(layouts) == ["label", "rank"]
        for command, action in layouts.items():
            assert action.option_strings == ["--layout"], command
            assert action.default == "dense", command
            assert tuple(action.choices) == ("dense", "sparse"), command
            assert action.help == "count-feature matrix layout", command

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "g.json", "--root", "a", "--engine", "reference"],
            ["features", "g.json", "--nodes", "a", "--out", "f.json",
             "--engine", "reference"],
            ["rank", "--engine", "reference"],
            ["label", "g.json", "--engine", "reference"],
            ["serve", "g.json", "--socket", "s.sock", "--engine", "reference"],
            ["embed", "g.json", "--method", "line", "--out", "e.npy",
             "--engine", "fast"],
            ["runtime", "g.json", "--engine", "fast"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_engine_choices_exit_2(self, argv):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
