"""Tests for the unified execution runtime: context, store, pipeline,
executor.

Covers the :class:`RunContext` resolution shims, the single
:func:`resolve_engine` validator (every call site must enumerate its
valid choices), the content-addressed :class:`ArtifactStore` —
cross-stage key isolation, durability statuses, and FIFO eviction
across mixed stage types — and :func:`run_tasks`, the one local fan-out.
"""

import logging
import os
import pickle
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.embeddings.line import LINE
from repro.embeddings.skipgram import SkipGramTrainer, walks_to_pairs
from repro.embeddings import walks as walks_module
from repro.embeddings.walks import node2vec_walks, uniform_random_walks
from repro.exceptions import CensusError
from repro.experiments.common import EmbeddingParams, embedding_matrix
from repro.ml.forest import RandomForestRegressor
from repro.obs import fresh_telemetry, get_telemetry
from repro.runtime import (
    ArtifactStore,
    Pipeline,
    RunContext,
    artifact_key,
    freeze_config,
    resolve_engine,
    resolve_n_jobs,
    run_tasks,
)

FP = "fingerprint-a"


class TestResolveEngine:
    def test_valid_name_passes_through(self):
        assert resolve_engine("fast", ("fast", "reference")) == "fast"

    def test_message_enumerates_choices(self):
        with pytest.raises(
            ValueError,
            match="unknown engine 'turbo': valid choices are 'fast', 'reference'",
        ):
            resolve_engine("turbo", ("fast", "reference"))

    def test_custom_param_and_error(self):
        class Boom(Exception):
            pass

        with pytest.raises(Boom, match="unknown widget engine 'x'"):
            resolve_engine("x", ("a",), param="widget engine", error=Boom)


class TestEngineValidationCallSites:
    """The census is the one layer with an engine choice, and its error
    enumerates the valid choices.  Every other layer has one
    implementation and takes no ``engine=`` keyword at all."""

    def test_census_site(self, publication_graph):
        with pytest.raises(
            CensusError,
            match="unknown census engine 'turbo': valid choices are "
            "'fast', 'sampled'",
        ):
            subgraph_census(
                publication_graph, 0, CensusConfig(max_edges=2), engine="turbo"
            )

    def test_walks_site(self, publication_graph):
        with pytest.raises(TypeError, match="engine"):
            uniform_random_walks(
                publication_graph, num_walks=1, walk_length=2, engine="turbo"
            )

    def test_node2vec_walks_site(self, publication_graph):
        with pytest.raises(TypeError, match="engine"):
            node2vec_walks(
                publication_graph, num_walks=1, walk_length=2, q=2.0, engine="turbo"
            )

    def test_pairs_site(self):
        walks = np.array([[0, 1, 2]], dtype=np.int64)
        with pytest.raises(TypeError, match="engine"):
            walks_to_pairs(walks, 1, np.random.default_rng(0), engine="turbo")

    def test_trainer_site(self):
        with pytest.raises(TypeError, match="engine"):
            SkipGramTrainer(dim=4, engine="turbo")

    def test_line_site(self):
        with pytest.raises(TypeError, match="engine"):
            LINE(dim=4, engine="turbo")

    def test_forest_site(self):
        with pytest.raises(TypeError, match="engine"):
            RandomForestRegressor(n_estimators=2, engine="turbo")


class TestRunContext:
    def test_resolve_engine_uses_default_when_unset(self):
        assert RunContext().resolve_engine(("fast", "reference")) == "fast"

    def test_resolved_n_jobs_auto(self):
        assert RunContext(n_jobs=0).resolved_n_jobs() >= 1
        assert RunContext().resolved_n_jobs(default=3) == 3

    def test_resolve_n_jobs_rejects_negative(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(-2)
        assert resolve_n_jobs("auto") >= 1

    def test_resolved_seed(self):
        assert RunContext(seed=9).resolved_seed() == 9
        assert RunContext().resolved_seed(default=4) == 4

    def test_executor_and_workers_in_provenance(self):
        from repro.obs import fresh_telemetry

        ctx = RunContext(workers=("h1:9000", "h2:9000"))
        with fresh_telemetry() as telemetry:
            ctx.annotate_provenance()
            annotations = telemetry.as_dict()["annotations"]
        assert annotations["run/workers"] == "2"


class TestOneWayIn:
    """An execution setting has one way in — the context — and means the
    same at every entry point."""

    ALL_CORES = max(1, os.cpu_count() or 1)

    def test_n_jobs_zero_is_all_cores_for_the_extractor(self):
        extractor = SubgraphFeatureExtractor(ctx=RunContext(n_jobs=0))
        assert extractor.n_jobs == self.ALL_CORES
        with pytest.raises(TypeError, match="n_jobs"):
            SubgraphFeatureExtractor(n_jobs=0)

    def test_n_jobs_zero_is_all_cores_for_the_walks(
        self, publication_graph, monkeypatch
    ):
        seen = []
        real = walks_module.run_tasks

        def spy(fn, tasks, *, n_jobs=1, **kwargs):
            seen.append(n_jobs)
            return real(fn, tasks, n_jobs=1, **kwargs)

        monkeypatch.setattr(walks_module, "run_tasks", spy)
        ctx = RunContext(n_jobs=0)
        uniform_random_walks(publication_graph, 2, 4, rng=0, ctx=ctx)
        node2vec_walks(publication_graph, 2, 4, p=0.5, rng=0, ctx=ctx)
        assert seen == [self.ALL_CORES, self.ALL_CORES]
        with pytest.raises(TypeError, match="n_jobs"):
            uniform_random_walks(publication_graph, 2, 4, rng=0, n_jobs=0)
        with pytest.raises(TypeError, match="n_jobs"):
            node2vec_walks(publication_graph, 2, 4, p=0.5, rng=0, n_jobs=0)

    def test_sampled_census_context_drives_embeddings(self, publication_graph):
        """One context carrying the sampled census engine also runs the
        embeddings, which ignore the census engine."""
        sampled, plain = RunContext(engine="sampled"), RunContext()
        np.testing.assert_array_equal(
            uniform_random_walks(publication_graph, 2, 5, rng=3, ctx=sampled),
            uniform_random_walks(publication_graph, 2, 5, rng=3, ctx=plain),
        )
        params = EmbeddingParams(dim=4, num_walks=2, walk_length=5, window=2)
        nodes = list(range(publication_graph.num_nodes))
        np.testing.assert_array_equal(
            embedding_matrix(publication_graph, nodes, "deepwalk", params, ctx=sampled),
            embedding_matrix(publication_graph, nodes, "deepwalk", params, ctx=plain),
        )


class TestOneImplementationPerLayer:
    """The parity oracles live in tests/oracles/; the package keeps one
    implementation per layer and no way to select another."""

    @staticmethod
    def _package_sources():
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        return {
            str(path.relative_to(package)): path.read_text(encoding="utf-8")
            for path in package.rglob("*.py")
        }

    def test_no_run_context_ensure(self):
        ensure = re.compile(r"def ensure\b|\.ensure\(")
        offenders = sorted(
            name
            for name, text in self._package_sources().items()
            if ensure.search(text)
        )
        assert offenders == []

    def test_no_reference_engine_literal(self):
        literal = re.compile(r"""["']reference["']""")
        offenders = sorted(
            name
            for name, text in self._package_sources().items()
            if literal.search(text)
        )
        assert offenders == []

    def test_package_never_imports_tests(self):
        importing = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
        offenders = sorted(
            name
            for name, text in self._package_sources().items()
            if importing.search(text)
        )
        assert offenders == []


class TestFreezeConfig:
    def test_dict_order_is_canonicalised(self):
        assert freeze_config({"b": 1, "a": [1, 2]}) == freeze_config(
            {"a": (1, 2), "b": 1}
        )

    def test_sets_are_sorted(self):
        assert freeze_config({3, 1, 2}) == (1, 2, 3)

    def test_nested_structures_hashable(self):
        frozen = freeze_config({"x": [{"y": {1, 2}}, "s"]})
        hash(frozen)  # must not raise

    def test_pinned_outputs(self):
        # Frozen keys are persisted inside saved stores: any change to
        # these outputs turns every stored artifact into a miss.
        from repro.core.cache import census_store_config

        census = census_store_config(
            CensusConfig(max_edges=4, max_degree=16, mask_start_label=True), 7
        )
        expected = (4, 16, True, "canonical", True, False, None, 7)
        assert freeze_config(census) == expected
        assert pickle.dumps(freeze_config(census)) == pickle.dumps(expected)
        nested = {"b": [1, {"z": {3, 1}}], "a": ("x", None, 2.5, b"k")}
        expected = (("a", ("x", None, 2.5, b"k")), ("b", (1, (("z", (1, 3)),))))
        assert freeze_config(nested) == expected
        assert pickle.dumps(freeze_config(nested)) == pickle.dumps(expected)
        scalar = np.int64(3)
        assert freeze_config(scalar) is scalar
        frozen = freeze_config({"n": scalar, "f": np.float64(0.5)})
        assert frozen == (("f", 0.5), ("n", 3))
        assert [type(value) for _, value in frozen] == [np.float64, np.int64]

    def test_pinned_walk_and_embed_keys(self):
        # The walk and embed configs keep the engine slot of earlier
        # releases as the literal "fast", so their stores load warm.
        from repro.embeddings.walks import _corpus_key
        from repro.experiments.common import EmbeddingParams, _embed_key

        pinned = [
            (
                _corpus_key("node2vec", 4, 15, 0.5, 2.0, 7, [3, 1]),
                ("node2vec", 4, 15, 0.5, 2.0, 7, "fast", (3, 1)),
            ),
            (
                _corpus_key("uniform", 4, 15, 1.0, 1.0, 7, None),
                ("uniform", 4, 15, 1.0, 1.0, 7, "fast", None),
            ),
            (
                _embed_key("line", EmbeddingParams.fast(), 202, np.array([0, 5])),
                ("line", 32, 4, 15, 5, 5, 1.0, 1.0, 40000, 202, "fast", (0, 5)),
            ),
        ]
        for key, expected in pinned:
            assert freeze_config(key) == expected
            assert pickle.dumps(freeze_config(key)) == pickle.dumps(expected)


class TestArtifactStoreKeys:
    def test_cross_stage_isolation(self):
        store = ArtifactStore()
        config = (2, None)
        store.put(FP, "census", config, {"code": 1})
        store.put(FP, "walks", config, np.arange(3))
        assert store.get(FP, "census", config) == {"code": 1}
        np.testing.assert_array_equal(store.get(FP, "walks", config), np.arange(3))
        assert store.get(FP, "embed", config) is None

    def test_fingerprint_isolation(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "a")
        assert store.get("fingerprint-b", "census", (1,)) is None

    def test_hits_are_defensive_copies(self):
        store = ArtifactStore()
        store.put(FP, "embed", (1,), np.zeros(3))
        first = store.get(FP, "embed", (1,))
        first[:] = 99.0
        np.testing.assert_array_equal(store.get(FP, "embed", (1,)), np.zeros(3))

    def test_counters_track_per_stage(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "x")
        store.get(FP, "census", (1,))
        store.get(FP, "embed", (1,))
        assert store.stage_hits == {"census": 1}
        assert store.stage_misses == {"embed": 1}
        stats = store.stage_stats()
        assert stats["census"] == {"hits": 1, "misses": 0, "entries": 1}
        assert stats["embed"]["misses"] == 1

    def test_artifact_key_freezes_config(self):
        key = artifact_key(FP, "census", {"b": 1, "a": 2})
        assert key == (FP, "census", (("a", 2), ("b", 1)))


@contextmanager
def captured_store_warnings():
    """Collect warning records from the store module's logger.

    ``caplog`` cannot be used: the ``repro`` hierarchy sets
    ``propagate = False`` once the CLI has configured logging (other
    tests in the session do), so records never reach the root logger
    pytest listens on.  A handler on the module logger sees them
    regardless.
    """
    records: list[logging.LogRecord] = []

    class _Collector(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    store_logger = logging.getLogger("repro.runtime.store")
    handler = _Collector(level=logging.WARNING)
    old_level = store_logger.level
    store_logger.addHandler(handler)
    store_logger.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        store_logger.removeHandler(handler)
        store_logger.setLevel(old_level)


class TestArtifactStoreDurability:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        assert store.load_status == "missing"
        store.put(FP, "census", (1,), {"c": 2})
        store.save()
        reloaded = ArtifactStore(path)
        assert reloaded.load_status == "loaded"
        assert reloaded.get(FP, "census", (1,)) == {"c": 2}

    def test_corrupt_file_reported(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(b"not a pickle")
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "corrupt"
        assert len(store) == 0
        assert any("unreadable" in record.getMessage() for record in records)

    def test_version_mismatch_reported(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(pickle.dumps({"version": 1, "entries": {"k": "v"}}))
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "version-mismatch"
        assert len(store) == 0
        assert any("version" in record.getMessage() for record in records)

    def test_save_is_atomic_leaves_no_temp(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        store.put(FP, "walks", (1,), np.arange(2))
        store.save()
        assert not list(tmp_path.glob("store.pkl.*.tmp"))

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            ArtifactStore().save()


class TestArtifactStoreEviction:
    def test_fifo_across_mixed_stages(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "walks", (1,), "b")
        store.put(FP, "embed", (1,), "c")
        assert store.get(FP, "census", (1,)) is None  # oldest, evicted
        assert store.get(FP, "walks", (1,)) == "b"
        assert store.get(FP, "embed", (1,)) == "c"
        assert store.evictions == 1
        assert len(store) == 2

    def test_overwrite_does_not_evict(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.put(FP, "census", (1,), "a2")
        assert store.evictions == 0
        assert store.get(FP, "census", (1,)) == "a2"

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ArtifactStore(max_entries=0)


class TestPipeline:
    def test_stages_record_spans_and_order(self):
        with fresh_telemetry() as telemetry:
            pipeline = Pipeline("demo", RunContext(engine="fast", n_jobs=1))
            with pipeline.stage("dataset"):
                pass
            with pipeline.stage("experiment"):
                pass
            assert pipeline.executed == ["dataset", "experiment"]
            data = telemetry.as_dict()
            assert "stage/dataset" in data["timers"]
            assert "stage/experiment" in data["timers"]
            assert data["annotations"]["pipeline/name"] == "demo"
            # Annotations are stringified by the registry.
            assert data["annotations"]["pipeline/stages"] == str(
                ("dataset", "experiment")
            )
            assert data["annotations"]["run/engine"] == "fast"
            assert data["annotations"]["run/n_jobs"] == "1"


class TestStoreDrivenStages:
    def test_walk_corpus_cached_for_int_seed(self, publication_graph):
        store = ArtifactStore()
        ctx = RunContext(store=store)
        first = uniform_random_walks(
            publication_graph, num_walks=2, walk_length=5, rng=7, ctx=ctx
        )
        second = uniform_random_walks(
            publication_graph, num_walks=2, walk_length=5, rng=7, ctx=ctx
        )
        np.testing.assert_array_equal(first, second)
        assert store.stage_hits.get("walks") == 1

    def test_generator_rng_is_never_cached(self, publication_graph):
        store = ArtifactStore()
        ctx = RunContext(store=store)
        uniform_random_walks(
            publication_graph,
            num_walks=1,
            walk_length=4,
            rng=np.random.default_rng(0),
            ctx=ctx,
        )
        assert len(store) == 0


class TestStoreStats:
    def test_stats_summarise_entries_and_payload(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "x")
        store.put(FP, "census", (2,), "y")
        store.put(FP, "embed", (1,), "z")  # evicts the oldest census entry
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["approx_payload_bytes"] > 0
        assert stats["stages"]["census"]["entries"] == 1
        assert stats["stages"]["embed"]["entries"] == 1

    def test_record_stats_emits_store_gauges(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "x")
        store.put(FP, "walks", (1,), "w")
        with fresh_telemetry() as telemetry:
            store.record_stats(telemetry)
            gauges = telemetry.as_dict()["gauges"]
        assert gauges["store/entries"] == 2
        assert gauges["store/evictions"] == 0
        assert gauges["store/approx_payload_bytes"] > 0
        assert gauges["store/entries/census"] == 1
        assert gauges["store/entries/walks"] == 1

    def test_save_records_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.pkl")
        store.put(FP, "features", (1,), [1, 2, 3])
        with fresh_telemetry() as telemetry:
            store.save()
            gauges = telemetry.as_dict()["gauges"]
        assert gauges["store/entries"] == 1
        assert gauges["store/entries/features"] == 1


class TestArtifactStoreLRU:
    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "census", (1,)) == "a"  # touch: a is now newest
        store.put(FP, "census", (3,), "c")
        assert store.get(FP, "census", (2,)) is None  # b was the LRU victim
        assert store.get(FP, "census", (1,)) == "a"
        assert store.get(FP, "census", (3,)) == "c"

    def test_overwrite_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.put(FP, "census", (1,), "a2")  # overwrite: a is now newest
        store.put(FP, "census", (3,), "c")
        assert store.get(FP, "census", (2,)) is None
        assert store.get(FP, "census", (1,)) == "a2"

    def test_embed_floor_survives_census_flood(self):
        # The regression this guards: a long census run used to evict the
        # few expensive artifacts the rest of the run still needed.
        store = ArtifactStore(max_entries=6)
        for i in range(4):
            store.put(FP, "embed", (i,), f"matrix-{i}")
        for i in range(40):
            store.put(FP, "census", (i,), i)
        assert store.stage_entries("embed") == 4
        for i in range(4):
            assert store.get(FP, "embed", (i,)) == f"matrix-{i}"
        assert store.stage_entries("census") == 2
        assert len(store) == 6

    def test_embed_floor_is_default_protected(self):
        store = ArtifactStore(max_entries=4)
        store.put(FP, "embed", (0,), "matrix")
        for i in range(20):
            store.put(FP, "census", (i,), i)
        assert store.get(FP, "embed", (0,)) == "matrix"

    def test_floor_overflow_rather_than_evict_protected(self):
        # When everything evictable is protected the store runs over
        # max_entries instead of dropping protected artifacts.
        store = ArtifactStore(max_entries=2)
        for i in range(4):
            store.put(FP, "embed", (i,), i)
        assert len(store) == 4
        assert store.evictions == 0

    def test_custom_floors_override_defaults(self):
        # An explicit empty mapping clears the default embed floor.
        store = ArtifactStore(max_entries=2, stage_floors={})
        store.put(FP, "embed", (1,), "m")
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "embed", (1,)) is None  # no floor: evicted
        assert store.get(FP, "census", (1,)) == "a"

    def test_floor_keeps_stage_at_floor_not_above(self):
        # A floor of 1 protects the *last* entry of a stage, not every
        # entry: the oldest one is still evictable while count > floor.
        store = ArtifactStore(max_entries=2, stage_floors={"census": 1})
        store.put(FP, "census", (1,), "a")
        store.put(FP, "embed", (1,), "m")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "census", (1,)) is None  # oldest, above floor
        assert store.get(FP, "census", (2,)) == "b"
        assert store.get(FP, "embed", (1,)) == "m"

    def test_discard_removes_without_counting_eviction(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "a")
        assert store.discard(FP, "census", (1,)) is True
        assert store.discard(FP, "census", (1,)) is False
        assert store.get(FP, "census", (1,)) is None
        assert store.evictions == 0
        assert store.stage_entries("census") == 0

    def test_counter_artifacts_fast_copied(self):
        from collections import Counter as _Counter

        store = ArtifactStore()
        census = _Counter({101: 3, 202: 1})
        store.put(FP, "census", (1,), census)
        census[999] = 7  # caller mutation must not reach the store
        got = store.get(FP, "census", (1,))
        assert got == _Counter({101: 3, 202: 1})
        got[555] = 1  # nor must reader mutation
        assert store.get(FP, "census", (1,)) == _Counter({101: 3, 202: 1})


class TestArtifactStoreMove:
    # move() is a general re-key primitive.  Emulating it with get() +
    # discard() + put() showed phantom traffic in the payload/stage
    # accounting (hits inflated once per moved entry) and paid two deep
    # copies of the artifact per move.

    def test_move_rekeys_entry(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), {"rows": [1, 2]})
        assert store.move(FP, "f" * 32, "census", (1,)) is True
        assert store.get(FP, "census", (1,)) is None
        assert store.get("f" * 32, "census", (1,)) == {"rows": [1, 2]}

    def test_move_missing_source_returns_false(self):
        store = ArtifactStore()
        assert store.move(FP, "f" * 32, "census", (1,)) is False

    def test_move_does_not_touch_hit_counters(self):
        store = ArtifactStore()
        for root in range(10):
            store.put(FP, "census", (root,), root)
        for root in range(10):
            assert store.move(FP, "f" * 32, "census", (root,))
        # Migration is bookkeeping, not lookups: the old emulation left
        # hits == 10 here, poisoning the manifest's hit-rate stats.
        assert store.hits == 0
        assert store.misses == 0
        assert store.stage_stats().get("census", {}).get("hits", 0) == 0

    def test_move_keeps_payload_and_stage_counts_exact(self):
        store = ArtifactStore()
        for root in range(8):
            store.put(FP, "census", (root,), list(range(64)))
        before = store.stats()
        for root in range(8):
            store.move(FP, "f" * 32, "census", (root,))
        after = store.stats()
        assert after["entries"] == before["entries"] == 8
        assert after["stages"]["census"]["entries"] == 8
        assert after["approx_payload_bytes"] == before["approx_payload_bytes"]
        assert store.stage_entries("census") == 8

    def test_move_onto_existing_destination_replaces(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "old-fp-entry")
        store.put("f" * 32, "census", (1,), "new-fp-entry")
        assert store.move(FP, "f" * 32, "census", (1,)) is True
        assert store.get(FP, "census", (1,)) is None
        assert store.get("f" * 32, "census", (1,)) == "old-fp-entry"
        assert store.stage_entries("census") == 1
        assert len(store) == 1

    def test_move_avoids_deep_copies(self):
        store = ArtifactStore()
        payload = {"big": list(range(16))}
        store.put(FP, "census", (1,), payload)
        stored_before = store.get(FP, "census", (1,))
        store.move(FP, "f" * 32, "census", (1,))
        # The stored object is re-addressed, not round-tripped through
        # the defensive-copy path of get()/put(); reads still copy.
        got = store.get("f" * 32, "census", (1,))
        assert got == stored_before
        got["big"].append(99)
        assert store.get("f" * 32, "census", (1,)) == stored_before

    def test_move_lands_at_newest_lru_position(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.move(FP, "f" * 32, "census", (1,))  # a becomes newest
        store.put(FP, "census", (3,), "c")  # evicts b, the true LRU
        assert store.get(FP, "census", (2,)) is None
        assert store.get("f" * 32, "census", (1,)) == "a"


class TestArtifactStoreConcurrency:
    def test_threaded_stress(self, tmp_path):
        # Regression for the unsynchronised store: concurrent put/get/
        # stats used to corrupt the entry dict and the stage tallies.
        import threading

        store = ArtifactStore(tmp_path / "store.pkl", max_entries=64)
        stages = ("census", "walks", "embed", "features")
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for i in range(300):
                    stage = stages[int(rng.integers(len(stages)))]
                    config = (int(rng.integers(24)),)
                    roll = rng.random()
                    if roll < 0.5:
                        store.put(FP, stage, config, (seed, i))
                    elif roll < 0.9:
                        store.get(FP, stage, config)
                    elif roll < 0.97:
                        store.stats()
                        store.stage_stats()
                    else:
                        store.save()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # The incremental stage tallies must agree with the entry dict.
        assert sum(
            store.stage_entries(stage) for stage in stages
        ) == len(store)
        if store.max_entries is not None:
            protected = sum(store.stage_floors.values())
            assert len(store) <= store.max_entries + protected

    def test_concurrent_get_put_same_key(self):
        import threading

        store = ArtifactStore()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                store.put(FP, "census", (1,), {"i": i})
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    value = store.get(FP, "census", (1,))
                    if value is not None:
                        assert "i" in value
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


# -- run_tasks task functions (module level, so a pool can pickle them) ------
_SETUP_PIDS: list = []


def _scaled(state, task):
    """Record through the process-global registry, then sleep so that
    early tasks finish last in a pool."""
    telemetry = get_telemetry()
    with telemetry.span("test/task"):
        telemetry.count("test/tasks")
        telemetry.count("test/sum", task)
        time.sleep(0.01 * (5 - task % 5))
    (factor,) = state
    return task * factor


def _counting_setup(offset):
    _SETUP_PIDS.append(os.getpid())
    return {"offset": offset}


def _setup_runs(state, task):
    return os.getpid(), _SETUP_PIDS.count(os.getpid()), task + state["offset"]


def _raise_census_error(state, task):
    if task == 2:
        raise CensusError(f"bad root {task}")
    return task


class TestRunTasks:
    TASKS = list(range(8))

    def test_results_in_task_order(self):
        expected = [task * 3 for task in self.TASKS]
        for n_jobs in (1, 2):
            assert run_tasks(_scaled, self.TASKS, n_jobs=n_jobs, shared=(3,)) == expected

    def test_inline_and_pool_identical(self):
        inline = run_tasks(_scaled, self.TASKS, n_jobs=1, shared=(2,))
        pooled = run_tasks(_scaled, self.TASKS, n_jobs=2, shared=(2,))
        assert pooled == inline

    def test_empty_and_single_task_run_inline(self, monkeypatch):
        import repro.runtime.executor as executor_module

        def boom(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("ProcessPoolExecutor should not be created")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", boom)
        assert run_tasks(_scaled, [], n_jobs=4, shared=(1,)) == []
        assert run_tasks(_scaled, [7], n_jobs=4, shared=(1,)) == [7]
        assert run_tasks(_scaled, self.TASKS, n_jobs=1, shared=(1,)) == self.TASKS

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_telemetry_merges_exactly(self, n_jobs):
        with fresh_telemetry() as outer:
            outer.count("test/tasks", 100)  # the caller's own records stay
            run_tasks(_scaled, self.TASKS, n_jobs=n_jobs, shared=(1,))
        assert outer.counters["test/tasks"] == 100 + len(self.TASKS)
        assert outer.counters["test/sum"] == sum(self.TASKS)
        assert outer.timers["test/task"].count == len(self.TASKS)

    def test_setup_runs_once_per_worker(self):
        results = run_tasks(
            _setup_runs, self.TASKS, n_jobs=2, setup=_counting_setup, shared=(10,)
        )
        assert [value for _pid, _runs, value in results] == [
            task + 10 for task in self.TASKS
        ]
        assert {runs for _pid, runs, _value in results} == {1}
        assert os.getpid() not in {pid for pid, _runs, _value in results}

    def test_setup_runs_once_inline(self):
        before = _SETUP_PIDS.count(os.getpid())
        results = run_tasks(
            _setup_runs, self.TASKS, n_jobs=1, setup=_counting_setup, shared=(0,)
        )
        assert _SETUP_PIDS.count(os.getpid()) == before + 1
        assert {pid for pid, _runs, _value in results} == {os.getpid()}

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_worker_exception_keeps_its_type(self, n_jobs):
        with pytest.raises(CensusError, match="bad root 2"):
            run_tasks(_raise_census_error, self.TASKS, n_jobs=n_jobs)

    def test_spawn_start_method(self):
        with fresh_telemetry() as telemetry:
            results = run_tasks(
                _scaled, self.TASKS, n_jobs=2, shared=(4,), mp_context="spawn"
            )
        assert results == [task * 4 for task in self.TASKS]
        assert telemetry.counters["test/tasks"] == len(self.TASKS)

    def test_one_process_pool_in_the_package(self):
        """Every local fan-out goes through run_tasks; no other module may
        build its own pool."""
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        users = sorted(
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if "ProcessPoolExecutor" in path.read_text(encoding="utf-8")
        )
        assert users == ["runtime/executor.py"]
