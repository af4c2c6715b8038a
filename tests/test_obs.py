"""Tests for the observability layer: telemetry, logging, manifests."""

from __future__ import annotations

import json
import logging
import pickle

import pytest

from repro.obs.log import configure_logging, get_logger, resolve_level
from repro.obs.manifest import build_manifest, peak_rss_kb, write_manifest
from repro.obs.telemetry import (
    Telemetry,
    TimerStat,
    fresh_telemetry,
    get_telemetry,
)


class TestTimerStat:
    def test_add_tracks_count_total_max(self):
        stat = TimerStat()
        stat.add(1.0)
        stat.add(3.0)
        stat.add(2.0)
        assert stat.count == 3
        assert stat.total == pytest.approx(6.0)
        assert stat.max == pytest.approx(3.0)
        assert stat.mean == pytest.approx(2.0)

    def test_empty_mean_is_zero(self):
        assert TimerStat().mean == 0.0

    def test_as_dict_shape(self):
        stat = TimerStat()
        stat.add(0.5)
        assert stat.as_dict() == {
            "count": 1,
            "total_sec": 0.5,
            "mean_sec": 0.5,
            "max_sec": 0.5,
        }


class TestTelemetry:
    def test_counters_accumulate(self):
        t = Telemetry()
        t.count("x")
        t.count("x", 4)
        assert t.counters["x"] == 5

    def test_span_records_elapsed(self):
        t = Telemetry()
        with t.span("work") as span:
            pass
        assert span.elapsed >= 0.0
        assert t.timers["work"].count == 1
        assert t.timers["work"].total == pytest.approx(span.elapsed)

    def test_span_records_on_exception(self):
        t = Telemetry()
        with pytest.raises(RuntimeError):
            with t.span("broken"):
                raise RuntimeError("boom")
        assert t.timers["broken"].count == 1

    def test_gauge_max_keeps_peak(self):
        t = Telemetry()
        t.gauge_max("rss", 10)
        t.gauge_max("rss", 3)
        assert t.gauges["rss"] == 10.0
        t.gauge("rss", 3)  # plain gauge is last-write-wins
        assert t.gauges["rss"] == 3.0

    def test_annotations_stringify(self):
        t = Telemetry()
        t.annotate("engine", 42)
        assert t.annotations["engine"] == "42"


class TestMerge:
    def _worker(self) -> Telemetry:
        t = Telemetry()
        t.count("roots", 3)
        t.timer("census", 1.0)
        t.timer("census", 3.0)
        t.gauge_max("peak", 7)
        t.annotate("engine", "fast")
        return t

    def test_merge_counters_add_timers_combine(self):
        parent = self._worker()
        parent.merge(self._worker())
        assert parent.counters["roots"] == 6
        stat = parent.timers["census"]
        assert stat.count == 4
        assert stat.total == pytest.approx(8.0)
        assert stat.max == pytest.approx(3.0)
        assert parent.gauges["peak"] == 7

    def test_merge_accepts_snapshot_dict(self):
        snapshot = self._worker().snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot  # picklable
        parent = Telemetry()
        parent.merge(snapshot)
        assert parent.counters["roots"] == 3
        assert parent.annotations["engine"] == "fast"

    def test_merged_workers_equal_single_registry(self):
        """Two worker snapshots merged == the same ops in one registry."""
        combined = Telemetry()
        combined.merge(self._worker().snapshot())
        combined.merge(self._worker().snapshot())
        single = Telemetry()
        for _ in range(2):
            single.count("roots", 3)
            single.timer("census", 1.0)
            single.timer("census", 3.0)
            single.gauge_max("peak", 7)
            single.annotate("engine", "fast")
        assert combined.snapshot() == single.snapshot()

    def test_from_snapshot_roundtrip(self):
        original = self._worker()
        clone = Telemetry.from_snapshot(original.snapshot())
        assert clone.snapshot() == original.snapshot()

    def test_reset_clears_everything(self):
        t = self._worker()
        t.reset()
        assert t.snapshot() == Telemetry().snapshot()


class TestGlobalRegistry:
    def test_fresh_telemetry_isolates_and_restores(self):
        outer = get_telemetry()
        outer_marker = f"outer/{id(outer)}"
        outer.count(outer_marker)
        with fresh_telemetry() as inner:
            assert get_telemetry() is inner
            assert inner is not outer
            assert outer_marker not in inner.counters
            inner.count("inner")
        assert get_telemetry() is outer
        assert "inner" not in get_telemetry().counters

    def test_nested_fresh_telemetry(self):
        with fresh_telemetry() as first:
            with fresh_telemetry() as second:
                assert get_telemetry() is second
            assert get_telemetry() is first


class TestLogging:
    def test_get_logger_prefixes_bare_names(self):
        assert get_logger("cli").name == "repro.cli"
        assert get_logger("repro.core.cache").name == "repro.core.cache"
        assert get_logger().name == "repro"

    def test_resolve_level(self):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level("WARNING") == logging.WARNING
        assert resolve_level(logging.ERROR) == logging.ERROR
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("loud")

    def test_configure_is_idempotent(self):
        root = configure_logging("info")
        handlers_before = list(root.handlers)
        configure_logging("debug")
        assert list(root.handlers) == handlers_before
        assert root.level == logging.DEBUG
        configure_logging("info")
        assert root.level == logging.INFO

    def test_verbosity_forces_debug(self):
        root = configure_logging("warning", verbosity=1)
        assert root.level == logging.DEBUG
        configure_logging("info")

    def test_handler_follows_swapped_stderr(self, capsys):
        """Diagnostics land on whatever sys.stderr currently is."""
        configure_logging("info")
        get_logger("test_obs").info("hello from the library")
        assert "hello from the library" in capsys.readouterr().err


class TestManifest:
    def test_census_cache_section_derived_from_counters(self):
        """Census lookups are reported once, under ``artifact_store``."""
        with fresh_telemetry() as t:
            t.count("artifact/census/hits", 3)
            t.count("artifact/census/misses", 1)
            t.count("census/dedup_saved", 2)
            t.annotate("cache/load_status", "loaded")
            manifest = build_manifest("census", config={"engine": "fast"})
        assert "census_cache" not in manifest
        census = manifest["artifact_store"]["stages"]["census"]
        assert census["hits"] == 3
        assert census["misses"] == 1
        assert census["hit_rate"] == pytest.approx(0.75)
        assert manifest["counters"]["census/dedup_saved"] == 2
        assert manifest["artifact_store"]["load_status"] == "loaded"

    def test_empty_run_has_zero_hit_rate(self):
        with fresh_telemetry():
            manifest = build_manifest("census")
        assert manifest["artifact_store"]["stages"] == {}
        assert manifest["artifact_store"]["load_status"] is None

    def test_phases_extracted_from_prefixed_timers(self):
        with fresh_telemetry() as t:
            t.timer("phase/census", 1.5)
            t.timer("census/root", 0.1)
            manifest = build_manifest("runtime")
        assert set(manifest["phases"]) == {"census"}
        assert manifest["phases"]["census"]["count"] == 1
        assert manifest["phases"]["census"]["total_sec"] == pytest.approx(1.5)
        assert "census/root" in manifest["timers"]

    def test_provenance_records_engine_and_n_jobs(self):
        with fresh_telemetry():
            manifest = build_manifest(
                "features", config={"engine": "fast", "n_jobs": 2}
            )
        assert manifest["provenance"]["engine"] == "fast"
        assert manifest["provenance"]["n_jobs"] == 2
        assert manifest["schema_version"] == 2

    def test_config_made_json_safe(self, tmp_path):
        with fresh_telemetry():
            manifest = build_manifest(
                "census",
                config={
                    "path": tmp_path / "g.json",
                    "years": (2014, 2015),
                    "obj": object(),
                },
            )
        encoded = json.dumps(manifest)  # must not raise
        assert str(tmp_path / "g.json") in encoded
        assert manifest["config"]["years"] == [2014, 2015]

    def test_artifact_store_section_merges_counters_and_gauges(self):
        with fresh_telemetry() as t:
            t.count("artifact/census/hits", 3)
            t.count("artifact/census/misses", 1)
            t.count("artifact/walks/misses", 1)
            t.gauge("store/entries", 5)
            t.gauge("store/evictions", 2)
            t.gauge("store/approx_payload_bytes", 4096)
            t.gauge("store/entries/census", 4)
            t.gauge("store/entries/walks", 1)
            manifest = build_manifest("census")
        section = manifest["artifact_store"]
        assert section["entries"] == 5
        assert section["evictions"] == 2
        assert section["approx_payload_bytes"] == 4096
        census = section["stages"]["census"]
        assert census["hits"] == 3
        assert census["hit_rate"] == pytest.approx(0.75)
        assert census["entries"] == 4
        assert section["stages"]["walks"]["entries"] == 1

    def test_artifact_store_section_without_store_has_no_totals(self):
        with fresh_telemetry():
            manifest = build_manifest("census")
        assert "entries" not in manifest["artifact_store"]

    def test_write_manifest_roundtrip(self, tmp_path):
        target = tmp_path / "run.json"
        with fresh_telemetry() as t:
            t.count("artifact/census/misses", 4)
            with t.span("phase/total"):
                pass
            write_manifest(target, "census", config={"emax": 3})
        loaded = json.loads(target.read_text())
        assert loaded["command"] == "census"
        assert loaded["config"]["emax"] == 3
        assert loaded["artifact_store"]["stages"]["census"]["misses"] == 4
        assert "total" in loaded["phases"]
        assert loaded["peak_rss_kb"] is None or loaded["peak_rss_kb"] > 0

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_kb()
        assert peak is None or peak > 0


class TestDistribution:
    def test_quantile_accuracy_within_bucket_error(self):
        from repro.obs import Distribution

        import numpy as np

        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-5.0, sigma=1.5, size=5000)
        dist = Distribution()
        for value in values:
            dist.add(float(value))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            estimate = dist.quantile(q)
            # Bucket growth 2**(1/8) bounds relative error at ~4.5%;
            # allow double for nearest-rank wobble at the tail.
            assert abs(estimate - exact) / exact < 0.09, (q, estimate, exact)
        assert dist.count == 5000
        assert dist.mean == pytest.approx(float(values.mean()))
        assert dist.quantile(0.0) == pytest.approx(float(values.min()))
        assert dist.quantile(1.0) == pytest.approx(
            float(values.max()), rel=0.05
        )

    def test_zero_and_empty(self):
        from repro.obs import Distribution

        dist = Distribution()
        assert dist.quantile(0.5) == 0.0
        assert dist.mean == 0.0
        dist.add(0.0)
        assert dist.quantile(0.5) == 0.0  # underflow bucket reports min
        with pytest.raises(ValueError):
            dist.quantile(1.5)

    def test_merge_equals_single_stream(self):
        from repro.obs import Distribution

        import numpy as np

        rng = np.random.default_rng(3)
        values = rng.exponential(scale=0.01, size=2000)
        merged = Distribution()
        combined = Distribution()
        half = Distribution()
        for value in values[:1000]:
            combined.add(float(value))
            merged.add(float(value))
        for value in values[1000:]:
            half.add(float(value))
            merged.add(float(value))
        combined.merge(*half.state())
        assert combined.count == merged.count
        assert combined.total == pytest.approx(merged.total)
        assert combined.min == merged.min
        assert combined.max == merged.max
        assert combined.buckets == merged.buckets
        for q in (0.5, 0.99):
            assert combined.quantile(q) == merged.quantile(q)

    def test_observe_snapshot_merge_round_trip(self):
        t = Telemetry()
        for value in (0.001, 0.002, 0.004, 0.1):
            t.observe("serve/latency_s", value)
        snapshot = pickle.loads(pickle.dumps(t.snapshot()))
        other = Telemetry()
        other.observe("serve/latency_s", 0.5)
        other.merge(snapshot)
        dist = other.distributions["serve/latency_s"]
        assert dist.count == 5
        assert dist.max == pytest.approx(0.5)
        payload = other.as_dict()["distributions"]["serve/latency_s"]
        assert payload["count"] == 5
        assert payload["p99"] > 0

    def test_manifest_carries_distributions(self, tmp_path):
        from repro.obs.telemetry import fresh_telemetry as _fresh

        with _fresh() as t:
            t.observe("serve/latency_s", 0.002)
            t.observe("serve/latency_s", 0.050)
            manifest = build_manifest("serve", config={})
        dist = manifest["distributions"]["serve/latency_s"]
        assert dist["count"] == 2
        assert set(dist) >= {"count", "mean", "min", "max", "p50", "p90", "p99"}

    def test_reset_clears_distributions(self):
        t = Telemetry()
        t.observe("x", 1.0)
        t.reset()
        assert t.distributions == {}


class TestSpanAsyncioInterleaving:
    def test_interleaved_spans_attribute_elapsed_correctly(self):
        # The serving daemon runs span() inside coroutines that yield to
        # each other on one event loop.  Each span must charge only its
        # own wall clock (closure-local start, not shared mutable state),
        # no matter how the loop interleaves entry and exit.
        import asyncio

        t = Telemetry()

        async def slow():
            with t.span("slow"):
                await asyncio.sleep(0.2)

        async def quick(i: int):
            await asyncio.sleep(0.05)
            with t.span("quick"):
                await asyncio.sleep(0.01)

        async def main():
            await asyncio.gather(slow(), *(quick(i) for i in range(5)))

        asyncio.run(main())
        assert t.timers["slow"].count == 1
        assert t.timers["quick"].count == 5
        # The slow span wraps the quick ones in wall time; if handles
        # leaked across coroutines these bounds would be violated.
        assert t.timers["slow"].max >= 0.2
        assert t.timers["quick"].max < 0.15
        assert t.timers["quick"].total < t.timers["slow"].total

    def test_concurrent_observe_on_event_loop(self):
        import asyncio

        t = Telemetry()

        async def worker(i: int):
            for j in range(50):
                t.observe("loop/latency", 0.001 * (i + 1))
                await asyncio.sleep(0)

        async def main():
            await asyncio.gather(worker(0), worker(1), worker(2))

        asyncio.run(main())
        assert t.distributions["loop/latency"].count == 150
