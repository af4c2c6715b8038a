"""Census memoisation through the artifact store: keys, lookup, durability.

Every rooted census is stored in :class:`ArtifactStore` under the
``"census"`` stage and read back through :func:`stored_census`; these
tests pin the key layout (so stores saved by older versions still load
warm), the store's census-facing behaviour, and the extractor wiring.
"""

from __future__ import annotations

import logging
import pickle
import sys
import types
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import repro.runtime.store as store_module
from repro.core.cache import census_config_key, census_store_config, stored_census
from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.core.sampled import SampledCensusConfig
from repro.obs import fresh_telemetry
from repro.runtime import ArtifactStore, RunContext
from repro.runtime.store import STAGE_CENSUS, artifact_key


@pytest.fixture
def config() -> CensusConfig:
    return CensusConfig(max_edges=3)


def _put(store, graph, config, root, census) -> None:
    store.put(
        graph.fingerprint(), STAGE_CENSUS, census_store_config(config, root), census
    )


def _key(graph, config, root):
    return artifact_key(
        graph.fingerprint(), STAGE_CENSUS, census_store_config(config, root)
    )


class TestCensusCacheKey:
    def test_key_varies_with_each_component(self, publication_graph, config):
        base = _key(publication_graph, config, 0)
        assert _key(publication_graph, config, 1) != base
        other_config = CensusConfig(max_edges=4)
        assert _key(publication_graph, other_config, 0) != base
        other_graph = HeteroGraph.from_edges(
            {"a": "A", "b": "B"}, [("a", "b")]
        )
        assert _key(other_graph, config, 0) != base

    def test_key_normalises_numpy_roots(self, publication_graph, config):
        assert _key(publication_graph, config, np.int64(2)) == _key(
            publication_graph, config, 2
        )
        assert type(census_store_config(config, np.int64(2))[-1]) is int

    def test_store_config_is_pinned(self):
        """Stores saved by earlier versions must keep loading warm."""
        assert census_store_config(CensusConfig(max_edges=3), 5) == (
            3, None, False, "canonical", True, False, None, 5,
        )
        sampled = SampledCensusConfig(budget=40, seed=1)
        assert census_store_config(CensusConfig(max_edges=3), 5, sampled) == (
            3, None, False, "canonical", True, False, None,
            "sampled", 40, 1, None, 0.95, 32, 5,
        )


    def test_frozen_store_config_keys_like_the_plain_tuple(self, publication_graph):
        """The store skips re-freezing ``census_store_config``; its keys
        must still equal the plain-tuple keys earlier versions stored."""
        fingerprint = publication_graph.fingerprint()
        config = CensusConfig(max_edges=3, max_degree=4, mask_start_label=True)
        for sampled in (None, SampledCensusConfig(budget=40, seed=1)):
            for root in (0, np.int64(5)):
                plain = (*census_config_key(config, sampled), int(root))
                key = artifact_key(
                    fingerprint, STAGE_CENSUS, census_store_config(config, root, sampled)
                )
                assert key == artifact_key(fingerprint, STAGE_CENSUS, plain)
                assert type(key[2]) is tuple
                assert b"FrozenConfig" not in pickle.dumps(key)
        store = ArtifactStore()
        store.put(fingerprint, STAGE_CENSUS, (*census_config_key(config), 2), Counter(k=1))
        assert stored_census(store, publication_graph, config, 2) == Counter(k=1)


class TestCensusCache:
    def test_roundtrip_and_stats(self, publication_graph, config):
        store = ArtifactStore()
        assert stored_census(store, publication_graph, config, 0) is None
        census = subgraph_census(publication_graph, 0, config)
        _put(store, publication_graph, config, 0, census)
        assert stored_census(store, publication_graph, config, 0) == census
        assert store.stage_stats()[STAGE_CENSUS] == {
            "hits": 1, "misses": 1, "entries": 1,
        }

    def test_get_returns_defensive_copy(self, publication_graph, config):
        store = ArtifactStore()
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        hit = stored_census(store, publication_graph, config, 0)
        hit["k"] = 999
        assert stored_census(store, publication_graph, config, 0) == Counter({"k": 1})

    def test_persistence_roundtrip(self, publication_graph, config, tmp_path):
        path = tmp_path / "census.store"
        store = ArtifactStore(path)
        census = subgraph_census(publication_graph, 1, config)
        _put(store, publication_graph, config, 1, census)
        store.save()

        reloaded = ArtifactStore(path)
        assert reloaded.stage_entries(STAGE_CENSUS) == 1
        assert stored_census(reloaded, publication_graph, config, 1) == census

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "census.store"
        path.write_bytes(b"not a pickle")
        assert len(ArtifactStore(path)) == 0

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            ArtifactStore().save()

    def test_clear_resets_everything(self, publication_graph, config):
        store = ArtifactStore()
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        stored_census(store, publication_graph, config, 0)
        store.clear()
        assert len(store) == 0
        assert (store.hits, store.misses) == (0, 0)


class TestExtractorCacheIntegration:
    def test_second_extraction_is_all_hits(self, publication_graph, config):
        store = ArtifactStore()
        extractor = SubgraphFeatureExtractor(config, ctx=RunContext(store=store))
        nodes = [0, 2, 4]
        first = extractor.census_many(publication_graph, nodes)
        assert store.misses == len(nodes) and store.hits == 0
        second = extractor.census_many(publication_graph, nodes)
        assert store.hits == len(nodes)
        assert first == second

    def test_cached_results_match_uncached(self, publication_graph, config):
        nodes = list(range(publication_graph.num_nodes))
        plain = SubgraphFeatureExtractor(config).census_many(
            publication_graph, nodes
        )
        cached_extractor = SubgraphFeatureExtractor(
            config, ctx=RunContext(store=ArtifactStore())
        )
        cached_extractor.census_many(publication_graph, nodes)  # warm
        warm = cached_extractor.census_many(publication_graph, nodes)
        assert warm == plain

    def test_config_change_misses(self, publication_graph):
        store = ArtifactStore()
        ctx = RunContext(store=store)
        SubgraphFeatureExtractor(
            CensusConfig(max_edges=2), ctx=ctx
        ).census_many(publication_graph, [0])
        SubgraphFeatureExtractor(
            CensusConfig(max_edges=3), ctx=ctx
        ).census_many(publication_graph, [0])
        assert store.hits == 0
        assert store.stage_entries(STAGE_CENSUS) == 2


@contextmanager
def captured_store_warnings():
    """Collect warning records from the store module's logger.

    ``caplog`` cannot be used here: the ``repro`` hierarchy sets
    ``propagate = False`` once the CLI has configured logging, so records
    never reach the root logger pytest listens on.  Attaching a handler
    directly to the module logger sees them regardless.
    """
    records: list[logging.LogRecord] = []

    class _Collector(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    logger = logging.getLogger("repro.runtime.store")
    handler = _Collector(level=logging.WARNING)
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


class TestDurability:
    """The save path must never corrupt an existing store file."""

    def _saved_store(self, publication_graph, config, path) -> Counter:
        store = ArtifactStore(path)
        census = subgraph_census(publication_graph, 0, config)
        _put(store, publication_graph, config, 0, census)
        store.save()
        return census

    def test_interrupted_save_leaves_original_intact(
        self, publication_graph, config, tmp_path, monkeypatch
    ):
        """A crash mid-write (kill -9 style) must not clobber the file."""
        path = tmp_path / "census.store"
        census = self._saved_store(publication_graph, config, path)
        good_bytes = path.read_bytes()

        def dying_dump(obj, fh, protocol=None):
            fh.write(b"\x80\x04partial-garbage")
            raise KeyboardInterrupt("simulated kill")

        monkeypatch.setattr(store_module.pickle, "dump", dying_dump)
        store = ArtifactStore(path)
        _put(store, publication_graph, config, 1, Counter({"new": 1}))
        with pytest.raises(KeyboardInterrupt):
            store.save()

        # Original contents untouched; the stray bytes live in a temp file.
        assert path.read_bytes() == good_bytes
        leftovers = list(tmp_path.glob("census.store.*.tmp"))
        assert len(leftovers) == 1
        reloaded = ArtifactStore(path)
        assert reloaded.load_status == "loaded"
        assert stored_census(reloaded, publication_graph, config, 0) == census

    def test_save_replaces_stale_contents(self, publication_graph, config, tmp_path):
        path = tmp_path / "census.store"
        self._saved_store(publication_graph, config, path)
        fresh = ArtifactStore(path)
        _put(fresh, publication_graph, config, 1, Counter({"k": 2}))
        fresh.save()
        assert len(ArtifactStore(path)) == 2

    def test_save_to_explicit_path(self, publication_graph, config, tmp_path):
        store = ArtifactStore()
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        target = store.save(tmp_path / "explicit.store")
        assert target.exists()
        assert len(ArtifactStore(target)) == 1


class TestLoadStatus:
    """Failed loads must warn and be inspectable, never silent."""

    def test_no_path_is_none(self):
        assert ArtifactStore().load_status is None

    def test_missing_file(self, tmp_path):
        assert ArtifactStore(tmp_path / "nope.store").load_status == "missing"

    def test_loaded(self, publication_graph, config, tmp_path):
        path = tmp_path / "census.store"
        store = ArtifactStore(path)
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        store.save()
        assert ArtifactStore(path).load_status == "loaded"

    def test_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "census.store"
        path.write_bytes(b"not a pickle")
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "corrupt"
        assert len(records) == 1
        message = records[0].getMessage()
        assert "unreadable" in message
        assert str(path) in message

    def test_unimportable_entry_is_dropped(
        self, publication_graph, config, tmp_path, monkeypatch
    ):
        """One value whose module is gone drops alone; censuses load."""
        vanished = types.ModuleType("repro_vanished_module")

        class Gone:
            pass

        Gone.__module__ = vanished.__name__
        Gone.__qualname__ = "Gone"
        vanished.Gone = Gone
        monkeypatch.setitem(sys.modules, vanished.__name__, vanished)
        path = tmp_path / "census.store"
        store = ArtifactStore(path)
        censuses = {
            root: subgraph_census(publication_graph, root, config)
            for root in (0, 1)
        }
        for root, census in censuses.items():
            _put(store, publication_graph, config, root, census)
        store.put("fp", "other", (), Gone())
        store.save()
        monkeypatch.delitem(sys.modules, vanished.__name__)

        with fresh_telemetry() as telemetry:
            with captured_store_warnings() as records:
                reloaded = ArtifactStore(path)
            assert telemetry.counters["cache/load_dropped"] == 1
        assert reloaded.load_status == "loaded"
        assert len(reloaded) == len(censuses)
        for root, census in censuses.items():
            assert stored_census(reloaded, publication_graph, config, root) == census
        assert len(records) == 1
        assert "no longer imports" in records[0].getMessage()

    def test_garbage_text_warns(self, tmp_path):
        """Text garbage parses as protocol-0 opcodes raising ValueError."""
        path = tmp_path / "census.store"
        path.write_bytes(b"garbage\n")
        with captured_store_warnings() as records:
            assert ArtifactStore(path).load_status == "corrupt"
        assert len(records) == 1

    def test_truncated_pickle_warns(self, publication_graph, config, tmp_path):
        path = tmp_path / "census.store"
        store = ArtifactStore(path)
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        store.save()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with captured_store_warnings() as records:
            assert ArtifactStore(path).load_status == "corrupt"
        assert len(records) == 1

    def test_version_mismatch_warns_and_ignores(self, tmp_path):
        path = tmp_path / "census.store"
        path.write_bytes(
            pickle.dumps({"version": 999, "entries": {("fp", (), 0): Counter()}})
        )
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "version-mismatch"
        assert len(store) == 0
        assert len(records) == 1
        assert "version" in records[0].getMessage()

    def test_legacy_payload_is_version_mismatch(self, tmp_path):
        """Pre-versioned (a bare dict) and v1 census-only files are
        ignored, not crashed on."""
        path = tmp_path / "census.store"
        for payload in (
            {("fp", (), 0): Counter({"k": 1})},
            {"version": 1, "entries": {("fp", (), 0): Counter({"k": 1})}},
        ):
            path.write_bytes(pickle.dumps(payload))
            with captured_store_warnings() as records:
                store = ArtifactStore(path)
            assert store.load_status == "version-mismatch"
            assert len(store) == 0
            assert len(records) == 1


class TestEviction:
    def test_fifo_eviction_beyond_bound(self, publication_graph, config):
        store = ArtifactStore(max_entries=2)
        for root in (0, 1, 2):
            _put(store, publication_graph, config, root, Counter({"k": root}))
        assert len(store) == 2
        assert store.evictions == 1
        # Oldest entry (root 0) is gone; newest two survive.
        assert stored_census(store, publication_graph, config, 0) is None
        assert stored_census(store, publication_graph, config, 1) == Counter({"k": 1})
        assert stored_census(store, publication_graph, config, 2) == Counter({"k": 2})

    def test_overwrite_does_not_evict(self, publication_graph, config):
        store = ArtifactStore(max_entries=2)
        _put(store, publication_graph, config, 0, Counter({"k": 1}))
        _put(store, publication_graph, config, 1, Counter({"k": 2}))
        _put(store, publication_graph, config, 0, Counter({"k": 3}))
        assert store.evictions == 0
        assert stored_census(store, publication_graph, config, 0) == Counter({"k": 3})

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ArtifactStore(max_entries=0)
