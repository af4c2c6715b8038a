"""Randomized parity + format suite for the out-of-core mmap graph.

The contract under test mirrors the engine-parity suite: an
:class:`~repro.core.mmap_graph.MmapGraph` opened from a ``.hmg`` file
must be *bit-identical* to its dict-backed twin under every census
engine, worker count, and config axis — masked roots, hub cut-offs, the
sampled estimator at a fixed ``(budget, seed)`` — because the storage
layer is an optimisation, not an approximation.  The suite also pins
the format-level guarantees (corrupt/truncated files fail loudly, the
buffered fallback works without ``mmap``) and the external-sort
ingester's fingerprint/adjacency parity with ``read_edgelist``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import struct

import numpy as np
import pytest

import repro.core.mmap_graph as mmap_graph_module
from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import FlatGraph, HeteroGraph, MutableHeteroGraph
from repro.core.labels import LabelSet
from repro.core.mmap_graph import HMG_MAGIC, MmapGraph, _PREAMBLE
from repro.core.sampled import SampledCensusConfig
from repro.dist.remote import _graph_blob
from repro.exceptions import FeatureError, GraphError
from repro.io.edgelist import read_edgelist, write_edgelist
from repro.io.stream import (
    DEFAULT_CHUNK_EDGES,
    build_mmap_graph,
    census_stream,
    write_mmap_graph,
)
from repro.net.protocol import decode_blob
from repro.runtime.context import RunContext
from repro.runtime.store import ArtifactStore
from tests.oracles import reference_census

#: Expected censuses per parity case: the library's, or the oracle's.
CENSUS = {"fast": subgraph_census, "reference": reference_census}

#: sha256 of the ``.hmg`` ingested from ``shuffled_edgelist(random_hetero_graph(81), ..., 81)``.
INGEST_SHA256 = "2d749d544d91da8ce270edda767997905bd810cba47a8f6262251d037d12d3fa"


def random_hetero_graph(seed: int) -> HeteroGraph:
    """A small random labelled graph; size and density vary with the seed."""
    rng = random.Random(seed)
    num_labels = rng.randint(2, 4)
    labels = "ABCD"[:num_labels]
    n = rng.randint(10, 26)
    nodes = {f"n{i}": rng.choice(labels) for i in range(n)}
    p = rng.uniform(0.10, 0.30)
    edges = [
        (f"n{i}", f"n{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges = [("n0", "n1")]
    return HeteroGraph.from_edges(nodes, edges)


def hubby_graph() -> HeteroGraph:
    """A star-of-stars whose hub pruning must match across storages."""
    nodes = {"hub": "A"}
    edges = []
    for i in range(8):
        spoke = f"s{i}"
        nodes[spoke] = "B"
        edges.append(("hub", spoke))
        for j in range(3):
            leaf = f"s{i}_l{j}"
            nodes[leaf] = "C"
            edges.append((spoke, leaf))
    return HeteroGraph.from_edges(nodes, edges)


def shuffled_edgelist(graph: HeteroGraph, tmp_path, seed: int):
    """``graph`` as an edge list whose edges come in a shuffled order and
    orientation, unlike :func:`write_edgelist`'s row order."""
    rng = random.Random(seed)
    edges = [
        (graph.node_id(u), graph.node_id(v)) if rng.random() < 0.5
        else (graph.node_id(v), graph.node_id(u))
        for u, v in graph.edges()
    ]
    rng.shuffle(edges)
    path = tmp_path / f"shuffled{seed}.edges"
    lines = [
        f"v {node} {graph.labelset.name(graph.label_of(i))}"
        for i, node in enumerate(graph.node_ids)
    ]
    path.write_text("\n".join(lines + [f"e {u} {v}" for u, v in edges]) + "\n")
    return path


def as_mmap(graph: HeteroGraph, tmp_path, name: str = "g.hmg") -> MmapGraph:
    return MmapGraph(write_mmap_graph(graph, tmp_path / name))


def shuffled_roots(graph: HeteroGraph, seed: int) -> list[int]:
    rng = random.Random(seed)
    roots = list(range(graph.num_nodes))
    rng.shuffle(roots)
    roots = roots[: max(4, graph.num_nodes // 2)]
    return roots + [roots[0], roots[2], roots[0]]  # duplicates on purpose


# ---------------------------------------------------------------------------
# roundtrip + format validation
# ---------------------------------------------------------------------------


class TestRoundtrip:
    def test_structure_matches_dict_graph(self, tmp_path):
        graph = random_hetero_graph(3)
        mg = as_mmap(graph, tmp_path)
        assert mg.storage_kind == "mmap"
        assert mg.mmap_backed is True
        assert mg.num_nodes == graph.num_nodes
        assert mg.num_edges == graph.num_edges
        assert mg.labelset.names == graph.labelset.names
        assert mg.fingerprint() == graph.fingerprint()
        np.testing.assert_array_equal(mg.labels, graph.labels)
        np.testing.assert_array_equal(mg.degrees(), graph.degrees())
        np.testing.assert_array_equal(mg.label_counts(), graph.label_counts())
        for i in range(graph.num_nodes):
            assert list(mg.neighbors(i)) == list(graph.neighbors(i))
            assert mg.label_of(i) == graph.label_of(i)
            assert mg.degree(i) == graph.degree(i)
            assert mg.node_id(i) == graph.node_id(i)
        assert list(mg.edges()) == list(graph.edges())
        assert mg.node_ids == graph.node_ids

    def test_index_lookup_and_unknowns(self, tmp_path):
        graph = random_hetero_graph(4)
        mg = as_mmap(graph, tmp_path)
        for node_id in graph.node_ids:
            assert mg.index(node_id) == graph.index(node_id)
        with pytest.raises(GraphError, match="unknown node"):
            mg.index("nope")

    def test_flat_views_yield_plain_ints(self, tmp_path):
        """Census bit-identity rests on Counter keys built from ints."""
        graph = random_hetero_graph(5)
        flat = as_mmap(graph, tmp_path).flat()
        assert type(flat.labels[0]) is int
        assert type(flat.indptr[1]) is int
        assert type(flat.neighbors[0]) is int

    def test_has_edge(self, tmp_path):
        graph = random_hetero_graph(6)
        mg = as_mmap(graph, tmp_path)
        u, v = next(iter(graph.edges()))
        assert mg.has_edge(u, v) and mg.has_edge(v, u)
        non_adjacent = next(
            (a, b)
            for a in range(graph.num_nodes)
            for b in range(a + 1, graph.num_nodes)
            if not graph.has_edge(a, b)
        )
        assert not mg.has_edge(*non_adjacent)

    def test_without_stored_ids(self, tmp_path):
        graph = random_hetero_graph(7)
        path = write_mmap_graph(graph, tmp_path / "noids.hmg", store_ids=False)
        mg = MmapGraph(path)
        assert mg.node_id(2) == 2  # indices stand in for ids
        assert mg.index(2) == 2
        with pytest.raises(GraphError, match="without external node ids"):
            mg.index("n2")
        with pytest.raises(GraphError, match="out of range"):
            mg.node_id(graph.num_nodes)
        # The census contract is untouched by dropping the ids.
        config = CensusConfig(max_edges=3)
        for root in range(graph.num_nodes):
            assert subgraph_census(mg, root, config) == subgraph_census(
                graph, root, config
            )

    def test_context_manager_closes(self, tmp_path):
        graph = random_hetero_graph(8)
        with as_mmap(graph, tmp_path) as mg:
            assert mg.degree(0) == graph.degree(0)
        assert mg._buffer is None

    def test_pickle_ships_only_the_path(self, tmp_path):
        graph = random_hetero_graph(9)
        mg = as_mmap(graph, tmp_path)
        payload = pickle.dumps(mg)
        assert len(payload) < 200  # a path, not a graph
        clone = pickle.loads(payload)
        assert clone.path == mg.path
        assert clone.fingerprint() == graph.fingerprint()
        config = CensusConfig(max_edges=3)
        assert subgraph_census(clone, 0, config) == subgraph_census(
            graph, 0, config
        )


def _valid_file(tmp_path, name="v.hmg", seed=11):
    graph = random_hetero_graph(seed)
    return write_mmap_graph(graph, tmp_path / name)


def _rewrite_header(path, mutate) -> None:
    """Load the header JSON, apply ``mutate``, re-pad to the same length."""
    data = bytearray(path.read_bytes())
    _magic, header_len = _PREAMBLE.unpack_from(data, 0)
    start = _PREAMBLE.size
    header = json.loads(bytes(data[start: start + header_len]).decode("utf-8"))
    mutate(header)
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    assert len(body) <= header_len
    data[start: start + header_len] = body + b" " * (header_len - len(body))
    path.write_bytes(bytes(data))


class TestCorruptFiles:
    def test_file_smaller_than_preamble(self, tmp_path):
        path = tmp_path / "tiny.hmg"
        path.write_bytes(b"HMG")
        with pytest.raises(GraphError, match="truncated"):
            MmapGraph(path)

    def test_bad_magic(self, tmp_path):
        path = _valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAGRPH"
        path.write_bytes(bytes(data))
        with pytest.raises(GraphError, match="not an .hmg graph file"):
            MmapGraph(path)

    def test_header_overruns_file(self, tmp_path):
        path = tmp_path / "overrun.hmg"
        path.write_bytes(_PREAMBLE.pack(HMG_MAGIC, 1 << 20) + b"{}")
        with pytest.raises(GraphError, match="truncated"):
            MmapGraph(path)

    def test_corrupt_header_json(self, tmp_path):
        path = _valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[_PREAMBLE.size] = ord("X")  # breaks the opening brace
        path.write_bytes(bytes(data))
        with pytest.raises(GraphError, match="corrupt .hmg header"):
            MmapGraph(path)

    def test_missing_header_keys(self, tmp_path):
        path = _valid_file(tmp_path)
        _rewrite_header(path, lambda header: header.pop("arrays"))
        with pytest.raises(GraphError, match="missing keys"):
            MmapGraph(path)

    def test_unsupported_version(self, tmp_path):
        path = _valid_file(tmp_path)
        _rewrite_header(path, lambda header: header.update(version=99))
        with pytest.raises(GraphError, match="unsupported .hmg version 99"):
            MmapGraph(path)

    def test_truncated_sections(self, tmp_path):
        path = _valid_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphError, match="truncated|spans bytes"):
            MmapGraph(path)

    def test_section_count_mismatch(self, tmp_path):
        path = _valid_file(tmp_path)

        def shrink(header):
            offset, count = header["arrays"]["labels"]
            header["arrays"]["labels"] = [offset, count - 1]

        _rewrite_header(path, shrink)
        with pytest.raises(GraphError, match="section 'labels'"):
            MmapGraph(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot open"):
            MmapGraph(tmp_path / "absent.hmg")


class TestMmapFallback:
    def test_buffered_fallback_without_mmap(self, tmp_path, monkeypatch):
        graph = random_hetero_graph(12)
        path = write_mmap_graph(graph, tmp_path / "fb.hmg")
        monkeypatch.setattr(mmap_graph_module, "_mmap_module", None)
        mg = MmapGraph(path)
        assert mg.mmap_backed is False
        assert mg.fingerprint() == graph.fingerprint()
        config = CensusConfig(max_edges=3, mask_start_label=True)
        for root in range(graph.num_nodes):
            assert subgraph_census(mg, root, config) == subgraph_census(
                graph, root, config
            )


# ---------------------------------------------------------------------------
# census parity: mmap == dict, bit for bit
# ---------------------------------------------------------------------------


class TestCensusParity:
    @pytest.mark.parametrize("engine", ("fast", "reference"))
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_parity(self, tmp_path, engine, seed):
        graph = random_hetero_graph(seed)
        mg = as_mmap(graph, tmp_path)
        rng = random.Random(seed + 500)
        config = CensusConfig(
            max_edges=3,
            max_degree=rng.choice([None, 3, 5]),
            mask_start_label=seed % 3 == 0,
            group_by_label=rng.random() < 0.5,
        )
        for root in shuffled_roots(graph, seed):
            expected = CENSUS[engine](graph, root, config)
            assert subgraph_census(mg, root, config) == expected

    @pytest.mark.parametrize("max_degree", (None, 2, 4))
    def test_hub_graph_parity(self, tmp_path, max_degree):
        graph = hubby_graph()
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3, max_degree=max_degree)
        for root in range(graph.num_nodes):
            assert subgraph_census(mg, root, config) == subgraph_census(
                graph, root, config
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_parity_at_fixed_budget_and_seed(self, tmp_path, seed):
        graph = random_hetero_graph(seed + 40)
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3)
        sampled = SampledCensusConfig(budget=64, seed=seed)
        for root in shuffled_roots(graph, seed):
            expected = subgraph_census(
                graph, root, config, engine="sampled", sampled=sampled
            )
            got = subgraph_census(
                mg, root, config, engine="sampled", sampled=sampled
            )
            assert got == expected

    @pytest.mark.parametrize("n_jobs", (1, 2))
    def test_census_many_parity(self, tmp_path, n_jobs):
        graph = random_hetero_graph(21)
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3, max_degree=4, mask_start_label=True)
        roots = shuffled_roots(graph, 21)
        expected = SubgraphFeatureExtractor(
            config, ctx=RunContext(n_jobs=1)
        ).census_many(graph, roots)
        got = SubgraphFeatureExtractor(
            config, ctx=RunContext(n_jobs=n_jobs)
        ).census_many(mg, roots)
        assert got == expected


# ---------------------------------------------------------------------------
# external-sort ingestion
# ---------------------------------------------------------------------------


class TestBuildMmapGraph:
    @pytest.mark.parametrize("seed", range(4))
    def test_ingest_matches_read_edgelist(self, tmp_path, seed):
        graph = random_hetero_graph(seed + 60)
        edgelist = tmp_path / "g.edges"
        write_edgelist(graph, edgelist)
        # chunk_edges tiny on purpose: forces several sort runs and
        # merge blocks, so the block merge is actually exercised.
        path = build_mmap_graph(edgelist, tmp_path / "g.hmg", chunk_edges=4)
        mg = MmapGraph(path)
        twin = read_edgelist(edgelist)
        assert mg.fingerprint() == twin.fingerprint() == graph.fingerprint()
        assert mg.node_ids == twin.node_ids
        for i in range(twin.num_nodes):
            assert list(mg.neighbors(i)) == list(twin.neighbors(i))
        config = CensusConfig(max_edges=3, mask_start_label=seed % 2 == 0)
        for root in shuffled_roots(twin, seed):
            assert subgraph_census(mg, root, config) == subgraph_census(
                twin, root, config
            )

    @pytest.mark.parametrize("seed", range(2))
    def test_line_embedding_matches_read_edgelist(self, tmp_path, seed):
        # Ingest numbers edges in file order; LINE samples edges by their
        # position in edges(), which must not depend on that numbering.
        from repro.embeddings.line import LINE

        edgelist = shuffled_edgelist(random_hetero_graph(seed + 70), tmp_path, seed)
        mg = MmapGraph(build_mmap_graph(edgelist, tmp_path / "g.hmg", chunk_edges=4))
        twin = read_edgelist(edgelist)
        assert list(mg.flat().edge_u) != [u for u, _ in twin.edges()]
        assert list(mg.edges()) == list(twin.edges())
        model = dict(dim=8, num_samples=400, batch_size=16, seed=seed)
        np.testing.assert_array_equal(
            LINE(**model).fit(mg).embedding_, LINE(**model).fit(twin).embedding_
        )

    def test_explicit_labelset_is_respected(self, tmp_path):
        graph = random_hetero_graph(65)
        edgelist = tmp_path / "g.edges"
        write_edgelist(graph, edgelist)
        labelset = LabelSet(("Z",) + graph.labelset.names)
        path = build_mmap_graph(edgelist, tmp_path / "g.hmg", labelset=labelset)
        mg = MmapGraph(path)
        assert mg.labelset.names == labelset.names
        twin = read_edgelist(edgelist, labelset=labelset)
        assert mg.fingerprint() == twin.fingerprint()

    def test_unknown_label_with_explicit_labelset(self, tmp_path):
        edgelist = tmp_path / "bad.edges"
        edgelist.write_text("v a A\nv b B\ne a b\n")
        with pytest.raises(GraphError, match=r"bad.edges:2: label 'B'"):
            build_mmap_graph(
                edgelist, tmp_path / "bad.hmg", labelset=LabelSet(("A",))
            )

    def test_duplicate_node_reports_line(self, tmp_path):
        edgelist = tmp_path / "dup.edges"
        edgelist.write_text("v a A\nv a A\n")
        with pytest.raises(GraphError, match=r"dup.edges:2: duplicate node 'a'"):
            build_mmap_graph(edgelist, tmp_path / "dup.hmg")

    def test_undeclared_endpoint_reports_line(self, tmp_path):
        edgelist = tmp_path / "und.edges"
        edgelist.write_text("v a A\ne a ghost\n")
        with pytest.raises(GraphError, match=r"und.edges:2: .*'ghost'"):
            build_mmap_graph(edgelist, tmp_path / "und.hmg")

    def test_self_loop_reports_line(self, tmp_path):
        edgelist = tmp_path / "loop.edges"
        edgelist.write_text("v a A\nv b B\ne a a\n")
        with pytest.raises(GraphError, match=r"loop.edges:3: self loop"):
            build_mmap_graph(edgelist, tmp_path / "loop.hmg")

    def test_malformed_line_reports_line(self, tmp_path):
        edgelist = tmp_path / "mal.edges"
        edgelist.write_text("v a A\nxyzzy\n")
        with pytest.raises(GraphError, match=r"mal.edges:2: malformed line"):
            build_mmap_graph(edgelist, tmp_path / "mal.hmg")

    def test_duplicate_edge_detected_in_merge(self, tmp_path):
        edgelist = tmp_path / "dupe.edges"
        edgelist.write_text("v a A\nv b B\ne a b\ne b a\n")
        with pytest.raises(GraphError, match=r"duplicate edge"):
            build_mmap_graph(edgelist, tmp_path / "dupe.hmg")

    def test_duplicate_edge_across_runs(self, tmp_path):
        # chunk_edges=1 puts each copy in its own sort run; the merge
        # still has to meet them side by side.
        edgelist = tmp_path / "dupe.edges"
        edgelist.write_text("v a A\nv b B\nv c A\ne a b\ne a c\ne b a\n")
        with pytest.raises(GraphError, match=r"duplicate edge \('a', 'b'\)"):
            build_mmap_graph(edgelist, tmp_path / "dupe.hmg", chunk_edges=1)

    def _assert_ingests_like_read_edgelist(self, edgelist, out, **kwargs):
        mg = MmapGraph(build_mmap_graph(edgelist, out, **kwargs))
        twin = read_edgelist(edgelist)
        assert mg.fingerprint() == twin.fingerprint()
        assert mg.node_ids == twin.node_ids
        assert mg.num_edges == twin.num_edges
        np.testing.assert_array_equal(mg.degrees(), twin.degrees())
        for node in range(twin.num_nodes):
            assert list(mg.neighbors(node)) == list(twin.neighbors(node))
        assert list(mg.edges()) == list(twin.edges())
        return mg

    def test_nodes_and_no_edges(self, tmp_path):
        edgelist = tmp_path / "bare.edges"
        edgelist.write_text("v a A\nv b B\nv c A\n")
        mg = self._assert_ingests_like_read_edgelist(edgelist, tmp_path / "bare.hmg")
        assert mg.num_nodes == 3 and mg.num_edges == 0

    def test_isolated_nodes_between_edge_lines(self, tmp_path):
        edgelist = tmp_path / "iso.edges"
        edgelist.write_text(
            "v a A\nv b B\ne a b\nv c C\nv d A\ne d b\nv e B\ne a d\nv f C\n"
        )
        for chunk_edges in (1, 2, DEFAULT_CHUNK_EDGES):
            mg = self._assert_ingests_like_read_edgelist(
                edgelist, tmp_path / f"iso{chunk_edges}.hmg", chunk_edges=chunk_edges
            )
            assert [mg.degree(i) for i in range(6)] == [2, 2, 0, 2, 0, 0]

    def test_hub_row_longer_than_a_merge_block(self, tmp_path):
        nodes = {"hub": "A"} | {f"l{i}": "BC"[i % 2] for i in range(40)}
        edges = [("hub", f"l{i}") for i in range(40)]
        edges += [(f"l{i}", f"l{i + 1}") for i in range(0, 39, 3)]
        edgelist = shuffled_edgelist(HeteroGraph.from_edges(nodes, edges), tmp_path, 3)
        mg = self._assert_ingests_like_read_edgelist(
            edgelist, tmp_path / "hub.hmg", chunk_edges=1
        )
        assert mg.degree(mg.index("hub")) == 40

    def test_bytes_do_not_depend_on_chunk_edges(self, tmp_path):
        edgelist = shuffled_edgelist(random_hetero_graph(81), tmp_path, 81)
        blobs = [
            build_mmap_graph(edgelist, tmp_path / f"c{chunk}.hmg", chunk_edges=chunk).read_bytes()
            for chunk in (1, 4, DEFAULT_CHUNK_EDGES)
        ]
        assert blobs[0] == blobs[1] == blobs[2]
        # Recorded from the heap-merge ingester this one replaced.
        assert hashlib.sha256(blobs[0]).hexdigest() == INGEST_SHA256

    def test_rejects_bad_chunk_edges(self, tmp_path):
        edgelist = tmp_path / "g.edges"
        edgelist.write_text("v a A\n")
        with pytest.raises(GraphError, match="chunk_edges"):
            build_mmap_graph(edgelist, tmp_path / "g.hmg", chunk_edges=0)

    def test_failed_ingest_leaves_no_output(self, tmp_path):
        edgelist = tmp_path / "dupe.edges"
        edgelist.write_text("v a A\nv b B\ne a b\ne b a\n")
        out = tmp_path / "atomic.hmg"
        with pytest.raises(GraphError):
            build_mmap_graph(edgelist, out)
        assert not out.exists()
        assert not list(tmp_path.glob("atomic.hmg.*.tmp"))


# ---------------------------------------------------------------------------
# streaming census driver
# ---------------------------------------------------------------------------


class TestCensusStream:
    def test_parity_and_order(self, tmp_path):
        graph = random_hetero_graph(30)
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3)
        roots = shuffled_roots(graph, 30)
        expected = SubgraphFeatureExtractor(config).census_many(graph, roots)
        pairs = list(census_stream(mg, iter(roots), config, batch_size=3))
        assert [root for root, _ in pairs] == roots
        assert [census for _, census in pairs] == expected

    def test_rejects_bad_batch_size(self):
        graph = random_hetero_graph(31)
        with pytest.raises(FeatureError, match="batch_size"):
            list(census_stream(graph, [0], batch_size=0))

    def test_spills_into_artifact_store(self, tmp_path):
        graph = random_hetero_graph(32)
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3)
        store = ArtifactStore()
        ctx = RunContext(store=store)
        roots = list(range(graph.num_nodes))
        cold = list(census_stream(mg, roots, config, batch_size=4, ctx=ctx))
        assert store.stage_entries("census") == graph.num_nodes
        hits_before = store.hits
        warm = list(census_stream(mg, roots, config, batch_size=4, ctx=ctx))
        assert warm == cold
        assert store.hits > hits_before  # second pass served from the store

    def test_parallel_spawn_workers_reopen_the_mapping(self, tmp_path):
        graph = random_hetero_graph(33)
        mg = as_mmap(graph, tmp_path)
        config = CensusConfig(max_edges=3)
        roots = list(range(graph.num_nodes))
        expected = SubgraphFeatureExtractor(config).census_many(graph, roots)
        pairs = list(
            census_stream(
                mg,
                roots,
                config,
                batch_size=len(roots),
                ctx=RunContext(n_jobs=2),
                mp_context="spawn",
            )
        )
        assert [census for _, census in pairs] == expected


# ---------------------------------------------------------------------------
# flat-graph contract plumbing
# ---------------------------------------------------------------------------


def _mutated_twin(graph: FlatGraph, tmp_path) -> MutableHeteroGraph:
    """``graph``'s structure reached through writes: some edges removed
    and re-added in another order, so edge ids are permuted."""
    mutable = MutableHeteroGraph.from_graph(graph)
    ids = graph.node_ids
    cut = random.Random(1).sample(sorted(graph.edges()), 6)
    for u, v in cut:
        mutable.remove_edge(ids[u], ids[v])
    for u, v in reversed(cut):
        mutable.add_edge(ids[v], ids[u])
    return mutable


STORAGES = {
    "hetero": lambda graph, tmp_path: graph,
    "worker-flat": lambda graph, tmp_path: decode_blob(_graph_blob(graph)),
    "mmap-written": as_mmap,
    "mmap-ingested": lambda graph, tmp_path: MmapGraph(
        build_mmap_graph(
            shuffled_edgelist(graph, tmp_path, 0), tmp_path / "i.hmg", chunk_edges=4
        )
    ),
    "mutable": _mutated_twin,
    "mutable-from-mmap": lambda graph, tmp_path: _mutated_twin(
        as_mmap(graph, tmp_path), tmp_path
    ),
}


class TestStorageParity:
    """Every storage answers every shared accessor like its in-memory twin."""

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("seed", range(3))
    def test_accessors_agree(self, tmp_path, storage, seed):
        graph = random_hetero_graph(seed + 80)
        other = STORAGES[storage](graph, tmp_path)
        assert other.num_nodes == graph.num_nodes
        assert other.num_edges == graph.num_edges
        assert other.labelset.names == graph.labelset.names
        assert other.fingerprint() == graph.fingerprint()
        np.testing.assert_array_equal(other.labels, graph.labels)
        np.testing.assert_array_equal(other.degrees(), graph.degrees())
        np.testing.assert_array_equal(other.label_counts(), graph.label_counts())
        for label in range(len(graph.labelset)):
            np.testing.assert_array_equal(
                other.nodes_with_label(label), graph.nodes_with_label(label)
            )
        for i in range(graph.num_nodes):
            assert type(other.label_of(i)) is int and other.label_of(i) == graph.label_of(i)
            assert other.degree(i) == graph.degree(i)
            assert list(other.neighbors(i)) == list(graph.neighbors(i))
        assert list(other.edges()) == list(graph.edges())
        clone = pickle.loads(pickle.dumps(other))  # how pool workers get it
        assert clone.fingerprint() == graph.fingerprint()
        assert list(clone.edges()) == list(graph.edges())
        edges = set(graph.edges())
        for u in range(graph.num_nodes):
            for v in range(graph.num_nodes):
                adjacent = (min(u, v), max(u, v)) in edges
                assert other.has_edge(u, v) is adjacent, (u, v)


class TestStorageKinds:
    def test_storage_kind_markers(self, tmp_path):
        graph = random_hetero_graph(50)
        assert graph.storage_kind == "dict"
        assert FlatGraph.storage_kind == "flat"
        assert as_mmap(graph, tmp_path).storage_kind == "mmap"

    def test_flat_graph_shares_the_fingerprint(self):
        graph = random_hetero_graph(51)
        flat_twin = FlatGraph(graph.flat(), graph.labelset)
        assert flat_twin.fingerprint() == graph.fingerprint()
        assert flat_twin.num_nodes == graph.num_nodes
        assert flat_twin.num_edges == graph.num_edges
        config = CensusConfig(max_edges=3)
        for root in range(graph.num_nodes):
            assert subgraph_census(flat_twin, root, config) == subgraph_census(
                graph, root, config
            )

    def test_storage_annotation_in_telemetry(self, tmp_path):
        from repro.obs.telemetry import fresh_telemetry

        graph = random_hetero_graph(52)
        mg = as_mmap(graph, tmp_path)
        with fresh_telemetry() as telemetry:
            subgraph_census(mg, 0, CensusConfig(max_edges=2))
            assert telemetry.annotations.get("census/storage") == "mmap"
        with fresh_telemetry() as telemetry:
            subgraph_census(graph, 0, CensusConfig(max_edges=2))
            assert telemetry.annotations.get("census/storage") == "dict"
