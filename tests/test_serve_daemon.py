"""Socket-level tests for the serving daemon.

Each test runs a real :class:`ServeDaemon` on a unix socket inside one
``asyncio.run()`` event loop (no pytest-asyncio in the toolchain) and
speaks the newline-framed JSON protocol over
``asyncio.open_unix_connection`` — exercising the full path a production
client sees: framing, typed errors, shedding, timeouts, and shutdown.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.net import NetError, decode_message, open_connection
from repro.obs import fresh_telemetry
from repro.serve import FeatureService, ServeConfig, ServeDaemon
from repro.serve.daemon import MAX_LINE_BYTES
from repro.serve.protocol import ERROR_CODES, require


def _graph(seed: int = 0):
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes={"a": 12, "b": 10, "c": 8},
        affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
        mean_degree=3.0,
        rng=np.random.default_rng(seed),
    )


def _service(**kwargs) -> FeatureService:
    service = FeatureService(_graph(), ServeConfig(emax=3, **kwargs))
    service.warm()
    return service


async def _send(reader, writer, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    line = await reader.readline()
    assert line, "daemon closed the connection unexpectedly"
    return json.loads(line)


async def _with_daemon(daemon: ServeDaemon, scenario) -> None:
    """Run ``scenario(daemon)`` against a live daemon, then stop it."""
    ready = asyncio.Event()
    task = asyncio.create_task(daemon.run(ready))
    await ready.wait()
    try:
        await scenario()
    finally:
        daemon.stop()
        await task


def _run(daemon: ServeDaemon, scenario) -> None:
    asyncio.run(_with_daemon(daemon, scenario))


class TestProtocolRoundTrips:
    def test_read_ops(self, tmp_path):
        service = _service()
        node = service.graph.node_ids[0]
        daemon = ServeDaemon(service, tmp_path / "s.sock")

        async def scenario():
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            response = await _send(reader, writer, {"id": 1, "op": "ping"})
            assert response == {"id": 1, "ok": True, "result": {"pong": True}}

            response = await _send(
                reader, writer, {"id": 2, "op": "features", "node": node}
            )
            assert response["ok"]
            result = response["result"]
            assert result["node"] == str(node)
            assert result["total"] == sum(result["counts"].values())

            response = await _send(
                reader, writer, {"id": 3, "op": "rank", "node": node, "k": 3}
            )
            assert response["ok"]
            assert len(response["result"]["top"]) == 3
            scores = [item["score"] for item in response["result"]["top"]]
            assert scores == sorted(scores, reverse=True)

            response = await _send(
                reader, writer, {"id": 4, "op": "label", "node": node}
            )
            assert response["ok"]
            assert response["result"]["predicted"] in service.graph.labelset.names

            response = await _send(reader, writer, {"id": 5, "op": "stats"})
            assert response["ok"]
            assert response["result"]["graph"]["nodes"] == service.graph.num_nodes
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)
        assert daemon.requests == 5

    def test_write_ops_round_trip(self, tmp_path):
        service = _service()
        graph = service.graph
        ids = graph.node_ids
        edges = {(u, v) for u, v in graph.edges()}
        u, v = next(
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if (u, v) not in edges
        )
        before = graph.num_edges
        daemon = ServeDaemon(service, tmp_path / "s.sock")

        async def scenario():
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            response = await _send(
                reader, writer,
                {"id": 1, "op": "add_edge", "u": ids[u], "v": ids[v]},
            )
            assert response["ok"]
            assert response["result"]["num_edges"] == before + 1
            assert response["result"]["repaired_roots"] > 0
            response = await _send(
                reader, writer,
                {"id": 2, "op": "remove_edge", "u": ids[u], "v": ids[v]},
            )
            assert response["ok"]
            assert response["result"]["num_edges"] == before
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)

    def test_typed_errors(self, tmp_path):
        service = _service()
        node = service.graph.node_ids[0]
        daemon = ServeDaemon(service, tmp_path / "s.sock")

        async def scenario():
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            cases = [
                (b"not json\n", "bad_request"),
                (b'["a", "list"]\n', "bad_request"),
                (b'{"op": "no_such_op"}\n', "unknown_op"),
                (b'{"op": "features"}\n', "bad_request"),  # missing node
                (b'{"op": "features", "node": "missing"}\n', "unknown_node"),
                (b'{"op": "rank", "node": "%s", "k": 0}\n'
                 % str(node).encode(), "bad_request"),
                (b'{"op": "add_edge", "u": "%s", "v": "%s"}\n'
                 % (str(node).encode(), str(node).encode()), "graph_error"),
            ]
            for payload, expected_code in cases:
                writer.write(payload)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == expected_code, payload
                assert expected_code in ERROR_CODES
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)

    def test_oversized_line_drops_connection(self, tmp_path):
        daemon = ServeDaemon(_service(), tmp_path / "s.sock")

        async def scenario():
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            writer.write(b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES)
            try:
                await writer.drain()
                line = await reader.readline()
            except (ConnectionResetError, BrokenPipeError):
                line = b""  # the daemon tore the connection down mid-write
            assert line == b""  # dropped rather than buffered without bound
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)


def _absent_pairs(graph, k: int) -> list[tuple[int, int]]:
    """The first ``k`` node pairs without an edge: valid ``add_edge`` writes."""
    edges = set(graph.edges())
    return [
        (u, v)
        for u in range(graph.num_nodes)
        for v in range(u + 1, graph.num_nodes)
        if (u, v) not in edges
    ][:k]


def _add_request(graph, pair, request_id) -> dict:
    ids = graph.node_ids
    return {"id": request_id, "op": "add_edge", "u": ids[pair[0]], "v": ids[pair[1]]}


class TestDegradation:
    """Shedding and timeouts apply to writer-thread jobs: edge writes and
    reads that must track their root first.  Reads of tracked roots answer
    on the event loop, so these tests slow writes rather than reads."""

    def test_shedding_under_load(self, tmp_path):
        service = _service()
        inner = service.handle

        def slow_handle(request):
            if request["op"] == "add_edge":
                time.sleep(0.4)
            return inner(request)

        service.handle = slow_handle
        first, second = _absent_pairs(service.graph, 2)
        node = service.graph.node_ids[0]
        daemon = ServeDaemon(service, tmp_path / "s.sock", max_inflight=1)

        async def scenario():
            r1, w1 = await asyncio.open_unix_connection(str(daemon.socket_path))
            r2, w2 = await asyncio.open_unix_connection(str(daemon.socket_path))
            slow = asyncio.create_task(
                _send(r1, w1, _add_request(service.graph, first, 1))
            )
            await asyncio.sleep(0.15)  # let the slow write occupy the slot
            shed = await _send(r2, w2, _add_request(service.graph, second, 2))
            assert shed["ok"] is False
            assert shed["error"]["code"] == "overloaded"
            # A read of a tracked root is no writer job: never shed.
            read = await _send(r2, w2, {"id": 3, "op": "features", "node": node})
            assert read["ok"] is True
            ok = await slow
            assert ok["ok"] is True
            w1.close()
            w2.close()

        with fresh_telemetry() as telemetry:
            _run(daemon, scenario)
            assert daemon.shed_requests == 1
            assert telemetry.as_dict()["counters"]["serve/shed_requests"] == 1

    def test_timeout_then_recovery(self, tmp_path):
        service = _service()
        inner = service.handle
        slowed = []

        def slow_handle(request):
            if request["op"] == "add_edge" and not slowed:
                slowed.append(request["id"])
                time.sleep(0.5)
            return inner(request)

        service.handle = slow_handle
        first, second = _absent_pairs(service.graph, 2)
        node = service.graph.node_ids[0]
        daemon = ServeDaemon(service, tmp_path / "s.sock", request_timeout=0.1)

        async def scenario():
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            response = await _send(reader, writer, _add_request(service.graph, first, 1))
            assert response["ok"] is False
            assert response["error"]["code"] == "timeout"
            # The orphaned write still holds the writer thread; a read of a
            # tracked root answers on the loop meanwhile.
            response = await _send(
                reader, writer, {"id": 2, "op": "features", "node": node}
            )
            assert response["ok"] is True
            assert daemon.orphaned == 1
            for _ in range(100):
                if daemon.orphaned == 0:
                    break
                await asyncio.sleep(0.05)
            assert daemon.orphaned == 0
            # Recovered: the next write runs on the freed writer thread.
            response = await _send(reader, writer, _add_request(service.graph, second, 3))
            assert response["ok"] is True
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)
        assert daemon.timeouts == 1

    def test_timed_out_write_never_overlaps_next_write(self, tmp_path):
        """A straggling mutation thread must finish before the next one runs."""
        service = _service()
        inner = service.handle
        active = {"writers": 0, "max": 0}

        def slow_write_handle(request):
            if request["op"] in ("add_edge", "remove_edge"):
                active["writers"] += 1
                active["max"] = max(active["max"], active["writers"])
                try:
                    time.sleep(0.3)
                    return inner(request)
                finally:
                    active["writers"] -= 1
            return inner(request)

        service.handle = slow_write_handle
        graph = service.graph
        ids = graph.node_ids
        edges = {(u, v) for u, v in graph.edges()}
        fresh = [
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if (u, v) not in edges
        ][:2]
        daemon = ServeDaemon(service, tmp_path / "s.sock", request_timeout=0.1)

        async def scenario():
            r1, w1 = await asyncio.open_unix_connection(str(daemon.socket_path))
            r2, w2 = await asyncio.open_unix_connection(str(daemon.socket_path))
            (u1, v1), (u2, v2) = fresh
            first = await _send(
                r1, w1, {"id": 1, "op": "add_edge", "u": ids[u1], "v": ids[v1]}
            )
            assert first["error"]["code"] == "timeout"
            # Sent immediately after the timeout: must wait out the
            # straggler, not run alongside it.
            second = await _send(
                r2, w2, {"id": 2, "op": "add_edge", "u": ids[u2], "v": ids[v2]}
            )
            assert second["error"]["code"] == "timeout"
            w1.close()
            w2.close()

        with fresh_telemetry():
            _run(daemon, scenario)
        assert active["max"] == 1, "two mutations overlapped"

    def test_shutdown_op(self, tmp_path):
        daemon = ServeDaemon(_service(), tmp_path / "s.sock")

        async def scenario():
            ready = asyncio.Event()
            task = asyncio.create_task(daemon.run(ready))
            await ready.wait()
            reader, writer = await asyncio.open_unix_connection(
                str(daemon.socket_path)
            )
            response = await _send(reader, writer, {"id": 1, "op": "shutdown"})
            assert response == {"id": 1, "ok": True, "result": {"stopping": True}}
            writer.close()
            await asyncio.wait_for(task, timeout=5)
            assert not daemon.socket_path.exists()

        with fresh_telemetry():
            asyncio.run(scenario())

    def test_constructor_validation(self, tmp_path):
        service = _service()
        with pytest.raises(ValueError):
            ServeDaemon(service, tmp_path / "s.sock", request_timeout=0)
        with pytest.raises(ValueError):
            ServeDaemon(service, tmp_path / "s.sock", max_inflight=0)

    def test_orphan_gauge_and_slot_release(self, tmp_path):
        """Regression: a timed-out write's slot must be *visible* while
        orphaned (``serve/orphaned`` gauge + warning) and released once
        the straggler completes."""
        graph = _graph()
        service = FeatureService(graph, ServeConfig(emax=3))
        service.warm(range(1, graph.num_nodes))  # root 0 stays untracked
        inner = service.handle
        release = threading.Event()

        def slow_handle(request):
            if request["op"] == "add_edge":
                release.wait(5)
            return inner(request)

        service.handle = slow_handle
        (pair,) = _absent_pairs(graph, 1)
        untracked, tracked = graph.node_ids[0], graph.node_ids[1]
        daemon = ServeDaemon(
            service, tmp_path / "s.sock", request_timeout=0.1, max_inflight=1
        )

        async def scenario():
            r1, w1 = await asyncio.open_unix_connection(str(daemon.socket_path))
            r2, w2 = await asyncio.open_unix_connection(str(daemon.socket_path))
            timed_out = await _send(r1, w1, _add_request(graph, pair, 1))
            assert timed_out["error"]["code"] == "timeout"
            assert daemon.orphaned == 1
            # The orphan still owns the only slot: a read that must track
            # its root is writer work, and is shed ...
            shed = await _send(r2, w2, {"id": 2, "op": "features", "node": untracked})
            assert shed["error"]["code"] == "overloaded"
            # ... while reads of tracked roots answer on the loop.
            for request in (
                {"id": 3, "op": "stats"},
                {"id": 4, "op": "features", "node": tracked},
            ):
                assert (await _send(r2, w2, request))["ok"] is True
            release.set()
            for _ in range(100):
                if daemon.orphaned == 0:
                    break
                await asyncio.sleep(0.05)
            assert daemon.orphaned == 0
            # Slot released: the same daemon runs writer work again.
            ok = await _send(r2, w2, {"id": 5, "op": "features", "node": untracked})
            assert ok["ok"] is True
            w1.close()
            w2.close()

        # Capture on the daemon's logger directly: repro's CLI logging
        # setup stops propagation to the root logger, so caplog (whose
        # handler sits at the root) misses these records when any CLI
        # test ran earlier in the session.
        records = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = records.append
        serve_logger = logging.getLogger("repro.serve.daemon")
        serve_logger.addHandler(handler)
        try:
            with fresh_telemetry() as telemetry:
                _run(daemon, scenario)
                assert telemetry.as_dict()["gauges"]["serve/orphaned"] == 1
        finally:
            serve_logger.removeHandler(handler)
        # 1 orphan > max_inflight/2 = 0.5: the imminent-shedding warning.
        assert any("orphaned" in record.getMessage() for record in records)


class TestTCPTransport:
    """The --tcp path: same protocol, same daemon, different transport."""

    def test_round_trip_over_tcp(self):
        service = _service()
        node = service.graph.node_ids[0]
        daemon = ServeDaemon(service, "127.0.0.1:0")
        assert daemon.socket_path is None
        assert daemon.endpoint.kind == "tcp"

        async def scenario():
            # run() resolved the ephemeral port.
            assert daemon.endpoint.port != 0
            reader, writer = await open_connection(daemon.endpoint)
            response = await _send(reader, writer, {"id": 1, "op": "ping"})
            assert response == {"id": 1, "ok": True, "result": {"pong": True}}
            response = await _send(
                reader, writer, {"id": 2, "op": "features", "node": node}
            )
            assert response["ok"]
            assert response["result"]["total"] == sum(
                response["result"]["counts"].values()
            )
            writer.close()

        with fresh_telemetry():
            _run(daemon, scenario)
        assert daemon.requests == 2

    def test_tcp_results_match_unix(self, tmp_path):
        """Zero behavior change across transports: identical responses."""
        results = {}
        for name, endpoint in (
            ("unix", tmp_path / "s.sock"),
            ("tcp", "127.0.0.1:0"),
        ):
            service = _service()
            nodes = service.graph.node_ids[:5]
            daemon = ServeDaemon(service, endpoint)
            captured = []

            async def scenario():
                reader, writer = await open_connection(daemon.endpoint)
                for i, node in enumerate(nodes):
                    response = await _send(
                        reader, writer,
                        {"id": i, "op": "features", "node": node},
                    )
                    captured.append(response)
                writer.close()

            with fresh_telemetry():
                _run(daemon, scenario)
            results[name] = captured
        assert results["unix"] == results["tcp"]


class TestProtocolHelpers:
    def test_decode_request_rejects_garbage(self):
        for raw in (b"\xff\xfe\n", b"[1, 2]\n", b"42\n", b'{"op": 3}\n'):
            with pytest.raises(NetError) as excinfo:
                decode_message(raw)
            assert excinfo.value.code == "bad_request"

    def test_require_type_discipline(self):
        assert require({"op": "x", "k": 5}, "k", int) == 5
        with pytest.raises(NetError):
            require({"op": "x"}, "k", int)
        with pytest.raises(NetError):
            require({"op": "x", "k": True}, "k", int)  # bool is not an int here
