"""Unit tests for the transport substrate (`repro.net`).

Endpoint parsing, framing/typed-error helpers, blob armouring, the
retry policy, and the synchronous :class:`NetClient` against a live
echo-style server on both transports — the pieces every higher layer
(serving daemon, census workers, remote executor) builds on.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.net import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    Endpoint,
    NetClient,
    NetError,
    RetryPolicy,
    decode_blob,
    decode_message,
    encode_blob,
    error_response,
    ok_response,
    parse_endpoint,
    raise_for_error,
    require,
    serve_lines,
    start_listener,
)
from repro.obs import fresh_telemetry


class TestEndpoint:
    def test_parse_shorthands(self, tmp_path):
        sock = tmp_path / "x.sock"
        assert parse_endpoint(sock) == Endpoint("unix", path=str(sock))
        assert parse_endpoint(str(sock)) == Endpoint("unix", path=str(sock))
        assert parse_endpoint(f"unix:{sock}") == Endpoint("unix", path=str(sock))
        assert parse_endpoint("127.0.0.1:9000") == Endpoint(
            "tcp", host="127.0.0.1", port=9000
        )
        assert parse_endpoint("tcp:localhost:0") == Endpoint(
            "tcp", host="localhost", port=0
        )

    def test_colon_paths_stay_unix(self):
        # Only an all-digit suffix after the last colon means TCP.
        assert parse_endpoint("/tmp/odd:name.sock").kind == "unix"
        assert parse_endpoint("unix:/tmp/a:9000").kind == "unix"

    def test_round_trips_through_address(self, tmp_path):
        for spec in (tmp_path / "s.sock", "10.0.0.1:80", "tcp:h:1234"):
            endpoint = parse_endpoint(spec)
            assert parse_endpoint(endpoint.address) == endpoint

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_endpoint("")
        with pytest.raises(ValueError):
            parse_endpoint("tcp:no-port")
        with pytest.raises(ValueError):
            parse_endpoint(42)
        with pytest.raises(ValueError):
            Endpoint("tcp", host="h", port=70000)
        with pytest.raises(ValueError):
            Endpoint("carrier-pigeon")


class TestProtocol:
    def test_decode_message_contract(self):
        assert decode_message(b'{"op": "ping"}\n') == {"op": "ping"}
        for raw in (b"\xff\xfe\n", b"[1]\n", b"3\n", b'{"op": 7}\n', b"{}\n"):
            with pytest.raises(NetError) as excinfo:
                decode_message(raw)
            assert excinfo.value.code == "bad_request"

    def test_responses_and_unwrap(self):
        import json

        ok = json.loads(ok_response(5, {"x": 1}))
        assert ok == {"id": 5, "ok": True, "result": {"x": 1}}
        assert raise_for_error(ok) == {"x": 1}

        err = json.loads(error_response(None, "overloaded", "busy"))
        assert err["error"]["code"] == "overloaded"
        with pytest.raises(NetError) as excinfo:
            raise_for_error(err)
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retryable

    def test_unknown_error_code_maps_to_internal(self):
        import json

        err = json.loads(error_response(1, "no_such_code", "?"))
        assert err["error"]["code"] == "internal"
        assert "internal" in ERROR_CODES

    def test_require(self):
        assert require({"op": "x", "n": "a"}, "n") == "a"
        assert require({"op": "x", "k": 2}, "k", int) == 2
        for bad in ({"op": "x"}, {"op": "x", "k": True}, {"op": "x", "k": "2"}):
            with pytest.raises(NetError):
                require(bad, "k", int)

    def test_blob_round_trip(self):
        payload = (Counter({("a", "b"): 3}), {"nested": [1, 2.5, None]})
        text = encode_blob(payload)
        assert isinstance(text, str)
        assert decode_blob(text) == payload

    def test_blob_rejects_corruption(self):
        for junk in ("not base64 at all!", "AAAA", encode_blob({})[:-4]):
            with pytest.raises(NetError) as excinfo:
                decode_blob(junk)
            assert excinfo.value.code == "bad_request"


class TestRetryPolicy:
    def test_delay_schedule(self):
        policy = RetryPolicy(retries=4, backoff=0.1, max_backoff=0.3)
        assert [policy.delay(i) for i in range(4)] == [0.1, 0.2, 0.3, 0.3]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)


def _echo_server(endpoint, ready_box: dict, stop_box: dict) -> None:
    """Serve in a thread: echo each request's id back, ``fail`` op closes."""

    async def main():
        async def handle_line(line: bytes) -> bytes:
            request = decode_message(line)
            if request["op"] == "slow":
                await asyncio.sleep(request.get("delay", 0.5))
            return ok_response(request.get("id"), {"op": request["op"]})

        async def on_connect(reader, writer):
            await serve_lines(reader, writer, handle_line)

        listener = await start_listener(endpoint, on_connect)
        stop = asyncio.Event()
        stop_box["stop"] = lambda: asyncio.get_event_loop()  # placeholder
        loop = asyncio.get_running_loop()
        stop_box["stop"] = lambda: loop.call_soon_threadsafe(stop.set)
        ready_box["endpoint"] = listener.endpoint
        ready_box["ready"].set()
        await stop.wait()
        listener.close()
        await listener.wait_closed()

    asyncio.run(main())


@pytest.fixture(params=["unix", "tcp"])
def live_endpoint(request, tmp_path):
    """A live line-echo server on the requested transport."""
    spec = tmp_path / "echo.sock" if request.param == "unix" else "127.0.0.1:0"
    ready_box = {"ready": threading.Event()}
    stop_box = {}
    thread = threading.Thread(
        target=_echo_server, args=(spec, ready_box, stop_box), daemon=True
    )
    thread.start()
    assert ready_box["ready"].wait(5), "echo server failed to start"
    yield ready_box["endpoint"]
    stop_box["stop"]()
    thread.join(timeout=5)


class TestNetClient:
    def test_round_trip_and_telemetry(self, live_endpoint):
        with fresh_telemetry() as telemetry:
            with NetClient(live_endpoint) as client:
                assert client.call({"id": 1, "op": "ping"}) == {"op": "ping"}
                assert client.ping()["op"] == "ping"
            snapshot = telemetry.as_dict()
        assert snapshot["counters"]["net/requests"] == 2
        assert snapshot["counters"]["net/connects"] == 1
        assert snapshot["distributions"]["net/request_s"]["count"] == 2

    def test_listener_resolves_ephemeral_port(self, live_endpoint):
        if live_endpoint.kind == "tcp":
            assert live_endpoint.port not in (None, 0)

    def test_request_timeout_raises_typed(self, live_endpoint):
        client = NetClient(
            live_endpoint, request_timeout=0.1, retry=RetryPolicy(retries=0)
        )
        with fresh_telemetry():
            with pytest.raises(NetError) as excinfo:
                client.call({"op": "slow", "delay": 2.0})
        assert excinfo.value.code == "timeout"
        client.close()

    def test_reconnects_after_failure(self, live_endpoint):
        with fresh_telemetry() as telemetry:
            client = NetClient(live_endpoint)
            assert client.call({"op": "ping"}) == {"op": "ping"}
            # Sever the transport under the client; the next request
            # must reconnect transparently and succeed.
            client._sock.close()
            assert client.call({"op": "ping"}) == {"op": "ping"}
            client.close()
            counters = telemetry.as_dict()["counters"]
        assert counters["net/connects"] >= 2

    def test_unreachable_peer_is_unavailable(self, tmp_path):
        client = NetClient(
            tmp_path / "nobody-home.sock",
            connect_timeout=0.2,
            retry=RetryPolicy(retries=1, backoff=0.01),
        )
        with fresh_telemetry() as telemetry:
            started = time.perf_counter()
            with pytest.raises(NetError) as excinfo:
                client.ping()
            elapsed = time.perf_counter() - started
            counters = telemetry.as_dict()["counters"]
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.retryable
        assert counters["net/retries"] == 1
        assert counters["net/unavailable"] == 1
        assert elapsed < 5.0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            NetClient(tmp_path / "x.sock", connect_timeout=0)
        with pytest.raises(ValueError):
            NetClient(tmp_path / "x.sock", request_timeout=-1)


class TestListener:
    def test_unix_socket_unlinked_on_close(self, tmp_path):
        sock = tmp_path / "gone.sock"

        async def main():
            listener = await start_listener(sock, lambda r, w: None)
            assert sock.exists()
            listener.close()
            await listener.wait_closed()

        asyncio.run(main())
        assert not sock.exists()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = tmp_path / "stale.sock"
        sock.touch()  # a dead daemon's leftover

        async def main():
            listener = await start_listener(sock, lambda r, w: None)
            listener.close()
            await listener.wait_closed()

        asyncio.run(main())
        assert not sock.exists()

    def test_max_line_bytes_is_shared_constant(self):
        from repro.serve.daemon import MAX_LINE_BYTES as daemon_limit

        assert daemon_limit == MAX_LINE_BYTES
