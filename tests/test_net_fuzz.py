"""Protocol fuzz suite shared by every framed-protocol server.

Both servers on the :mod:`repro.net` substrate — the feature-serving
:class:`ServeDaemon` and the census :class:`CensusWorker` — must
survive hostile framing on both transports: malformed JSON gets a typed
error (never a dropped connection), oversized lines get dropped (never
buffered without bound), split/partial frames reassemble, binary junk
is rejected, and a client that disconnects mid-frame leaves the server
serving everyone else.  One parameterized suite pins all four
server × transport combinations to the same contract.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.dist import CensusWorker
from repro.net import MAX_LINE_BYTES, open_connection
from repro.obs import fresh_telemetry
from repro.serve import FeatureService, ServeConfig, ServeDaemon

TRANSPORTS = ("unix", "tcp")
SERVERS = ("daemon", "worker")


def _graph(seed: int = 0):
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes={"a": 8, "b": 6},
        affinity={("a", "b"): 1.0},
        mean_degree=2.5,
        rng=np.random.default_rng(seed),
    )


def _build_server(kind: str, transport: str, tmp_path):
    spec = tmp_path / f"{kind}.sock" if transport == "unix" else "127.0.0.1:0"
    if kind == "daemon":
        return ServeDaemon(FeatureService(_graph(), ServeConfig(emax=3)), spec)
    return CensusWorker(spec)


def _run_against(server, scenario) -> None:
    """Run ``scenario()`` against a live server on its own event loop."""

    async def main():
        ready = asyncio.Event()
        task = asyncio.create_task(server.run(ready))
        await ready.wait()
        try:
            await scenario()
        finally:
            server.stop()
            await task

    with fresh_telemetry():
        asyncio.run(main())


async def _expect_response(reader, writer, payload: bytes) -> dict:
    writer.write(payload)
    await writer.drain()
    line = await reader.readline()
    assert line, "server dropped the connection on a recoverable frame"
    return json.loads(line)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("kind", SERVERS)
class TestProtocolFuzz:
    def test_malformed_frames_get_typed_errors(self, kind, transport, tmp_path):
        server = _build_server(kind, transport, tmp_path)
        frames = [
            (b"not json at all\n", "bad_request"),
            (b'{"truncated": \n', "bad_request"),
            (b'["an", "array"]\n', "bad_request"),
            (b"12345\n", "bad_request"),
            (b'{"no_op_field": 1}\n', "bad_request"),
            (b'{"op": 99}\n', "bad_request"),
            (b'{"op": "definitely_not_an_op"}\n', "unknown_op"),
            (b"\xff\xfe\x00\x01binary junk\n", "bad_request"),
        ]

        async def scenario():
            reader, writer = await open_connection(server.endpoint)
            for payload, expected in frames:
                response = await _expect_response(reader, writer, payload)
                assert response["ok"] is False, payload
                assert response["error"]["code"] == expected, payload
            # The connection survived every bad frame.
            response = await _expect_response(
                reader, writer, b'{"id": 99, "op": "ping"}\n'
            )
            assert response["ok"] is True
            writer.close()

        _run_against(server, scenario)

    def test_oversized_line_drops_connection(self, kind, transport, tmp_path):
        server = _build_server(kind, transport, tmp_path)

        async def scenario():
            reader, writer = await open_connection(server.endpoint)
            writer.write(b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES)
            try:
                await writer.drain()
                line = await reader.readline()
            except (ConnectionResetError, BrokenPipeError):
                line = b""
            assert line == b""
            writer.close()
            # The server is still alive for new connections.
            reader2, writer2 = await open_connection(server.endpoint)
            response = await _expect_response(
                reader2, writer2, b'{"op": "ping"}\n'
            )
            assert response["ok"] is True
            writer2.close()

        _run_against(server, scenario)

    def test_split_frames_reassemble(self, kind, transport, tmp_path):
        server = _build_server(kind, transport, tmp_path)

        async def scenario():
            reader, writer = await open_connection(server.endpoint)
            frame = b'{"id": 7, "op": "ping"}\n'
            for i in range(len(frame)):
                writer.write(frame[i: i + 1])
                await writer.drain()
                if i % 5 == 0:
                    await asyncio.sleep(0.001)
            response = json.loads(await reader.readline())
            assert response["id"] == 7
            assert response["ok"] is True
            writer.close()

        _run_against(server, scenario)

    def test_pipelined_frames_in_one_write(self, kind, transport, tmp_path):
        server = _build_server(kind, transport, tmp_path)

        async def scenario():
            reader, writer = await open_connection(server.endpoint)
            writer.write(
                b'{"id": 1, "op": "ping"}\n'
                b"\n"  # blank line is skipped, not answered
                b'{"id": 2, "op": "ping"}\n'
            )
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            assert [first["id"], second["id"]] == [1, 2]
            writer.close()

        _run_against(server, scenario)

    def test_mid_request_disconnect_leaves_server_serving(
        self, kind, transport, tmp_path
    ):
        server = _build_server(kind, transport, tmp_path)

        async def scenario():
            # Abandon a half-written frame (no trailing newline).
            _, rude = await open_connection(server.endpoint)
            rude.write(b'{"op": "ping", "partial')
            await rude.drain()
            rude.close()
            # Other clients are unaffected.
            reader, writer = await open_connection(server.endpoint)
            response = await _expect_response(
                reader, writer, b'{"op": "ping"}\n'
            )
            assert response["ok"] is True
            writer.close()

        _run_against(server, scenario)
