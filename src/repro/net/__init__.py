"""Shared network substrate: framed transport for serving and census RPC.

One wire format, two workloads.  The feature-serving daemon
(:mod:`repro.serve`) and the census-worker RPC layer
(:mod:`repro.dist.worker` / :mod:`repro.dist.remote`) both speak the
newline-framed JSON protocol defined here, over either transport a
deployment wants: a unix domain socket (single box, lowest latency) or
TCP (``host:port``, cross-machine fan-out).

```
repro/net/
    protocol.py   framing, typed error codes, blob payload helpers
    endpoint.py   Endpoint + parse_endpoint ("unix:/path", "host:port")
    server.py     OpServer: the op-table server both daemons run on
    client.py     async open_connection + sync NetClient (retry/backoff)
```

Every client request lands in the ``net/*`` telemetry family (request
counters, retries, reconnects, and the ``net/request_s`` latency
distribution), so run manifests show the wire cost of a distributed run
next to the census cost it paid for.  See the transport sections of
``docs/serving.md`` and ``docs/distributed_census.md``.
"""

from repro.net.client import NetClient, RetryPolicy, open_connection
from repro.net.endpoint import Endpoint, parse_endpoint
from repro.net.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    NetError,
    decode_blob,
    decode_message,
    encode_blob,
    error_response,
    ok_response,
    raise_for_error,
    require,
)
from repro.net.server import Listener, OpServer, serve_lines, start_listener

__all__ = [
    "ERROR_CODES",
    "Endpoint",
    "Listener",
    "MAX_LINE_BYTES",
    "NetClient",
    "NetError",
    "OpServer",
    "RetryPolicy",
    "decode_blob",
    "decode_message",
    "encode_blob",
    "error_response",
    "ok_response",
    "open_connection",
    "parse_endpoint",
    "raise_for_error",
    "require",
    "serve_lines",
    "start_listener",
]
