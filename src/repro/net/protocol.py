"""Newline-framed JSON protocol shared by every repro network server.

One request per line, one response per line, UTF-8 JSON both ways::

    -> {"id": 1, "op": "features", "node": "MIT"}
    <- {"id": 1, "ok": true, "result": {"node": "MIT", "total": 42, ...}}

``id`` is echoed verbatim so clients can pipeline requests over several
connections; it may be any JSON value (``null`` when omitted).  Errors
are *typed*: ``code`` is drawn from :data:`ERROR_CODES` so clients can
distinguish overload shedding (retry later) from a bad request (don't).

This module is transport- and service-agnostic: the serving daemon
(:mod:`repro.serve.protocol` layers its operation tables on top) and the
census-worker RPC (:mod:`repro.dist.worker`) frame their traffic through
the same helpers, over unix sockets or TCP alike.

Payloads that JSON cannot carry faithfully (census ``Counter`` objects
with tuple keys, pickled graphs) travel as *blobs*: pickled,
compressed, base64-armoured strings inside the JSON frame
(:func:`encode_blob`/:func:`decode_blob`).  Blobs are only exchanged
between mutually trusting processes of one deployment — the worker RPC
layer, never the public serving surface (see ``docs/serving.md``).
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib

#: Upper bound on one framed line (1 MiB) — protects server readers from
#: an unframed stream and clients from unbounded buffering.
MAX_LINE_BYTES = 1 << 20

#: Typed error codes (the protocol's contract with clients):
#:
#: ``bad_request``     malformed JSON / missing or mistyped parameters
#: ``unknown_op``      an ``op`` the server does not implement
#: ``unknown_node``    a node id the graph does not contain
#: ``graph_error``     an invalid mutation (duplicate edge, self loop, ...)
#: ``overloaded``      shed: too many requests in flight, retry later
#: ``timeout``         the request exceeded the server's time budget
#: ``shutting_down``   received while the server is draining
#: ``internal``        unexpected server-side failure
#: ``unavailable``     client-side: the peer could not be reached at all
#: ``census_error``    worker RPC: a graph the worker does not hold, or a
#:                     census failure on one
ERROR_CODES = (
    "bad_request",
    "unknown_op",
    "unknown_node",
    "graph_error",
    "overloaded",
    "timeout",
    "shutting_down",
    "internal",
    "unavailable",
    "census_error",
)

#: Codes a client may safely retry (the request never executed, or the
#: server stayed consistent); everything else is a don't-retry.
RETRYABLE_CODES = ("overloaded", "timeout", "unavailable")


class NetError(Exception):
    """A protocol-level failure carrying one of :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown net error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


def decode_message(line: bytes | str) -> dict:
    """Parse one request line into a dict; raises :class:`NetError`.

    Guarantees the result is a JSON object with a string ``op`` — other
    parameter validation is per-operation (see the service layers).
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetError("bad_request", f"request is not UTF-8: {exc}")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise NetError("bad_request", f"request is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise NetError(
            "bad_request", f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise NetError("bad_request", "request is missing a string 'op' field")
    return request


def ok_response(request_id, result) -> bytes:
    """Encode a success response line (newline-terminated UTF-8)."""
    return (
        json.dumps({"id": request_id, "ok": True, "result": result}) + "\n"
    ).encode("utf-8")


def error_response(request_id, code: str, message: str) -> bytes:
    """Encode a typed error response line (newline-terminated UTF-8)."""
    if code not in ERROR_CODES:
        code, message = "internal", f"(bad error code {code!r}) {message}"
    return (
        json.dumps(
            {"id": request_id, "ok": False, "error": {"code": code, "message": message}}
        )
        + "\n"
    ).encode("utf-8")


def require(request: dict, field: str, kind=str):
    """Fetch a typed field from a request; raises ``bad_request`` if absent.

    ``kind`` may be a type or tuple of types; ``bool`` is rejected where
    an int is required (JSON ``true`` is not a count).
    """
    value = request.get(field)
    if kind is int and isinstance(value, bool):
        value = None
    if value is None or not isinstance(value, kind):
        wanted = getattr(kind, "__name__", str(kind))
        raise NetError(
            "bad_request",
            f"op {request.get('op')!r} requires a {wanted} field {field!r}",
        )
    return value


def raise_for_error(response: dict) -> dict:
    """Return ``response["result"]``, raising :class:`NetError` on failures.

    The inverse of :func:`ok_response`/:func:`error_response` for
    clients: a malformed response frame maps to ``internal`` (the peer
    spoke, but not this protocol).
    """
    if not isinstance(response, dict):
        raise NetError(
            "internal", f"response is not a JSON object: {type(response).__name__}"
        )
    if response.get("ok"):
        return response.get("result")
    error = response.get("error")
    if not isinstance(error, dict):
        raise NetError("internal", f"response carries no error object: {response!r}")
    code = error.get("code")
    message = str(error.get("message", ""))
    if code not in ERROR_CODES:
        raise NetError("internal", f"(unknown error code {code!r}) {message}")
    raise NetError(code, message)


def encode_blob(obj) -> str:
    """Pickle + compress + base64 an object into a JSON-safe string.

    The armour for payloads JSON cannot carry (tuple-keyed census
    Counters, graphs).  Only ever exchanged between the mutually
    trusting processes of one deployment — see the module docstring.
    """
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def decode_blob(text: str):
    """Invert :func:`encode_blob`; raises ``bad_request`` on corrupt input."""
    if not isinstance(text, str):
        raise NetError(
            "bad_request", f"blob must be a base64 string, got {type(text).__name__}"
        )
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(text.encode("ascii"))))
    except Exception as exc:  # noqa: BLE001 - any of b64/zlib/pickle
        raise NetError("bad_request", f"undecodable blob payload: {exc}")
