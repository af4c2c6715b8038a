"""Operation tables of the feature-serving protocol.

The wire format itself — newline-framed JSON, typed error codes, the
``require``/response helpers — lives in :mod:`repro.net.protocol`, the
transport-agnostic substrate this daemon shares with the census-worker
RPC layer.  This module layers the *serving* contract on top: which
operations exist and which side of the reader/writer lock each runs
under.

    -> {"id": 1, "op": "features", "node": "MIT"}
    <- {"id": 1, "ok": true, "result": {"node": "MIT", "total": 42, ...}}

``id`` is echoed verbatim so clients can pipeline requests over several
connections; it may be any JSON value (``null`` when omitted).  Errors
are *typed*: ``code`` is drawn from :data:`ERROR_CODES` so clients can
distinguish overload shedding (retry later) from a bad request (don't).

The full protocol — every operation, its parameters, and the repair
semantics of the write path — is documented in ``docs/serving.md``.
"""

from __future__ import annotations

from repro.net.protocol import ERROR_CODES, error_response, ok_response, require

#: Operations answered while holding the shared (read) side of the
#: graph lock; they never modify service state beyond caches.
READ_OPS = ("features", "rank", "label", "stats", "ping")

#: Operations requiring the exclusive (write) side: they mutate the
#: graph and repair the affected censuses before the next read runs.
WRITE_OPS = ("add_edge", "remove_edge")

__all__ = [
    "ERROR_CODES",
    "READ_OPS",
    "WRITE_OPS",
    "error_response",
    "ok_response",
    "require",
]
