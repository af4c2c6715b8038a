"""Operation tables of the feature-serving protocol.

The wire format -- newline-framed JSON, typed error codes, the
``require``/response helpers -- lives in :mod:`repro.net.protocol`, shared
with the census workers.  This module names the serving operations: reads
answer from the service's published version, writes change it.  Every
operation and its parameters are documented in ``docs/serving.md``.

    -> {"id": 1, "op": "features", "node": "MIT"}
    <- {"id": 1, "ok": true, "result": {"node": "MIT", "total": 42, ...}}
"""

from __future__ import annotations

from repro.net.protocol import ERROR_CODES, error_response, ok_response, require

#: Reads: answered from one published version (a first read of a root
#: tracks it, which is a state change).
READ_OPS = ("features", "rank", "label", "stats", "ping")

#: Writes: mutate the graph and repair the affected censuses.
WRITE_OPS = ("add_edge", "remove_edge")

__all__ = [
    "ERROR_CODES",
    "READ_OPS",
    "WRITE_OPS",
    "error_response",
    "ok_response",
    "require",
]
