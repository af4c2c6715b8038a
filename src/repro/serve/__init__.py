"""Feature-serving daemon with incremental census maintenance.

``repro serve`` turns the batch reproduction into a long-lived service:
an asyncio daemon on a unix socket or, with ``--tcp``, a ``host:port``
(:mod:`repro.net`) answering ``features``/``rank``/``label``/``stats``
from the published census version, with an ``add_edge``/``remove_edge``
write path that repairs only the censuses its edge changes —
bit-identical to a cold recompute.  See ``docs/serving.md``.
"""

from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import (
    ERROR_CODES,
    READ_OPS,
    WRITE_OPS,
    error_response,
    ok_response,
)
from repro.serve.repair import repair_ball
from repro.serve.replay import (
    ReplayConfig,
    ReplayReport,
    generate_trace,
    replay,
    run_in_process,
    serve_and_replay,
)
from repro.serve.service import FeatureService, ServeConfig

__all__ = [
    "ERROR_CODES",
    "FeatureService",
    "READ_OPS",
    "ReplayConfig",
    "ReplayReport",
    "ServeConfig",
    "ServeDaemon",
    "WRITE_OPS",
    "error_response",
    "generate_trace",
    "ok_response",
    "repair_ball",
    "replay",
    "run_in_process",
    "serve_and_replay",
]
