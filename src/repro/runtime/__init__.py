"""Unified execution runtime: context, artifact store, pipeline stages.

One layer answering "how should this run execute?" for every stage of
the library — see :mod:`repro.runtime.context` (census engine/n_jobs/seed
policy), :mod:`repro.runtime.store` (content-addressed cross-stage
caching), :mod:`repro.runtime.pipeline` (declared CLI stages), and
:mod:`repro.runtime.executor` (the one local fan-out).
"""

from repro.runtime.context import (
    ENGINE_FAST,
    ENGINE_SAMPLED,
    VALID_ENGINES,
    RunContext,
    resolve_engine,
    resolve_n_jobs,
)
from repro.runtime.executor import run_tasks
from repro.runtime.pipeline import Pipeline, STAGES
from repro.runtime.store import (
    ArtifactStore,
    STAGE_CENSUS,
    STAGE_EMBED,
    STAGE_FEATURES,
    STAGE_PARTITION,
    STAGE_WALKS,
    artifact_key,
    freeze_config,
)

__all__ = [
    "RunContext",
    "resolve_engine",
    "resolve_n_jobs",
    "ENGINE_FAST",
    "ENGINE_SAMPLED",
    "VALID_ENGINES",
    "run_tasks",
    "Pipeline",
    "STAGES",
    "ArtifactStore",
    "artifact_key",
    "freeze_config",
    "STAGE_CENSUS",
    "STAGE_WALKS",
    "STAGE_EMBED",
    "STAGE_FEATURES",
    "STAGE_PARTITION",
]
