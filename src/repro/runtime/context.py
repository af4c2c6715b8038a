"""Execution context: one object answering "how should this run execute?".

Before this layer existed every stage of the library grew its own
``engine=``/``n_jobs=`` keyword pair with subtly different validation
(``census.py`` raised :class:`~repro.exceptions.CensusError` without
naming the choices, ``walks.py`` said "unknown walk engine", ``forest.py``
enumerated its tuple) and its own cache handle.  :class:`RunContext`
bundles those execution concerns — census engine, worker count, seed
policy, the telemetry registry, and the :class:`~repro.runtime.store.ArtifactStore`
handle — into a single object that every layer accepts as ``ctx=``.
Each setting has one way in: an entry point that takes ``ctx=`` takes no
keyword for a setting the context carries.  Construct one context per
run and pass it down.

:func:`resolve_engine` is the single validator behind every engine
dispatch; its error message always enumerates the valid choices, so a
typo'd ``--engine`` reads the same no matter which stage rejects it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import PartitionError
from repro.obs.telemetry import Telemetry, get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.store import ArtifactStore


#: The census engine registry — the single source of truth for engine
#: names.  Every ``--engine`` choice list and every ``resolve_engine`` call
#: site derives from these constants instead of repeating string literals.
#: The census is the only layer with two implementations: the exact
#: ``fast`` enumeration and the ``sampled`` estimator.  Every other layer
#: (walks, SGNS, LINE, forests) has exactly one and takes no engine.
ENGINE_FAST = "fast"
ENGINE_SAMPLED = "sampled"
VALID_ENGINES = (ENGINE_FAST, ENGINE_SAMPLED)


def resolve_engine(
    name: str,
    choices: Sequence[str],
    *,
    param: str = "engine",
    error: type[Exception] = ValueError,
) -> str:
    """Validate an engine spec against ``choices``.

    Returns ``name`` unchanged when valid; otherwise raises ``error`` with
    a message that *always* enumerates the valid choices — the unified
    wording every call site shares::

        unknown engine 'turbo': valid choices are 'fast', 'sampled'

    ``param`` names the parameter in the message (``"census engine"``,
    ``"partition strategy"``, ...); ``error`` lets domain layers keep their
    exception hierarchy (the census raises :class:`CensusError`).
    """
    if name in choices:
        return name
    listed = ", ".join(repr(str(choice)) for choice in choices)
    raise error(f"unknown {param} {name!r}: valid choices are {listed}")


def resolve_n_jobs(n_jobs) -> int:
    """Map an ``n_jobs`` spec to a worker count: ``0``/``None``/"auto" = all cores."""
    if n_jobs is None or n_jobs == 0 or n_jobs == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(n_jobs)
    if count < 1:
        raise ValueError(f"n_jobs must be >= 1 (or 0/None for auto), got {n_jobs}")
    return count


@dataclass
class RunContext:
    """Execution policy for one run.

    Every field defaults to ``None`` meaning *unset* — resolution helpers
    fall back to the stage's default, so a context only overrides what it
    explicitly carries.

    Attributes
    ----------
    engine:
        Census engine (:data:`VALID_ENGINES`).  Only census stages read
        it; the embedding pipelines ignore it, so one context can drive a
        sampled census and the embeddings of the same run.
    n_jobs:
        Worker-process count; ``0``/``"auto"`` means all cores.  Stages
        resolve it through :meth:`resolved_n_jobs`.
    partitions:
        Shard count for the remote census (see :mod:`repro.dist`);
        ``None`` means one shard per worker.  Only meaningful with
        ``workers``; stages resolve it through :meth:`resolved_partitions`.
    workers:
        ``repro worker`` endpoint specs (``host:port`` / ``unix:path``).
        Non-empty means the census runs remotely, on halo-complete
        shards shipped to those daemons; empty or ``None`` keeps it
        local, fanned out by root.
    seed:
        Base RNG seed for stages that need one (embedding pipelines, the
        experiment drivers).
    store:
        Optional :class:`~repro.runtime.store.ArtifactStore`; stages that
        support artifact caching consult it and a warm store lets a rerun
        skip the stage entirely.
    telemetry:
        Registry to record into; ``None`` uses the process-global one.
    """

    engine: str | None = None
    n_jobs: int | None = None
    partitions: int | None = None
    workers: "tuple | list | None" = None
    seed: int | None = None
    store: "ArtifactStore | None" = None
    telemetry: Telemetry | None = field(default=None, repr=False)

    # -- resolution --------------------------------------------------------
    def resolve_engine(
        self,
        choices: Sequence[str],
        *,
        default: str = "fast",
        param: str = "engine",
        error: type[Exception] = ValueError,
    ) -> str:
        """The context engine (or ``default``), validated against ``choices``."""
        name = self.engine if self.engine is not None else default
        return resolve_engine(name, choices, param=param, error=error)

    def resolved_n_jobs(self, default: int = 1) -> int:
        """The context worker count (or ``default``), ``0``/"auto"-expanded."""
        spec = self.n_jobs if self.n_jobs is not None else default
        return resolve_n_jobs(spec)

    def resolved_partitions(self) -> int | None:
        """The remote census shard count, or ``None`` for a local census.

        Shards exist only to be shipped, so a shard count without
        ``workers`` raises :class:`~repro.exceptions.PartitionError`;
        with workers it defaults to one shard per worker.
        """
        if not self.workers:
            if self.partitions is not None:
                raise PartitionError(
                    f"partitions={self.partitions} needs worker endpoints "
                    "(--workers HOST:PORT[,HOST:PORT...]); a local census "
                    "fans out by root"
                )
            return None
        count = int(
            self.partitions if self.partitions is not None else len(self.workers)
        )
        if count < 1:
            raise PartitionError(f"partitions must be >= 1, got {count}")
        return count

    def resolved_seed(self, default: int = 0) -> int:
        """The context seed, or ``default`` when unset."""
        return int(self.seed) if self.seed is not None else default

    # -- conveniences ------------------------------------------------------
    @property
    def telemetry_registry(self) -> Telemetry:
        """The registry to record into (context-local or process-global)."""
        return self.telemetry if self.telemetry is not None else get_telemetry()

    def span(self, name: str):
        """Shortcut for ``ctx.telemetry_registry.span(name)``."""
        return self.telemetry_registry.span(name)

    def annotate_provenance(self, prefix: str = "run") -> None:
        """Record the resolved execution policy into the run telemetry.

        Lands in the manifest's provenance annotations uniformly
        (``run/engine``, ``run/n_jobs``, ``run/seed``, ``run/store``),
        replacing the per-command ``_annotate_experiment`` helpers the CLI
        used to carry.
        """
        telemetry = self.telemetry_registry
        if self.engine is not None:
            telemetry.annotate(f"{prefix}/engine", self.engine)
        if self.n_jobs is not None:
            telemetry.annotate(f"{prefix}/n_jobs", self.resolved_n_jobs())
        if self.workers:
            telemetry.annotate(f"{prefix}/workers", len(self.workers))
            telemetry.annotate(f"{prefix}/partitions", self.resolved_partitions())
        if self.seed is not None:
            telemetry.annotate(f"{prefix}/seed", self.seed)
        if self.store is not None and self.store.path is not None:
            telemetry.annotate(f"{prefix}/store", self.store.path)
