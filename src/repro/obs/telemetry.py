"""Run-telemetry registry: counters, timers, gauges, annotations.

Every hot path in the library (census, cache, walk/SGNS engines, the
experiment drivers) records what it did into a :class:`Telemetry`
registry so a run can be audited after the fact — the paper's Table 3 is
exactly such an audit (per-node census timing percentiles vs. per-node
embedding cost), and PAPERS.md's sampling-based homomorphism work shows
that subgraph-feature evaluations stand or fall on this cost accounting.

Design constraints:

* **dependency-free** — stdlib only, importable from worker processes;
* **cheap** — a counter bump is one dict update under a lock; the census
  inner loop stays dominated by real work;
* **mergeable** — each pool task runs under its own fresh registry and
  ships a :meth:`Telemetry.snapshot` dict (plain picklable data) back
  with its result; the parent folds it in with :meth:`Telemetry.merge`
  (see :func:`repro.runtime.executor.run_tasks`).
  Counters add, timer stats combine (count/total/max), gauges take the
  maximum (peak semantics), annotations last-write-win.  Merging the
  per-worker snapshots of an ``n_jobs = 2`` run therefore reproduces the
  stats of the same run at ``n_jobs = 1``.

Instrumented code records into the registry returned by
:func:`get_telemetry` (process-global unless the thread opted out with
:func:`thread_telemetry`); tests and pool tasks isolate themselves with
:func:`fresh_telemetry`.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Geometric bucket growth factor for :class:`Distribution` histograms:
#: 8 buckets per doubling keeps quantile error under ~4.5% at any scale.
_DIST_GROWTH = 2.0 ** 0.125
_DIST_LOG_GROWTH = math.log(_DIST_GROWTH)
#: Observations at or below this are folded into one underflow bucket.
_DIST_EPSILON = 1e-9
_DIST_UNDERFLOW = -(10 ** 6)


@dataclass
class TimerStat:
    """Aggregate of one named timer: call count, total/mean/max seconds."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, count: int, total: float, maximum: float) -> None:
        self.count += count
        self.total += total
        if maximum > self.max:
            self.max = maximum

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_sec": self.total,
            "mean_sec": self.mean,
            "max_sec": self.max,
        }


class Distribution:
    """Mergeable log-bucketed histogram with quantile estimates.

    Timers record count/total/max — enough for throughput accounting but
    useless for tail latency, which is what a serving daemon lives and
    dies by.  A :class:`Distribution` buckets observations geometrically
    (bucket ``i`` covers ``[growth**i, growth**(i+1))`` with ``growth =
    2**(1/8)``), so memory stays bounded (a few dozen buckets span
    microseconds to minutes) while any quantile is recoverable within
    ~4.5% relative error.  Exact min/max/total are tracked alongside, and
    two histograms merge losslessly by adding bucket counts — the same
    worker fan-in contract as the other telemetry primitives.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets: dict[int, int] = {}

    @staticmethod
    def _bucket_of(value: float) -> int:
        if value <= _DIST_EPSILON:
            return _DIST_UNDERFLOW
        return math.floor(math.log(value) / _DIST_LOG_GROWTH)

    def add(self, value: float) -> None:
        value = max(float(value), 0.0)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = self._bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 when empty."""
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        # Nearest-rank on the bucket histogram; the representative value
        # is the bucket's geometric midpoint clamped to the exact range.
        rank = min(self.count - 1, max(0, math.ceil(q * self.count) - 1))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen > rank:
                if bucket == _DIST_UNDERFLOW:
                    return self.min if self.min != math.inf else 0.0
                mid = _DIST_GROWTH ** (bucket + 0.5)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def merge(self, count: int, total: float, minimum: float, maximum: float,
              buckets: dict) -> None:
        self.count += count
        self.total += total
        if minimum < self.min:
            self.min = minimum
        if maximum > self.max:
            self.max = maximum
        for bucket, bucket_count in buckets.items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + bucket_count

    def state(self) -> tuple:
        """Picklable ``(count, total, min, max, buckets)`` for snapshots."""
        return (self.count, self.total, self.min, self.max, dict(self.buckets))

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


@dataclass
class Span:
    """Handle yielded by :meth:`Telemetry.span`; ``elapsed`` is set on exit."""

    name: str
    elapsed: float = field(default=0.0)


class Telemetry:
    """Named counters, timers, gauges, and annotations for one run.

    All mutation goes through one :class:`threading.Lock`, so concurrent
    threads (LINE's order training, pool callback threads) can record
    safely.  Cross-*process* safety is by construction: pool tasks record
    into their own instance and the parent merges the returned snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}
        self.gauges: dict[str, float] = {}
        self.annotations: dict[str, str] = {}
        self.distributions: dict[str, Distribution] = {}

    # -- recording --------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def timer(self, name: str, seconds: float) -> None:
        """Record one observation of ``seconds`` under timer ``name``."""
        with self._lock:
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.add(seconds)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins locally)."""
        with self._lock:
            self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (peak semantics)."""
        with self._lock:
            if value > self.gauges.get(name, float("-inf")):
                self.gauges[name] = float(value)

    def annotate(self, name: str, value) -> None:
        """Attach a string fact (engine name, cache status) to the run."""
        with self._lock:
            self.annotations[name] = str(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into distribution ``name`` (see
        :class:`Distribution`) — use for per-request latencies and other
        quantities whose tail percentiles matter."""
        with self._lock:
            dist = self.distributions.get(name)
            if dist is None:
                dist = self.distributions[name] = Distribution()
            dist.add(value)

    @contextmanager
    def span(self, name: str):
        """Time a ``with`` block into timer ``name``.

        Yields a :class:`Span` whose ``elapsed`` attribute holds the
        wall-clock seconds after the block exits (also on exceptions, so
        failed phases still show up in the manifest).
        """
        handle = Span(name)
        started = time.perf_counter()
        try:
            yield handle
        finally:
            handle.elapsed = time.perf_counter() - started
            self.timer(name, handle.elapsed)

    # -- merge / serialisation -------------------------------------------
    def snapshot(self) -> dict:
        """Plain picklable dict of the current state (for worker returns)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: (stat.count, stat.total, stat.max)
                    for name, stat in self.timers.items()
                },
                "gauges": dict(self.gauges),
                "annotations": dict(self.annotations),
                "distributions": {
                    name: dist.state()
                    for name, dist in self.distributions.items()
                },
            }

    def merge(self, other: "Telemetry | dict") -> None:
        """Fold another registry (or a :meth:`snapshot` dict) into this one.

        Counters add, timers combine, gauges take the max, annotations
        from ``other`` win — see the module docstring for why these are
        the right semantics for worker fan-in.
        """
        data = other.snapshot() if isinstance(other, Telemetry) else other
        with self._lock:
            for name, value in data.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, (count, total, maximum) in data.get("timers", {}).items():
                stat = self.timers.get(name)
                if stat is None:
                    stat = self.timers[name] = TimerStat()
                stat.merge(count, total, maximum)
            for name, value in data.get("gauges", {}).items():
                if value > self.gauges.get(name, float("-inf")):
                    self.gauges[name] = value
            for name, state in data.get("distributions", {}).items():
                dist = self.distributions.get(name)
                if dist is None:
                    dist = self.distributions[name] = Distribution()
                dist.merge(*state)
            self.annotations.update(data.get("annotations", {}))

    @classmethod
    def from_snapshot(cls, data: dict) -> "Telemetry":
        telemetry = cls()
        telemetry.merge(data)
        return telemetry

    def as_dict(self) -> dict:
        """JSON-friendly view (timers expanded with means) for manifests."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: stat.as_dict() for name, stat in self.timers.items()
                },
                "gauges": dict(self.gauges),
                "annotations": dict(self.annotations),
                "distributions": {
                    name: dist.as_dict()
                    for name, dist in self.distributions.items()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.gauges.clear()
            self.annotations.clear()
            self.distributions.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"timers={len(self.timers)}, gauges={len(self.gauges)})"
        )


#: Process-global registry used by instrumented library code.  Pool tasks
#: swap in a fresh one, record locally, and ship snapshots back to be
#: merged here by the dispatching parent.
_GLOBAL = Telemetry()


#: Per-thread override of the global registry (see :func:`thread_telemetry`).
_THREAD = threading.local()


def get_telemetry() -> Telemetry:
    """The calling thread's registry, else the process-global one."""
    registry = getattr(_THREAD, "registry", None)
    return _GLOBAL if registry is None else registry


@contextmanager
def fresh_telemetry():
    """Swap in a fresh global registry for the duration of the block.

    Used by tests (isolation) and by the CLI (one manifest per command);
    yields the fresh registry and restores the previous one on exit.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = Telemetry()
    try:
        yield _GLOBAL
    finally:
        _GLOBAL = previous


@contextmanager
def thread_telemetry():
    """Record the calling thread into a fresh registry for the block.

    Unlike :func:`fresh_telemetry` this leaves every other thread on the
    registry it had, so a census worker's compute thread can ship its
    own snapshot back while the rest of the process keeps recording.
    """
    previous = getattr(_THREAD, "registry", None)
    _THREAD.registry = registry = Telemetry()
    try:
        yield registry
    finally:
        _THREAD.registry = previous
