"""One executor for every local fan-out.

The census is trivially parallel by root, and the same holds for forest
trees, walk epochs, LINE orders and the experiment grids: each splits into
independent tasks over read-only shared inputs.  :func:`run_tasks` is the
one place that turns such a task list into results, in-process or over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Pool rule.** With ``min(n_jobs, len(tasks)) <= 1`` the tasks run
  inline, in the caller's process; otherwise a pool of that many workers
  runs them.  Callers with a stricter rule pass ``n_jobs=1``.
* **State.** ``shared`` crosses the process boundary once per worker (not
  once per task).  Each process turns it into the task state once —
  ``setup(*shared)``, or ``shared`` itself without a ``setup`` — and every
  task runs as ``fn(state, task)``.
* **Order.** Results come back in task order, whatever order workers
  finish in.
* **Telemetry.** Inline tasks record straight into the caller's registry.
  Pool tasks each run under :func:`~repro.obs.telemetry.fresh_telemetry`,
  and their snapshots merge into the caller's registry in task order, so
  whatever library code records through ``get_telemetry()`` inside a
  worker reaches the parent.  Records made by ``setup`` itself stay in the
  worker.

``fn`` and ``setup`` must be module-level functions so a pool can pickle
them by name; an exception raised in a worker re-raises in the caller with
its original type.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable

from repro.obs.telemetry import fresh_telemetry, get_telemetry

#: A pool worker's task state, built once by :func:`_init_worker`.
_state: Any = None


def _init_worker(setup: Callable | None, shared) -> None:
    global _state
    _state = setup(*shared) if setup is not None else shared


def _run_pooled(fn: Callable, task) -> tuple[Any, dict]:
    with fresh_telemetry() as telemetry:
        result = fn(_state, task)
    return result, telemetry.snapshot()


def run_tasks(
    fn: Callable[[Any, Any], Any],
    tasks: Iterable,
    *,
    n_jobs: int = 1,
    setup: Callable | None = None,
    shared: Any = (),
    mp_context=None,
) -> list:
    """``[fn(state, task) for task in tasks]``, inline or over a pool.

    Parameters
    ----------
    fn:
        Module-level task function, called as ``fn(state, task)``.
    tasks:
        The task list; results align with it positionally.
    n_jobs:
        Worker-process cap (already resolved, ``>= 1``).
    setup:
        Optional module-level function building the task state from
        ``*shared``, once per process.
    shared:
        Sent once per worker: ``setup``'s arguments, or the task state
        itself when there is no ``setup``.
    mp_context:
        Pool start method: ``None`` (platform default), a name such as
        ``"spawn"``, or a multiprocessing context.
    """
    tasks = list(tasks)
    workers = min(n_jobs, len(tasks))
    if workers <= 1:
        if not tasks:
            return []
        state = setup(*shared) if setup is not None else shared
        return [fn(state, task) for task in tasks]
    if isinstance(mp_context, str):
        mp_context = multiprocessing.get_context(mp_context)
    telemetry = get_telemetry()
    results = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(setup, shared),
    ) as pool:
        for result, snapshot in pool.map(partial(_run_pooled, fn), tasks):
            telemetry.merge(snapshot)
            results.append(result)
    return results
