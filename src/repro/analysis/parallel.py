"""Process-based parallel evaluation: the sweep/tune worker pool.

Every paper figure and tuning run boils down to a bag of independent
(configuration x buffer size) simulation points. :func:`parallel_map`
shards such a bag across a pool of worker processes —
``jobs`` explicit, or the ``REPRO_JOBS`` environment variable — and
merges results **deterministically**: outputs come back in task order
regardless of which worker finished first, so a parallel
:func:`~repro.analysis.sweep.run_sweep` or
:func:`~repro.analysis.autotune.tune` is bitwise-identical to its
sequential run.

Three properties the callers rely on:

* **Determinism** — results are merged by task index, never by
  completion order. The simulations themselves are deterministic, so
  ``jobs=N`` equals ``jobs=1`` exactly.
* **Graceful degradation** — a task whose callable cannot cross a
  process boundary (a lambda, a closure over a tracer) runs inline in
  the parent instead of crashing the pool. ``jobs=1`` never spawns a
  pool at all.
* **Observability** — pass a :class:`~repro.observe.Tracer` and every
  task becomes a span on a per-worker track under one pool span, so a
  Chrome trace shows the fan-out; process-wide counters are exported
  by :func:`repro.observe.metrics_dict` (``workers`` section) via
  :func:`pool_stats`.

Workers inherit ``REPRO_CACHE_DIR``, so anything they compile lands in
the persistent :class:`~repro.core.cache.DiskCacheTier` and is shared
with the parent and with sibling workers instead of being recompiled
per process.

Workers start from a ``forkserver`` (``spawn`` where the platform has
none), never by forking the caller: the plan service calls in from a
process with live threads, and a forked worker inherits any lock one
of them holds at that instant, locked forever.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from ..observe.tracer import Tracer, maybe_span

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count: explicit ``jobs``, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV}={raw!r} is not an integer worker count"
            )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# Process-wide pool accounting, exported by repro.observe.metrics_dict.
_STATS: Dict[str, float] = {}
_WORKER_TASKS: Dict[str, int] = {}


def reset_pool_stats() -> None:
    _STATS.clear()
    _WORKER_TASKS.clear()


def pool_stats() -> Dict:
    """JSON-safe counters over every pool run in this process.

    ``utilization`` is aggregate worker busy time over aggregate pool
    capacity (wall time x jobs) — 1.0 means every worker slot was busy
    for every pool's whole duration.
    """
    slot_us = _STATS.get("slot_us", 0.0)
    busy_us = _STATS.get("busy_us", 0.0)
    return {
        "pools": int(_STATS.get("pools", 0)),
        "tasks": int(_STATS.get("tasks", 0)),
        "parallel_tasks": int(_STATS.get("parallel_tasks", 0)),
        "inline_tasks": int(_STATS.get("inline_tasks", 0)),
        "max_jobs": int(_STATS.get("max_jobs", 0)),
        "busy_us": round(busy_us, 3),
        "wall_us": round(_STATS.get("wall_us", 0.0), 3),
        "utilization": round(busy_us / slot_us, 4) if slot_us else 0.0,
        "per_worker_tasks": dict(sorted(_WORKER_TASKS.items())),
    }


def _bump(name: str, delta: float) -> None:
    _STATS[name] = _STATS.get(name, 0.0) + delta


def _run_task(payload):
    """Worker-side wrapper: run one task and report who ran it when.

    ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every
    process, so the parent can place these timestamps on its own
    timeline.
    """
    index, fn, task = payload
    start = time.perf_counter()
    result = fn(task)
    end = time.perf_counter()
    return index, result, os.getpid(), start * 1e6, end * 1e6


def _pool_context():
    """A forkserver context that has already imported this package (so
    a worker starts without re-importing the simulator), else spawn."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__package__])
    return context


def _pickles(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def parallel_map(fn: Callable, tasks: Sequence, *,
                 jobs: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 label: str = "parallel") -> List:
    """``[fn(task) for task in tasks]``, sharded across processes.

    Results are returned in task order whatever the completion order,
    so callers can rely on bitwise-identical merging. ``fn`` must be a
    module-level callable (picklable); individual tasks that are not
    picklable fall back to inline execution in the parent.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    results: List = [None] * len(tasks)
    if not tasks:
        return results
    jobs = min(jobs, len(tasks))

    if jobs == 1 or not _pickles(fn):
        remote: List[int] = []
        inline = list(range(len(tasks)))
    else:
        portable = [_pickles(task) for task in tasks]
        remote = [i for i, ok in enumerate(portable) if ok]
        inline = [i for i, ok in enumerate(portable) if not ok]

    wall_start = time.perf_counter()
    spans: List = []  # (index, worker label, start_us, end_us)
    with maybe_span(tracer, f"{label}.pool", cat="parallel",
                    jobs=jobs, tasks=len(tasks)) as pool_span:
        if remote:
            payloads = [(i, fn, tasks[i]) for i in remote]
            chunksize = max(1, len(remote) // (jobs * 4))
            with ProcessPoolExecutor(max_workers=jobs,
                                     mp_context=_pool_context()) as pool:
                for index, result, pid, s_us, e_us in pool.map(
                        _run_task, payloads, chunksize=chunksize):
                    results[index] = result
                    spans.append((index, f"pid {pid}", s_us, e_us))
        for index in inline:
            start = time.perf_counter()
            results[index] = fn(tasks[index])
            end = time.perf_counter()
            spans.append((index, "inline", start * 1e6, end * 1e6))
        wall_us = (time.perf_counter() - wall_start) * 1e6

        if pool_span is not None and tracer is not None:
            # Worker timestamps are absolute monotonic microseconds;
            # rebase them onto the pool span's position in the tracer's
            # own time domain.
            base = pool_span.start_us - wall_start * 1e6
            for index, worker, s_us, e_us in spans:
                tracer.emit(f"{label}.task", base + s_us, base + e_us,
                            cat="parallel", track=("workers", worker),
                            parent=pool_span, task=index)

    _bump("pools", 1)
    _bump("tasks", len(tasks))
    _bump("parallel_tasks", len(remote))
    _bump("inline_tasks", len(inline))
    _bump("busy_us", sum(e - s for _, _, s, e in spans))
    _bump("wall_us", wall_us)
    _bump("slot_us", wall_us * jobs)
    _STATS["max_jobs"] = max(_STATS.get("max_jobs", 0), jobs)
    for _, worker, _, _ in spans:
        _WORKER_TASKS[worker] = _WORKER_TASKS.get(worker, 0) + 1
    if tracer is not None:
        tracer.add_counter(f"{label}.tasks", len(tasks))
    return results
