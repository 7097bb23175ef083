"""Parallel sweep runner: fan measurement points out over processes.

Every figure in the reproduction is a sweep of independent
``(config, RunSpec, axis_rate)`` points, each fully deterministic given
its inputs (:func:`~repro.experiments.harness.run_pct_point` builds a
fresh :class:`~repro.sim.core.Simulator` and re-seeds a
:class:`~repro.sim.rng.RngRegistry` from the spec).  Points are
therefore embarrassingly parallel — a worker pool produces *bit
identical* results to the serial loop, in any order — and perfectly
cacheable (:mod:`repro.experiments.cache`).

The runner degrades gracefully: ``jobs <= 1``, a single pending point,
or a platform whose multiprocessing primitives are unavailable (no
``fork``/semaphores in some sandboxes) all fall back to the in-process
serial loop, which shares the exact code path the workers run.

Usage::

    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import SweepJob, run_jobs

    jobs = [SweepJob(config, rate, spec) for config in configs for rate in rates]
    points = run_jobs(jobs, jobs=8, cache=ResultCache())
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.config import ControlPlaneConfig
from .harness import PCTPoint, RunSpec, run_pct_point

__all__ = [
    "SweepJob",
    "SweepReport",
    "WorkerHandle",
    "WorkerSpawnError",
    "default_jobs",
    "expand_grid",
    "run_jobs",
    "run_sweep",
    "run_tasks",
    "spawn_workers",
]


@dataclass
class SweepJob:
    """One measurement point: everything a worker needs, picklable."""

    config: ControlPlaneConfig
    axis_rate: float
    spec: Optional[RunSpec] = None


@dataclass
class SweepReport:
    """What one :func:`run_jobs` invocation actually did."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    #: True when a worker pool ran (False on serial path or fallback).
    parallel: bool = False
    #: why the pool was skipped, when it was ("", "jobs=1", an OS error).
    fallback_reason: str = ""


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` ("use every core").

    "Every core" means every core *this process may run on*: CI
    containers and cgroup-limited sandboxes routinely pin the process
    to a subset of the machine, and ``os.cpu_count()`` still reports
    the full machine, oversubscribing the pool.  The affinity mask is
    the authoritative bound where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms only
            affinity = 0
        if affinity:
            return affinity
    return os.cpu_count() or 1


def expand_grid(
    configs: Sequence[ControlPlaneConfig],
    axis_rates: Sequence[float],
    spec: Optional[RunSpec] = None,
) -> List[SweepJob]:
    """The config x rate product in the serial loop's iteration order."""
    return [SweepJob(c, r, spec) for c in configs for r in axis_rates]


def _run_job(job: SweepJob) -> PCTPoint:
    # Top-level so every start method (fork/spawn/forkserver) can import
    # it; the point re-seeds from its spec, so placement in a worker
    # process cannot change the result.
    point = run_pct_point(job.config, job.axis_rate, job.spec)
    # The point's deployment is a cyclic graph that would otherwise
    # live until a rare full collection, beside the next point's.
    gc.collect()
    return point


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        # cheapest, and immune to import-path differences in children
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool(
    jobs_list: List,
    workers: int,
    report: SweepReport,
    fn=_run_job,
    keys: Optional[List] = None,
    cache=None,
) -> List:
    """Run ``fn`` over ``jobs_list`` in a worker pool, in input order.

    ``pool.map`` results are consumed incrementally so that a pool that
    breaks mid-sweep (a worker segfault / OOM kill) loses only the
    not-yet-delivered tail: already-delivered points are kept, and the
    fallback re-executes just the remainder in-process.  ``keys`` and
    ``cache`` (when the caller runs cached) let the fallback consult the
    result cache for that remainder — a concurrent sweep may have
    persisted a point between our initial cache pass and the crash —
    and ``report.executed``/``cached`` are adjusted so the report
    reflects what actually ran rather than what was scheduled.
    """
    results: List = [None] * len(jobs_list)
    delivered = 0
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(jobs_list)), mp_context=_pool_context()
        ) as pool:
            for result in pool.map(fn, jobs_list):
                results[delivered] = result
                delivered += 1
        report.parallel = True
        return results
    except (OSError, PermissionError, ImportError,
            concurrent.futures.process.BrokenProcessPool) as err:
        # sandboxes without working fork/semaphores, or a pool that
        # broke mid-map: finish where we are
        report.fallback_reason = "%s: %s" % (type(err).__name__, err)
    for i in range(delivered, len(jobs_list)):
        hit = None
        if cache is not None and keys is not None and keys[i] is not None:
            hit = cache.get(keys[i])
        if hit is not None:
            results[i] = hit
            report.cached += 1
            report.executed -= 1
        else:
            results[i] = fn(jobs_list[i])
    return results


class WorkerSpawnError(RuntimeError):
    """Worker processes could not be started on this platform.

    Raised by :func:`spawn_workers` so callers with an in-process
    equivalent (the shard coordinator) can fall back instead of failing
    the run — the same degradation contract as :func:`_run_pool`.
    """


class WorkerHandle:
    """One long-lived worker process plus its duplex message pipe.

    One-shot pool tasks (:func:`run_tasks`) re-ship their whole input per
    call; a *shard* worker instead holds a simulator for the entire run
    and exchanges small epoch messages, which is what the pipe is for.
    """

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def send(self, msg) -> None:
        self.conn.send(msg)

    def recv(self):
        """Next message from the worker; raises EOFError if it died."""
        return self.conn.recv()

    def close(self, timeout: float = 5.0) -> None:
        """Drop the pipe and reap the process (terminate if wedged)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout)


def spawn_workers(target, args_list) -> List[WorkerHandle]:
    """Start one long-lived ``target`` process per args tuple.

    ``target`` must be a top-level callable whose first parameter is the
    worker end of a duplex pipe; the remaining parameters come from the
    args tuple.  Either every worker starts or none does: a platform
    refusal (sandboxes without fork/semaphores) tears down any partial
    set and raises :class:`WorkerSpawnError`.
    """
    handles: List[WorkerHandle] = []
    try:
        ctx = _pool_context()
        for args in args_list:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=target, args=(child_conn,) + tuple(args), daemon=True
            )
            proc.start()
            child_conn.close()
            handles.append(WorkerHandle(proc, parent_conn))
    except (OSError, PermissionError, ImportError) as err:
        for handle in handles:
            handle.close(timeout=1.0)
        raise WorkerSpawnError("%s: %s" % (type(err).__name__, err))
    return handles


def run_tasks(
    tasks: Sequence,
    fn,
    jobs: int = 1,
    cache=None,
    key_fn=None,
    kind: str = "task",
    report: Optional[SweepReport] = None,
) -> List:
    """Generic fan-out: run ``fn`` over ``tasks`` with cache + pool.

    The task-shaped sibling of :func:`run_jobs` (which stays the sweep
    entry point): ``fn`` must be a top-level picklable callable and each
    task a pure function of its own value, so pool placement cannot
    change results.  ``cache`` entries are addressed by
    :func:`repro.experiments.cache.task_key` over ``key_fn(task)``
    (default: the task itself), namespaced by ``kind``; the cache must
    be constructed with an ``encode``/``decode`` codec matching ``fn``'s
    result type.  Returns results positionally aligned with ``tasks``.
    """
    from .cache import task_key

    tasks = list(tasks)
    if jobs == 0:
        jobs = default_jobs()
    if report is None:
        report = SweepReport()
    report.total = len(tasks)

    results: List = [None] * len(tasks)
    pending: List[tuple] = []  # (index, cache key or None, task)
    for i, task in enumerate(tasks):
        if cache is not None:
            key = task_key(kind, key_fn(task) if key_fn is not None else task)
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        else:
            key = None
        pending.append((i, key, task))
    report.cached = report.total - len(pending)
    report.executed = len(pending)

    if pending:
        run_list = [task for _i, _key, task in pending]
        if jobs > 1 and len(run_list) > 1:
            produced = _run_pool(
                run_list, jobs, report, fn=fn,
                keys=[key for _i, key, _task in pending], cache=cache,
            )
        else:
            report.fallback_reason = "jobs=1" if jobs <= 1 else "single task"
            produced = [fn(task) for task in run_list]
        for (i, key, _task), result in zip(pending, produced):
            results[i] = result
            if cache is not None and key is not None:
                cache.put(key, result)
    return results


def run_jobs(
    jobs_list: Sequence[SweepJob],
    jobs: int = 1,
    cache=None,
    report: Optional[SweepReport] = None,
) -> List[PCTPoint]:
    """Run every job, in input order, using cache and worker pool.

    ``jobs`` is the worker-process count (``<= 1`` means in-process
    serial; ``0`` means one per core).  ``cache`` is a
    :class:`repro.experiments.cache.ResultCache` or ``None``.  The
    returned list is positionally aligned with ``jobs_list`` and
    bit-identical to what the serial loop would produce.
    """
    jobs_list = list(jobs_list)
    if jobs == 0:
        jobs = default_jobs()
    if report is None:
        report = SweepReport()
    report.total = len(jobs_list)

    points: List[Optional[PCTPoint]] = [None] * len(jobs_list)
    pending: List[tuple] = []  # (index, cache key or None, job)
    for i, job in enumerate(jobs_list):
        if cache is not None:
            key = cache.key(job.config, job.axis_rate, job.spec)
            hit = cache.get(key)
            if hit is not None:
                points[i] = hit
                continue
        else:
            key = None
        pending.append((i, key, job))
    report.cached = report.total - len(pending)
    report.executed = len(pending)

    if pending:
        run_list = [job for _i, _key, job in pending]
        if jobs > 1 and len(run_list) > 1:
            results = _run_pool(
                run_list, jobs, report,
                keys=[key for _i, key, _job in pending], cache=cache,
            )
        else:
            report.fallback_reason = "jobs=1" if jobs <= 1 else "single point"
            results = [_run_job(job) for job in run_list]
        for (i, key, _job), point in zip(pending, results):
            points[i] = point
            if cache is not None and key is not None:
                cache.put(key, point)
    return points  # type: ignore[return-value]


def run_sweep(
    configs: Sequence[ControlPlaneConfig],
    axis_rates: Sequence[float],
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
    report: Optional[SweepReport] = None,
) -> Dict[str, List[PCTPoint]]:
    """Parallel/cached equivalent of :func:`repro.experiments.harness.sweep`."""
    points = run_jobs(expand_grid(configs, axis_rates, spec), jobs=jobs,
                      cache=cache, report=report)
    results: Dict[str, List[PCTPoint]] = {}
    for point in points:
        results.setdefault(point.scheme, []).append(point)
    return results
