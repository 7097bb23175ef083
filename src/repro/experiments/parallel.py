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

:func:`run_tasks` is the one runner: a figure's points, a scale
replicate sweep and anything else shaped "pure function over a list"
go through its cache pass and pool.  Its default task is a sweep point
(a :class:`SweepJob` in, a :class:`~repro.experiments.harness.PCTPoint`
out).

Usage::

    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import expand_grid, run_tasks

    points = run_tasks(expand_grid(configs, rates, spec), jobs=8,
                       cache=ResultCache())
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.config import ControlPlaneConfig
from .cache import task_key
from .harness import PCTPoint, RunSpec, run_pct_point

__all__ = [
    "SweepJob",
    "SweepReport",
    "default_jobs",
    "expand_grid",
    "pool_context",
    "run_sweep",
    "run_tasks",
]


@dataclass
class SweepJob:
    """One measurement point: everything a worker needs, picklable.

    The job is also the point's cache key, so it is normalised on
    construction: ``spec=None`` is the default :class:`RunSpec` and the
    rate is a float, and a point keys the same however it is spelled.
    """

    config: ControlPlaneConfig
    axis_rate: float
    spec: Optional[RunSpec] = None

    def __post_init__(self):
        self.axis_rate = float(self.axis_rate)
        if self.spec is None:
            self.spec = RunSpec()


@dataclass
class SweepReport:
    """What one :func:`run_tasks` invocation actually did."""

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


def pool_context():
    """The multiprocessing context for sweep pools and shard workers."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        # cheapest, and immune to import-path differences in children
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool(
    jobs_list: List,
    workers: int,
    report: SweepReport,
    fn,
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
            max_workers=min(workers, len(jobs_list)), mp_context=pool_context()
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


def run_tasks(
    tasks: Sequence,
    fn=_run_job,
    jobs: int = 1,
    cache=None,
    key_fn=None,
    kind: str = "point",
    report: Optional[SweepReport] = None,
) -> List:
    """Run ``fn`` over ``tasks``, in input order, using cache and pool.

    ``fn`` must be a top-level picklable callable and each task a pure
    function of its own value, so pool placement cannot change results;
    the default runs one :class:`SweepJob` into a :class:`PCTPoint`.
    ``jobs`` is the worker-process count (``<= 1`` means in-process
    serial; ``0`` means one per core).  ``cache`` (a
    :class:`repro.experiments.cache.ResultCache` or ``None``) entries
    are addressed by :func:`repro.experiments.cache.task_key` over
    ``key_fn(task)`` (default: the task itself), namespaced by
    ``kind``; the cache must be constructed with an ``encode``/``decode``
    codec matching ``fn``'s result type.  Returns results positionally
    aligned with ``tasks`` and bit-identical to the serial loop's.
    """
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


def run_sweep(
    configs: Sequence[ControlPlaneConfig],
    axis_rates: Sequence[float],
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
    report: Optional[SweepReport] = None,
) -> Dict[str, List[PCTPoint]]:
    """Run every (config, rate) point; returns points grouped by scheme."""
    points = run_tasks(expand_grid(configs, axis_rates, spec), jobs=jobs,
                       cache=cache, report=report)
    results: Dict[str, List[PCTPoint]] = {}
    for point in points:
        results.setdefault(point.scheme, []).append(point)
    return results
