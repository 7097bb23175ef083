"""Tests for the parallel sweep runner (repro.experiments.parallel)."""

import os

import pytest

from repro.core import ControlPlaneConfig
from repro.experiments import RunSpec
from repro.experiments.cache import ResultCache, task_key
from repro.experiments.figures import fig07_service_request
from repro.experiments.parallel import (
    SweepJob,
    SweepReport,
    _run_pool,
    default_jobs,
    expand_grid,
    run_sweep,
    run_tasks,
)

QUICK = dict(procedures_target=150, min_duration_s=0.02, max_duration_s=0.08)


def quick_spec(**overrides):
    return RunSpec(**{**QUICK, **overrides})


class TestExpandGrid:
    def test_serial_loop_iteration_order(self):
        configs = [ControlPlaneConfig.neutrino(), ControlPlaneConfig.existing_epc()]
        grid = expand_grid(configs, [10e3, 20e3], None)
        assert [(j.config.name, j.axis_rate) for j in grid] == [
            ("neutrino", 10e3),
            ("neutrino", 20e3),
            ("existing_epc", 10e3),
            ("existing_epc", 20e3),
        ]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSerialParallelEquality:
    def test_parallel_points_bit_identical_to_serial(self):
        spec = quick_spec(procedure="attach")
        configs = [ControlPlaneConfig.neutrino(), ControlPlaneConfig.existing_epc()]
        grid = expand_grid(configs, [20e3, 40e3], spec)
        serial = run_tasks(grid, jobs=1)
        report = SweepReport()
        parallel = run_tasks(grid, jobs=2, report=report)
        # PCTPoint is a dataclass of floats/ints: == is exact, so this
        # asserts byte-identical rows, not approximate agreement.
        assert serial == parallel
        if not report.parallel:
            pytest.skip("platform fell back to serial: %s" % report.fallback_reason)

    def test_fig07_slice_equality(self):
        spec = quick_spec(procedure="service_request")
        serial = fig07_service_request(rates=(100e3,), spec=spec, jobs=1)
        parallel = fig07_service_request(rates=(100e3,), spec=spec, jobs=4)
        assert serial == parallel

    def test_harness_sweep_delegates(self):
        """The grid entry point runs its points through the pool."""
        spec = quick_spec(procedure="attach")
        configs = [ControlPlaneConfig.neutrino()]
        assert run_sweep(configs, [30e3], spec) == run_sweep(
            configs, [30e3], spec, jobs=2
        )


class TestRunJobs:
    """Sweep jobs through :func:`run_tasks`, whose default task is a point."""

    def test_results_positionally_aligned(self):
        spec = quick_spec(procedure="attach")
        grid = [
            SweepJob(ControlPlaneConfig.existing_epc(), 40e3, spec),
            SweepJob(ControlPlaneConfig.neutrino(), 20e3, spec),
        ]
        points = run_tasks(grid, jobs=2)
        assert [(p.scheme, p.axis_rate) for p in points] == [
            ("existing_epc", 40e3),
            ("neutrino", 20e3),
        ]

    def test_report_counts(self, tmp_path):
        spec = quick_spec(procedure="attach")
        grid = expand_grid([ControlPlaneConfig.neutrino()], [20e3, 40e3], spec)
        cache = ResultCache(str(tmp_path / "cache"))
        first = SweepReport()
        run_tasks(grid, jobs=1, cache=cache, report=first)
        assert (first.total, first.executed, first.cached) == (2, 2, 0)
        second = SweepReport()
        run_tasks(grid, jobs=1, cache=cache, report=second)
        assert (second.total, second.executed, second.cached) == (2, 0, 2)

    def test_cached_rerun_does_zero_simulation_work(self, tmp_path, monkeypatch):
        spec = quick_spec(procedure="attach")
        grid = expand_grid([ControlPlaneConfig.neutrino()], [20e3, 40e3], spec)
        cache = ResultCache(str(tmp_path / "cache"))
        warm = run_tasks(grid, jobs=1, cache=cache)

        def boom(*_args, **_kwargs):
            raise AssertionError("simulation ran on a fully cached sweep")

        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "run_pct_point", boom)
        cached = run_tasks(grid, jobs=1, cache=cache)
        assert cached == warm

    def test_worker_error_propagates(self):
        bad = SweepJob(ControlPlaneConfig.neutrino(), -5.0, quick_spec())
        with pytest.raises(ValueError):
            run_tasks([bad], jobs=2)


class TestDefaultJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_jobs() == 7

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1


_MAIN_PID = os.getpid()


def _crashy_worker(task):
    """Kill the *worker process* on the "boom" task; run fine in-process.

    ``os._exit`` (not an exception) makes the pool raise
    ``BrokenProcessPool`` mid-``map`` — the exact failure the fallback
    must survive.  The main-pid guard lets the serial fallback complete
    the same task.
    """
    name, log_path = task
    with open(log_path, "a") as fp:
        fp.write("%s %d\n" % (name, os.getpid()))
    if name == "boom" and os.getpid() != _MAIN_PID:
        os._exit(1)
    return "ran:%s" % name


def _executions(log_path, name):
    with open(log_path) as fp:
        return sum(1 for line in fp if line.split()[0] == name)


class TestBrokenPoolFallback:
    def test_completed_points_kept_and_remainder_reexecuted(self, tmp_path):
        log = str(tmp_path / "log.txt")
        tasks = [("a", log), ("boom", log), ("c", log)]
        report = SweepReport(total=3, executed=3)
        # workers=1 makes delivery deterministic: "a" is delivered before
        # the single worker dies on "boom".
        results = _run_pool(tasks, 1, report, fn=_crashy_worker)
        assert results == ["ran:a", "ran:boom", "ran:c"]
        assert not report.parallel
        assert report.fallback_reason
        # "a" ran exactly once (pool result kept, not re-executed
        # serially); on platforms without a working pool the whole list
        # runs serially and the count is identically one.
        assert _executions(log, "a") == 1
        assert _executions(log, "c") == 1

    def test_fallback_consults_cache(self, tmp_path):
        log = str(tmp_path / "log.txt")
        tasks = [("boom", log), ("b", log), ("c", log)]
        keys = [task_key("crashy", t[0]) for t in tasks]
        cache = ResultCache(
            str(tmp_path / "cache"), encode=lambda s: s, decode=lambda s: s
        )
        # A concurrent sweep persisted "c" after our initial cache pass
        # and before the pool broke.
        cache.put(keys[2], "cached:c")
        report = SweepReport(total=3, executed=3)
        results = _run_pool(
            tasks, 2, report, fn=_crashy_worker, keys=keys, cache=cache
        )
        assert results[0] == "ran:boom"
        assert results[1] == "ran:b"
        assert results[2] == "cached:c"
        assert report.executed + report.cached == report.total
        assert report.cached >= 1
        assert _executions(log, "c") <= 1  # never executed in fallback

    def test_run_tasks_report_truthful_through_crash(self, tmp_path):
        log = str(tmp_path / "log.txt")
        tasks = [("a", log), ("boom", log), ("c", log), ("d", log)]
        cache = ResultCache(
            str(tmp_path / "cache"), encode=lambda s: s, decode=lambda s: s
        )
        report = SweepReport()
        results = run_tasks(
            tasks, _crashy_worker, jobs=2, cache=cache,
            key_fn=lambda t: t[0], kind="crashy", report=report,
        )
        assert results == ["ran:a", "ran:boom", "ran:c", "ran:d"]
        assert report.total == 4
        assert report.executed + report.cached == report.total
        # every produced point landed in the cache: a rerun is all hits
        second = SweepReport()
        again = run_tasks(
            tasks, _crashy_worker, jobs=2, cache=cache,
            key_fn=lambda t: t[0], kind="crashy", report=second,
        )
        assert again == results
        assert (second.executed, second.cached) == (0, 4)


class TestRunSweep:
    def test_grouped_like_serial_sweep(self):
        spec = quick_spec(procedure="attach")
        configs = [ControlPlaneConfig.neutrino(), ControlPlaneConfig.existing_epc()]
        grouped = run_sweep(configs, [20e3, 40e3], spec, jobs=2)
        assert list(grouped) == ["neutrino", "existing_epc"]
        assert [p.axis_rate for p in grouped["neutrino"]] == [20e3, 40e3]
