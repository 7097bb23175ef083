"""Tests for the content-addressed result cache (repro.experiments.cache)."""

import dataclasses
import math

from repro.core import ControlPlaneConfig
from repro.experiments import RunSpec
from repro.experiments.cache import ResultCache, _stable, task_key
from repro.experiments.harness import PCTPoint
from repro.experiments.parallel import SweepJob
from repro.faults.plan import FaultPlan
from repro.obs.ledger import code_fingerprint


def key_of(config, axis_rate, spec):
    """A sweep point's cache key, as :func:`run_tasks` computes it."""
    return task_key("point", SweepJob(config, axis_rate, spec))


def sample_point(**overrides) -> PCTPoint:
    base = dict(
        scheme="neutrino",
        procedure="attach",
        axis_rate=40e3,
        offered_rate=16e3,
        count=123,
        p50_ms=0.295,
        p95_ms=0.51,
        mean_ms=0.31,
        max_ms=1.7,
        utilization=0.42,
    )
    base.update(overrides)
    return PCTPoint(**base)


class TestPointKey:
    def test_stable_across_equal_inputs(self):
        a = key_of(ControlPlaneConfig.neutrino(), 40e3, RunSpec(seed=3))
        b = key_of(ControlPlaneConfig.neutrino(), 40e3, RunSpec(seed=3))
        assert a == b and len(a) == 64

    def test_none_spec_means_default_spec(self):
        config = ControlPlaneConfig.neutrino()
        assert key_of(config, 40e3, None) == key_of(config, 40e3, RunSpec())
        # an int rate is the same point as its float
        assert key_of(config, 40000, None) == key_of(config, 40e3, None)

    def test_any_knob_changes_the_key(self):
        config = ControlPlaneConfig.neutrino()
        base = key_of(config, 40e3, RunSpec())
        assert key_of(config, 40e3 + 1, RunSpec()) != base
        assert key_of(config, 40e3, RunSpec(seed=2)) != base
        assert key_of(config.variant("v", n_backups=2), 40e3, RunSpec()) != base
        assert key_of(config, 40e3, RunSpec(procedure="handover")) != base
        job = SweepJob(config, 40e3, RunSpec())
        assert task_key("scale.replicate", job) != base  # kinds never alias

    def test_fault_plan_is_part_of_the_key(self):
        config = ControlPlaneConfig.neutrino()
        plan = FaultPlan(seed=7).perturb("cta_cpf", drop_p=0.1)
        with_plan = key_of(config, 40e3, RunSpec(fault_plan=plan))
        assert with_plan != key_of(config, 40e3, RunSpec())
        hotter = FaultPlan(seed=7).perturb("cta_cpf", drop_p=0.2)
        assert with_plan != key_of(config, 40e3, RunSpec(fault_plan=hotter))

    def test_inputs_record_is_debuggable_json(self):
        inputs = _stable(SweepJob(ControlPlaneConfig.neutrino(), 40e3, None))
        assert inputs["config"]["name"] == "neutrino"
        assert inputs["axis_rate"] == repr(40e3)
        assert inputs["spec"]["procedure"] == RunSpec().procedure

    def test_fingerprint_is_cached_and_hex(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = key_of(ControlPlaneConfig.neutrino(), 40e3, RunSpec())
        assert cache.get(key) is None
        point = sample_point()
        cache.put(key, point)
        got = cache.get(key)
        assert got == point  # exact float equality through JSON
        assert dataclasses.asdict(got) == dataclasses.asdict(point)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stale) == (1, 1, 0)

    def test_nan_percentiles_survive_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        empty = sample_point(
            count=0,
            p50_ms=float("nan"),
            p95_ms=float("nan"),
            mean_ms=float("nan"),
            max_ms=float("nan"),
        )
        cache.put("k" * 64, empty)
        got = cache.get("k" * 64)
        assert got.count == 0 and got.empty
        assert math.isnan(got.p50_ms) and math.isnan(got.max_ms)

    def test_stale_fingerprint_ignored_and_counted(self, tmp_path):
        root = str(tmp_path / "c")
        old = ResultCache(root, fingerprint="old-code-version")
        key = "a" * 64
        old.put(key, sample_point())
        fresh = ResultCache(root)
        assert fresh.get(key) is None
        assert fresh.stats.stale == 1 and fresh.stats.misses == 0
        # the rerun overwrites the stale entry under the same address
        fresh.put(key, sample_point(count=9))
        assert fresh.get(key).count == 9

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "b" * 64
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("c" * 64, sample_point())
        cache.put("d" * 64, sample_point())
        assert cache.clear() == 2
        assert cache.get("c" * 64) is None


class TestFingerprintOncePerRun:
    def test_run_jobs_computes_fingerprint_once(self, tmp_path, monkeypatch):
        # Regression: the code fingerprint hashes every .py file under
        # src/repro, so a run of sweep jobs must compute it once, not
        # once per point lookup (or eagerly for caches never used).
        from repro.experiments import cache as cache_mod
        from repro.experiments.parallel import run_tasks

        calls = []

        def counting_fingerprint():
            calls.append(1)
            return "test-fp"

        monkeypatch.setattr(cache_mod, "code_fingerprint", counting_fingerprint)

        root = str(tmp_path / "c")
        config = ControlPlaneConfig.neutrino()
        jobs = [SweepJob(config, rate, RunSpec()) for rate in
                (10e3, 20e3, 30e3, 40e3, 50e3)]

        seed_cache = ResultCache(root, fingerprint="test-fp")
        for job in jobs:
            key = task_key("point", job)
            seed_cache.put(key, sample_point(axis_rate=job.axis_rate))
        assert calls == []  # explicit fingerprint: no computation at all

        cache = ResultCache(root)
        assert calls == []  # lazy: constructing a cache hashes nothing
        points = run_tasks(jobs, jobs=1, cache=cache)
        assert len(points) == len(jobs)
        assert cache.stats.hits == len(jobs)
        assert len(calls) == 1, "fingerprint must be computed once per run"
