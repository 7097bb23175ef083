"""Tests for the experiment harness."""

import math

import pytest

from repro.core import ControlPlaneConfig
from repro.experiments import PCTPoint, RunSpec, run_pct_point, run_sweep
from repro.experiments import harness
from repro.experiments.harness import TESTBED_CPFS

QUICK = dict(procedures_target=150, min_duration_s=0.02, max_duration_s=0.08)


class TestRunSpec:
    def test_n_sim_cpfs(self):
        assert RunSpec(regions=2, cpfs_per_region=2).n_sim_cpfs == 4

    def test_defaults_are_poisson(self, monkeypatch):
        # every non-bursty point draws open-loop Poisson arrivals
        drawn = []
        real = harness.poisson_arrivals

        def poisson_arrivals(rate, duration, rng):
            drawn.append(rate)
            return real(rate, duration, rng)

        monkeypatch.setattr(harness, "poisson_arrivals", poisson_arrivals)
        run_pct_point(ControlPlaneConfig.neutrino(), 20e3, RunSpec(**QUICK))
        assert drawn == [20e3 / TESTBED_CPFS * RunSpec().n_sim_cpfs]


class TestRunPctPoint:
    def test_basic_point_shape(self):
        point = run_pct_point(
            ControlPlaneConfig.neutrino(), 40e3, RunSpec(procedure="attach", **QUICK)
        )
        assert point.scheme == "neutrino"
        assert point.procedure == "attach"
        assert point.count > 50
        assert 0 < point.p50_ms < point.p95_ms * 1.01
        assert point.completed > 0

    def test_offered_rate_scaling(self):
        spec = RunSpec(procedure="attach", regions=2, cpfs_per_region=1, **QUICK)
        point = run_pct_point(ControlPlaneConfig.neutrino(), 50e3, spec)
        assert point.offered_rate == pytest.approx(50e3 / TESTBED_CPFS * 2)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            run_pct_point(ControlPlaneConfig.neutrino(), 0.0)

    def test_warm_pool_procedures(self):
        point = run_pct_point(
            ControlPlaneConfig.neutrino(),
            40e3,
            RunSpec(procedure="service_request", **QUICK),
        )
        assert point.count > 50
        assert point.violations == 0

    def test_bursty_mode_reports_users_axis(self):
        spec = RunSpec(
            procedure="attach", bursty_users=120, burst_window_s=0.02,
            drain_s=5.0, warmup_frac=0.0,
        )
        point = run_pct_point(ControlPlaneConfig.neutrino(), 1.0, spec)
        assert point.axis_rate == 120.0
        assert point.count == 120

    def test_failure_injection_recovers_procedures(self):
        spec = RunSpec(
            procedure="handover", cpfs_per_region=2, failure_cpf_index=0,
            failure_at_frac=0.5, first_region_only=True, **QUICK
        )
        point = run_pct_point(ControlPlaneConfig.neutrino(), 40e3, spec)
        assert point.recovered > 0
        assert point.violations == 0

    def test_seed_determinism(self):
        spec = RunSpec(procedure="attach", seed=9, **QUICK)
        a = run_pct_point(ControlPlaneConfig.neutrino(), 30e3, spec)
        b = run_pct_point(ControlPlaneConfig.neutrino(), 30e3, spec)
        assert a.p50_ms == b.p50_ms
        assert a.count == b.count

    def test_row_renders(self):
        point = run_pct_point(
            ControlPlaneConfig.neutrino(), 30e3, RunSpec(procedure="attach", **QUICK)
        )
        row = point.row()
        assert "neutrino" in row and "p50" in row

    def test_empty_window_reports_count_zero(self):
        # Regression: a window where nothing completes (here: warmup
        # covers the whole run) used to fabricate a count=1 NaN sample.
        spec = RunSpec(
            procedure="attach",
            procedures_target=50,
            min_duration_s=0.02,
            max_duration_s=0.05,
            warmup_frac=1.0,
            drain_s=0.0,
        )
        point = run_pct_point(ControlPlaneConfig.neutrino(), 30e3, spec)
        assert point.count == 0
        assert point.empty
        assert math.isnan(point.p50_ms) and math.isnan(point.p95_ms)
        assert math.isnan(point.mean_ms) and math.isnan(point.max_ms)

    def test_empty_window_row_renders_dash(self):
        spec = RunSpec(
            procedure="attach",
            procedures_target=50,
            min_duration_s=0.02,
            max_duration_s=0.05,
            warmup_frac=1.0,
            drain_s=0.0,
        )
        point = run_pct_point(ControlPlaneConfig.neutrino(), 30e3, spec)
        row = point.row()
        assert "nan" not in row
        assert "-" in row


class TestSweep:
    def test_sweep_groups_by_scheme(self):
        spec = RunSpec(procedure="attach", **QUICK)
        results = run_sweep(
            [ControlPlaneConfig.neutrino(), ControlPlaneConfig.existing_epc()],
            [20e3, 40e3],
            spec,
        )
        assert set(results) == {"neutrino", "existing_epc"}
        assert len(results["neutrino"]) == 2

    def test_saturation_shows_in_sweep(self):
        spec = RunSpec(procedure="attach", **QUICK)
        results = run_sweep([ControlPlaneConfig.existing_epc()], [40e3, 140e3], spec)
        points = results["existing_epc"]
        assert points[1].p50_ms > 5 * points[0].p50_ms  # deep saturation
