"""Tests for the application experiments: the mobility apps (self-driving
car, VR) and Fig. 3's video startup and page load rows."""

import pytest

from repro.apps import (
    MobilityAppSpec,
    run_mobility_experiment,
    self_driving_spec,
    vr_spec,
)
from repro.core import ControlPlaneConfig
from repro.experiments import ResultCache, RunSpec, SweepReport, figures, run_pct_point

FAST = dict(drive_duration_s=1.0, radio_interruption_s=0.2)


class TestSpecs:
    def test_self_driving_deadline(self):
        assert self_driving_spec().deadline_s == pytest.approx(0.1)

    def test_vr_deadline(self):
        assert vr_spec().deadline_s == pytest.approx(0.016)

    def test_overrides_apply(self):
        spec = self_driving_spec(handovers=3, drive_duration_s=2.0)
        assert spec.handovers == 3
        assert spec.drive_duration_s == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityAppSpec(packet_rate_hz=0).validate()
        with pytest.raises(ValueError):
            MobilityAppSpec(handovers=-1).validate()
        with pytest.raises(ValueError):
            MobilityAppSpec(drive_duration_s=0).validate()


class TestMobilityExperiment:
    def test_zero_handovers_zero_misses(self):
        spec = MobilityAppSpec(handovers=0, **{k: v for k, v in FAST.items() if k != "radio_interruption_s"})
        result = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, spec
        )
        assert result.missed == 0
        assert result.handovers_executed == 0

    def test_handover_executed_and_counted(self):
        result = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(1, **FAST)
        )
        assert result.handovers_executed == 1
        assert result.total == 1000

    def test_radio_interruption_causes_baseline_misses(self):
        # 200 ms interruption with 100 ms budget: ~100 ms of misses/HO.
        result = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(1, **FAST)
        )
        assert 50 <= result.missed <= 250

    def test_vr_misses_more_than_car(self):
        car = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(1, **FAST)
        )
        vr = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, vr_spec(1, **FAST)
        )
        assert vr.missed > car.missed  # tighter budget

    def test_epc_worse_under_heavy_load(self):
        users = 500e3
        epc = run_mobility_experiment(
            ControlPlaneConfig.existing_epc(), users, self_driving_spec(1, **FAST)
        )
        neutrino = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), users, self_driving_spec(1, **FAST)
        )
        assert epc.missed > neutrino.missed

    def test_multiple_handovers_scale_misses(self):
        single = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(1, **FAST)
        )
        multiple = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(3, **FAST)
        )
        assert multiple.missed > 2 * single.missed

    def test_miss_fraction_property(self):
        result = run_mobility_experiment(
            ControlPlaneConfig.neutrino(), 10e3, self_driving_spec(1, **FAST)
        )
        assert 0 <= result.miss_fraction <= 1


SMALL_RUN = RunSpec(procedure="service_request", procedures_target=150, max_duration_s=0.1)


def fig03_rows(rate):
    """Fig. 3's rows at one rate, keyed by scheme name."""
    rows = figures.fig03_plt_and_video(rates=(rate,), spec=SMALL_RUN)
    return {row["scheme"]: row for row in rows}


class TestVideoAndWeb:
    def test_video_startup_includes_player_constant(self):
        row = fig03_rows(60e3)["neutrino"]
        assert figures.PLAYER_STARTUP_S == pytest.approx(0.45)
        assert row["video_startup_p50_s"] > figures.PLAYER_STARTUP_S
        assert row["est_video_startup_60s_s"] >= row["video_startup_p50_s"]

    def test_plt_includes_page_constant(self):
        row = fig03_rows(60e3)["neutrino"]
        assert figures.PAGE_FETCH_S == pytest.approx(1.9)
        assert row["plt_p50_s"] > figures.PAGE_FETCH_S
        assert row["est_plt_60s_s"] >= row["plt_p50_s"]

    def test_epc_startup_worse_when_saturated(self):
        by = fig03_rows(260e3)
        epc, neutrino = by["existing_epc"], by["neutrino"]
        assert epc["video_startup_p50_s"] > neutrino["video_startup_p50_s"]
        assert epc["sr_pct_p50_ms"] > 5 * neutrino["sr_pct_p50_ms"]


def test_fig03_rows_are_one_service_request_point_plus_app_constants(
    monkeypatch, tmp_path
):
    """Both app rows come from one service-request point per (scheme,
    rate): 2 x len(rates) points run, and a cached rerun runs none."""
    reports = []
    real_run_tasks = figures.run_tasks

    def run_tasks(tasks, **kwargs):
        reports.append(kwargs.setdefault("report", SweepReport()))
        return real_run_tasks(tasks, **kwargs)

    monkeypatch.setattr(figures, "run_tasks", run_tasks)
    rates = (60e3, 160e3, 260e3)
    cache = ResultCache(str(tmp_path / "cache"))
    rows = figures.fig03_plt_and_video(rates=rates, spec=SMALL_RUN, cache=cache)
    again = figures.fig03_plt_and_video(rates=rates, spec=SMALL_RUN, cache=cache)
    assert again == rows
    assert [(r.total, r.executed, r.cached) for r in reports] == [(6, 6, 0), (6, 0, 6)]

    schemes = (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino())
    grid = [(config, rate) for config in schemes for rate in rates]
    assert len(rows) == len(grid)
    for row, (config, rate) in zip(rows, grid):
        assert (row["scheme"], row["rate"]) == (config.name, rate)
        point = run_pct_point(config, rate, SMALL_RUN)
        assert row["sr_pct_p50_ms"] == point.p50_ms
        sr_s = point.p50_ms / 1e3
        assert row["video_startup_p50_s"] == sr_s + figures.PLAYER_STARTUP_S
        assert row["plt_p50_s"] == sr_s + figures.PAGE_FETCH_S
    by = {(row["scheme"], row["rate"]): row for row in rows}
    epc, neutrino = by[("existing_epc", 260e3)], by[("neutrino", 260e3)]
    assert epc["video_startup_p50_s"] > neutrino["video_startup_p50_s"]
    assert epc["plt_p50_s"] > neutrino["plt_p50_s"]
    assert epc["sr_pct_p50_ms"] > 5 * neutrino["sr_pct_p50_ms"]
