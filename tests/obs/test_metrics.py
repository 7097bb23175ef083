"""Unit tests for labeled metrics + snapshot merging.

The parallel-vs-serial test is the load-bearing one: sweep workers ship
their registry snapshots back inside ``PCTPoint.obs``, and merging them
on the parent must be bit-identical to the serial loop's merge.
"""

import json

import pytest

from repro.core.config import ControlPlaneConfig
from repro.experiments.harness import RunSpec
from repro.experiments.parallel import SweepJob, run_jobs
from repro.obs import MetricsRegistry, merge_snapshots, summarize_histogram
from repro.sim.monitor import QuantileSketch, Tally


def row_of(values):
    sketch = QuantileSketch()
    for v in values:
        sketch.observe(v)
    return sketch.to_row()


class TestRegistry:
    def test_create_or_return_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", node="c1")
        b = reg.counter("msgs", node="c1")
        c = reg.counter("msgs", node="c2")
        assert a is b and a is not c

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.histogram("phase_s", proc="attach", phase="cta")
        b = reg.histogram("phase_s", phase="cta", proc="attach")
        assert a is b

    def test_gauge_tracks_peak_and_last(self):
        now = [0.0]
        reg = MetricsRegistry(lambda: now[0])
        gauge = reg.gauge("log_bytes", node="cta-10")
        gauge.set(100.0)
        now[0] = 1.0
        gauge.set(40.0)
        assert gauge.max_value == 100.0
        assert gauge.value == 40.0

    def test_snapshot_is_json_able_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_counter").inc(2)
        reg.counter("a_counter").inc()
        reg.histogram("h", k="v").observe(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert [c["name"] for c in snap["counters"]] == ["a_counter", "b_counter"]
        assert snap["histograms"][0] == {
            "name": "h", "labels": {"k": "v"}, **row_of([1.5])
        }


class TestHistogramFastPath:
    def test_subclass_overriding_observe_is_not_shadowed(self):
        class Doubling(Tally):
            def observe(self, value):
                super().observe(value * 2)

        tally = Doubling("d")
        assert "observe" not in tally.__dict__  # override must win
        tally.observe(3.0)
        assert tally.values == [6.0]

    def test_subclass_skipping_init_still_works(self):
        class Lazy(Tally):
            def __init__(self):
                pass  # forgot super().__init__() — the old footgun

            def observe(self, value):
                super().observe(value)

        tally = Lazy()
        tally.observe(1.0)
        tally.observe(2.0)
        assert tally.values == [1.0, 2.0]


class TestMerge:
    def _snap(self, counter=0, values=(), peak=0.0, avg=0.0):
        return {
            "counters": [{"name": "c", "labels": {}, "value": counter}],
            "gauges": [
                {"name": "g", "labels": {}, "last": avg, "max": peak,
                 "time_average": avg}
            ],
            "histograms": [{"name": "h", "labels": {}, **row_of(values)}],
        }

    def test_counters_sum_histograms_concat_gauges_peak(self):
        merged = merge_snapshots([
            self._snap(counter=2, values=[1.0], peak=10.0, avg=4.0),
            None,  # a point run without obs
            self._snap(counter=3, values=[2.0, 3.0], peak=7.0, avg=6.0),
        ])
        assert merged["counters"][0]["value"] == 5
        assert merged["histograms"][0] == {
            "name": "h", "labels": {}, **row_of([1.0, 2.0, 3.0])
        }
        assert merged["gauges"][0]["max"] == 10.0
        assert merged["gauges"][0]["time_average"] == pytest.approx(5.0)

    def test_summarize_histogram(self):
        stats = summarize_histogram(row_of([3.0, 1.0, 2.0, 4.0]))
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["max"] == 4.0


class TestParallelAggregation:
    def _jobs(self):
        spec = RunSpec(
            procedure="service_request",
            procedures_target=120,
            min_duration_s=0.02,
            max_duration_s=0.05,
            obs_mode="metrics",
        )
        config = ControlPlaneConfig.neutrino()
        return [SweepJob(config, rate, spec) for rate in (60e3, 100e3)]

    def test_parallel_merge_is_bit_identical_to_serial(self):
        serial = run_jobs(self._jobs(), jobs=1)
        parallel = run_jobs(self._jobs(), jobs=2)
        merged_serial = merge_snapshots([p.obs["metrics"] for p in serial])
        merged_parallel = merge_snapshots([p.obs["metrics"] for p in parallel])
        # Bit-identical, not approximately equal: same JSON bytes.
        assert json.dumps(merged_serial, sort_keys=True) == json.dumps(
            merged_parallel, sort_keys=True
        )
        for s, p in zip(serial, parallel):
            assert s.obs == p.obs


def test_repeated_lookup_returns_the_same_instrument_however_spelled():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    a = reg.histogram("phase_s", proc="sr", phase="cta")
    assert reg.histogram("phase_s", proc="sr", phase="cta") is a
    assert reg.histogram("phase_s", phase="cta", proc="sr") is a
    assert reg.counter("phase_s", proc="sr", phase="cta") is not a
    assert len(reg.snapshot()["histograms"]) == 1
