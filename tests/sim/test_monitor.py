"""Tests for measurement probes: percentiles, tallies, time-weighted."""

import pytest

from repro.sim import Counter, Simulator, Tally, TimeWeighted, percentile
from repro.sim.monitor import ALPHA, QuantileSketch


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_median_odd(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100

    def test_matches_numpy_linear_method(self):
        numpy = pytest.importorskip("numpy")
        data = sorted([0.3, 1.7, 2.2, 9.9, 4.4, 0.1])
        for q in (5, 25, 50, 75, 95):
            assert percentile(data, q) == pytest.approx(
                float(numpy.percentile(data, q))
            )

    def test_empty_with_default_returns_default(self):
        # warmup-only windows legitimately produce empty tallies; sweeps
        # pass a default instead of crashing on the first idle point.
        assert percentile([], 50, default=None) is None
        assert percentile([], 99, default=0.0) == 0.0

    def test_default_not_used_when_data_present(self):
        assert percentile([3.0], 50, default=None) == 3.0

    def test_out_of_range_q_still_rejected_with_data(self):
        with pytest.raises(ValueError):
            percentile([1.0], 200, default=None)


class TestTally:
    def test_basic_stats(self):
        tally = Tally("pct")
        for v in (1.0, 2.0, 3.0):
            tally.observe(v)
        assert tally.count == 3
        assert tally.mean == pytest.approx(2.0)
        assert tally.min == 1.0
        assert tally.max == 3.0
        assert tally.median == 2.0

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            _ = Tally().mean

    def test_summary_keys(self):
        tally = Tally()
        tally.observe(5.0)
        summary = tally.summary(qs=(50, 95))
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95"}

    def test_summary_empty_has_count_zero(self):
        assert Tally().summary() == {"count": 0.0}

    def test_empty_percentile_is_none(self):
        # the probe contract differs from the module function on purpose:
        # "no observations" is a value, not an error.
        tally = Tally("idle")
        assert tally.percentile(50) is None
        assert tally.percentile(99) is None
        assert tally.median is None

    def test_percentile_after_observations(self):
        tally = Tally()
        for v in (4.0, 1.0, 3.0, 2.0):
            tally.observe(v)
        assert tally.percentile(50) == pytest.approx(2.5)
        assert tally.median == pytest.approx(2.5)
        assert tally.percentile(100) == 4.0


class TestCounter:
    def test_incr_and_read(self):
        counter = Counter()
        counter.incr("x")
        counter.incr("x", 4)
        assert counter["x"] == 5
        assert counter["missing"] == 0

    def test_as_dict_snapshot(self):
        counter = Counter()
        counter.incr("a")
        snapshot = counter.as_dict()
        counter.incr("a")
        assert snapshot == {"a": 1}


class TestTimeWeighted:
    def test_max_tracking(self):
        sim = Simulator()
        probe = TimeWeighted(lambda: sim.now)
        sim.schedule(1.0, probe.set, 10)
        sim.schedule(2.0, probe.set, 3)
        sim.run()
        assert probe.max_value == 10
        assert probe.max_time == 1.0

    def test_time_average(self):
        sim = Simulator()
        probe = TimeWeighted(lambda: sim.now)
        sim.schedule(1.0, probe.set, 10.0)
        sim.schedule(2.0, probe.set, 0.0)
        sim.run(until=2.0)
        # 1s at 0 + 1s at 10 over 2s = 5
        assert probe.time_average() == pytest.approx(5.0)

    def test_add_is_relative(self):
        sim = Simulator()
        probe = TimeWeighted(lambda: sim.now, initial=5.0)
        probe.add(3.0)
        probe.add(-2.0)
        assert probe.value == 6.0

    def test_zero_elapsed_average_is_current(self):
        sim = Simulator()
        probe = TimeWeighted(lambda: sim.now, initial=4.0)
        assert probe.time_average() == 4.0


class TestTallySubclassing:
    """Regression tests for the observe-shadowing footgun: Tally binds
    ``observe`` to ``values.append`` per instance for speed, which used
    to silently shadow subclass overrides."""

    def test_base_tally_has_bound_fast_path(self):
        tally = Tally("t")
        assert "observe" in tally.__dict__
        tally.observe(1.0)
        assert tally.values == [1.0]

    def test_override_is_not_shadowed(self):
        class MsTally(Tally):
            def observe(self, value):
                super().observe(value * 1e3)

        tally = MsTally("ms")
        assert "observe" not in tally.__dict__
        tally.observe(0.5)
        assert tally.values == [500.0]
        assert tally.count == 1

    def test_override_without_super_init_does_not_crash(self):
        class Bare(Tally):
            def __init__(self):
                pass

            def observe(self, value):
                super().observe(value)

        tally = Bare()
        tally.observe(2.0)
        assert tally.values == [2.0]


class TestQuantileSketch:
    def test_exact_moments_and_bounded_memory(self):
        import random

        rng = random.Random(3)
        sketch = QuantileSketch("lat")
        values = [rng.expovariate(1.0) for _ in range(20000)]
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert abs(sketch.mean - sum(values) / len(values)) < 1e-9
        # slots only, no growing list of samples: one count per 2% bin
        assert not hasattr(sketch, "__dict__")
        assert len(sketch.bins) < 2000

    def test_summary_shape_matches_engine_expectations(self):
        sketch = QuantileSketch("x")
        assert sketch.summary() == {"count": 0.0}
        for v in (1.0, 2.0, 3.0):
            sketch.observe(v)
        summary = sketch.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        assert summary["count"] == 3.0
        assert abs(summary["p50"] - 2.0) <= ALPHA * 2.0

    def test_untracked_quantile_raises(self):
        sketch = QuantileSketch("x")
        sketch.observe(1.0)
        for q in (-0.01, 1.5, 99.0):
            with pytest.raises(ValueError):
                sketch.quantile(q)
        assert sketch.quantile(0.0) == sketch.quantile(1.0) == 1.0

    def test_accuracy_against_tally(self):
        import random

        rng = random.Random(11)
        sketch = QuantileSketch("lat")
        tally = Tally("lat")
        for _ in range(8000):
            v = rng.lognormvariate(0.0, 1.0)
            sketch.observe(v)
            tally.observe(v)
        ordered = sorted(tally.values)
        for q in (0.50, 0.95, 0.99):
            exact = ordered[int(q * (len(ordered) - 1))]
            approx = sketch.quantile(q)
            assert abs(approx - exact) <= ALPHA * exact, (q, approx, exact)


class TestQuantileMonotonicity:
    """Reported quantiles are monotone in q and inside [min, max]."""

    # Heavy-duplicate stream (generated with random.Random(1): 60% exact
    # 1.0, 30% 1.0+tiny jitter, 10% large spikes) on which independent
    # per-quantile streaming estimators read p95 above p99.
    CROSSING_STREAM = [
        1.0, 1.0000007637746189, 1.0, 1.0, 1.0, 1.000000788723351, 1.0,
        1.0, 1.000000432767068, 1.0000000021060533, 1.0,
        1.0000002287622212, 90.14274576114836, 1.0, 1.0, 1.0,
        38.12042376882124, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        1.0, 1.0, 1.0, 1.0000005564543226, 1.000000185906266,
        85.99465287952899, 1.0,
    ]

    def test_pinned_crossing_stream_reads_monotone(self):
        sketch = QuantileSketch("pinned")
        for v in self.CROSSING_STREAM:
            sketch.observe(v)
        assert sketch.quantile(0.50) <= sketch.quantile(0.95) <= sketch.quantile(0.99)
        summary = sketch.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        for q in (0.50, 0.95, 0.99):
            assert summary["p%g" % (q * 100.0)] == sketch.quantile(q)

    def test_reads_monotone_and_bounded_on_random_streams(self):
        import random

        for seed in range(40):
            rng = random.Random(seed)
            sketch = QuantileSketch("fuzz")
            for i in range(300):
                r = rng.random()
                if r < 0.6:
                    v = 1.0
                elif r < 0.9:
                    v = 1.0 + rng.random() * 1e-6
                else:
                    v = rng.random() * 100.0
                sketch.observe(v)
                s = sketch.summary()
                assert s["p50"] <= s["p95"] <= s["p99"], (seed, i)
                assert sketch.min <= s["p50"] and s["p99"] <= sketch.max, (seed, i)

    def test_monotone_ramp_stays_ordered(self):
        sketch = QuantileSketch("ramp")
        for i in range(500):
            sketch.observe(float(i))
            s = sketch.summary()
            assert s["p50"] <= s["p95"] <= s["p99"]
            assert 0.0 <= s["p50"] and s["p99"] <= float(i)

    def test_all_duplicates_collapse_to_the_value(self):
        sketch = QuantileSketch("dup")
        for _ in range(1000):
            sketch.observe(7.5)
        s = sketch.summary()
        assert s["p50"] == s["p95"] == s["p99"] == 7.5
        assert s["min"] == s["max"] == 7.5
