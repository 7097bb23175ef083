"""Tests for arrival processes."""

import random

import pytest

from repro.traffic import bursty_arrivals, poisson_arrivals


class TestPoisson:
    def test_mean_rate_approximately_right(self):
        rng = random.Random(1)
        times = list(poisson_arrivals(1000.0, 2.0, rng))
        assert 1700 < len(times) < 2300

    def test_all_within_window(self):
        rng = random.Random(2)
        times = list(poisson_arrivals(100.0, 1.0, rng, start_s=5.0))
        assert all(5.0 <= t < 6.0 for t in times)

    def test_strictly_increasing(self):
        rng = random.Random(3)
        times = list(poisson_arrivals(500.0, 1.0, rng))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_deterministic_given_seed(self):
        a = list(poisson_arrivals(100.0, 1.0, random.Random(7)))
        b = list(poisson_arrivals(100.0, 1.0, random.Random(7)))
        assert a == b

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            list(poisson_arrivals(0, 1.0, random.Random(1)))


class TestBursty:
    def test_all_devices_inside_window(self):
        rng = random.Random(1)
        times = list(bursty_arrivals(500, 0.02, rng))
        assert len(times) == 500
        assert all(0 <= t <= 0.02 for t in times)

    def test_sorted_within_wave(self):
        rng = random.Random(2)
        times = list(bursty_arrivals(100, 0.02, rng))
        assert times == sorted(times)

    def test_multiple_waves_spaced(self):
        rng = random.Random(3)
        times = list(bursty_arrivals(100, 0.01, rng, waves=2, wave_gap_s=1.0))
        assert len(times) == 100
        first_wave = [t for t in times if t <= 0.01]
        second_wave = [t for t in times if t >= 1.01]
        assert len(first_wave) + len(second_wave) == 100
        assert len(first_wave) == 50

    def test_remainder_devices_distributed(self):
        rng = random.Random(4)
        times = list(bursty_arrivals(101, 0.01, rng, waves=2, wave_gap_s=1.0))
        assert len(times) == 101

    def test_invalid_args(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            list(bursty_arrivals(0, 0.01, rng))
        with pytest.raises(ValueError):
            list(bursty_arrivals(10, 0, rng))
        with pytest.raises(ValueError):
            list(bursty_arrivals(10, 0.01, rng, waves=0))


# ---------------------------------------------------------- modulation


class TestRateEnvelope:
    def _diurnal(self, duration=100.0):
        from repro.traffic import RateEnvelope

        return RateEnvelope(
            duration, ((0.0, 0.6), (0.25, 1.5), (0.5, 1.2), (0.75, 0.7))
        )

    def test_validation(self):
        from repro.traffic import RateEnvelope

        with pytest.raises(ValueError):
            RateEnvelope(0.0, ((0.0, 1.0),))
        with pytest.raises(ValueError):
            RateEnvelope(1.0, ())
        with pytest.raises(ValueError):
            RateEnvelope(1.0, ((0.1, 1.0),))  # must start at 0
        with pytest.raises(ValueError):
            RateEnvelope(1.0, ((0.0, 1.0), (0.5, 2.0), (0.5, 3.0)))
        with pytest.raises(ValueError):
            RateEnvelope(1.0, ((0.0, 1.0), (1.0, 2.0)))  # frac >= 1
        with pytest.raises(ValueError):
            RateEnvelope(1.0, ((0.0, -0.1),))

    def test_segments_and_multiplier_at(self):
        env = self._diurnal(100.0)
        assert env.segments() == [
            (0.0, 25.0, 0.6),
            (25.0, 50.0, 1.5),
            (50.0, 75.0, 1.2),
            (75.0, 100.0, 0.7),
        ]
        assert env.multiplier_at(0.0) == 0.6
        assert env.multiplier_at(25.0) == 1.5
        assert env.multiplier_at(99.9) == 0.7

    def test_mean_multiplier_rate_preserving(self):
        assert self._diurnal().mean_multiplier() == pytest.approx(1.0)

    def test_advance_inverts_op_time(self):
        env = self._diurnal(100.0)
        for t in (0.0, 10.0, 25.0, 40.0, 74.9, 99.0):
            assert env.advance(0.0, env.op_time(t)) == pytest.approx(t)

    def test_advance_exhausts_to_inf(self):
        env = self._diurnal(100.0)
        assert env.advance(0.0, env.op_time(100.0) + 1e-9) == float("inf")

    def test_zero_multiplier_segment_is_skipped_exactly(self):
        from repro.traffic import RateEnvelope

        env = RateEnvelope(10.0, ((0.0, 1.0), (0.4, 0.0), (0.6, 2.0)))
        # 4 op-seconds fill [0, 4); the next instant jumps the dead zone
        assert env.advance(0.0, 4.0) == pytest.approx(4.0)
        assert env.advance(0.0, 4.0 + 1e-6) == pytest.approx(6.0 + 5e-7)
        assert env.op_time(6.0) == pytest.approx(4.0)


class TestModulated:
    def _stream(self, envelope=None, duration=200.0, seed=7, rate=2.0):
        from repro.traffic import modulated_arrivals

        rng = random.Random(seed)
        return list(
            modulated_arrivals(
                lambda r: r.expovariate(rate), duration, rng, envelope
            )
        )

    def test_without_envelope_is_plain_renewal(self):
        from repro.traffic import poisson_arrivals

        times = self._stream()
        want = list(poisson_arrivals(2.0, 200.0, random.Random(7)))
        assert times == pytest.approx(want)

    def test_zero_rate_stream_yields_no_events(self):
        from repro.traffic import modulated_arrivals

        out = list(
            modulated_arrivals(
                lambda r: float("inf"), 100.0, random.Random(1)
            )
        )
        assert out == []

    def test_breakpoints_no_duplicates_no_disorder(self):
        from repro.traffic import RateEnvelope

        env = RateEnvelope(
            50.0, ((0.0, 0.5), (0.2, 3.0), (0.4, 0.0), (0.6, 2.0), (0.8, 1.0))
        )
        times = self._stream(env, duration=50.0, rate=20.0)
        assert len(times) > 500
        assert all(b > a for a, b in zip(times, times[1:])), (
            "duplicate or out-of-order timestamps across breakpoints"
        )
        assert all(0.0 <= t < 50.0 for t in times)

    def test_dead_segment_emits_nothing(self):
        from repro.traffic import RateEnvelope

        env = RateEnvelope(50.0, ((0.0, 1.0), (0.4, 0.0), (0.6, 1.0)))
        times = self._stream(env, duration=50.0, rate=20.0)
        assert times, "live segments must still emit"
        assert not [t for t in times if 20.0 <= t < 30.0], (
            "zero-multiplier segment emitted arrivals"
        )

    def test_negative_gap_rejected(self):
        from repro.traffic import modulated_arrivals

        with pytest.raises(ValueError, match="negative"):
            list(
                modulated_arrivals(lambda r: -1.0, 10.0, random.Random(1))
            )


class TestCompound:
    def test_burst_size_one_degenerates_to_poisson(self):
        from repro.traffic import compound_arrivals, poisson_arrivals

        got = list(compound_arrivals(5.0, 30.0, random.Random(3)))
        want = list(poisson_arrivals(5.0, 30.0, random.Random(3)))
        assert got == pytest.approx(want)

    def test_burst_size_multiplies_arrivals(self):
        from repro.traffic import compound_arrivals

        triggers = list(compound_arrivals(5.0, 30.0, random.Random(3)))
        bursts = list(
            compound_arrivals(5.0, 30.0, random.Random(3), burst_size=4)
        )
        assert len(bursts) == 4 * len(triggers)

    def test_jittered_bursts_sorted_and_clipped(self):
        from repro.traffic import compound_arrivals

        times = list(
            compound_arrivals(
                2.0, 10.0, random.Random(9), burst_size=8, jitter_s=1.5
            )
        )
        assert times, "bursts must fire"
        assert all(0.0 <= t < 10.0 for t in times)

    def test_invalid_args(self):
        from repro.traffic import compound_arrivals

        with pytest.raises(ValueError):
            list(compound_arrivals(1.0, 1.0, random.Random(1), burst_size=0))
        with pytest.raises(ValueError):
            list(compound_arrivals(1.0, 1.0, random.Random(1), jitter_s=-1))
