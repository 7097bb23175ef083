"""Arrival processes: Poisson, bursty, modulated, and compound.

The paper drives its testbed with two patterns: (i) uniform traffic at a
pre-specified number of control procedures per second, and (ii) bursty
traffic emulating a large number of IoT devices sending requests in a
synchronized pattern.  Both are reproduced here as deterministic-seed
generators of arrival timestamps: (i) as an open-loop Poisson process
at that rate.

The measured traffic models (``traffic.models``, after Meng et al.,
*Characterizing and Modeling Control-Plane Traffic for Mobile Core
Network*) additionally need renewal processes with non-exponential gap
distributions, piecewise-constant diurnal rate modulation, and
correlated bursts.  The modulation primitive here is *exact*: gaps are
drawn in operational time and mapped through the inverse integrated
rate of a :class:`RateEnvelope`, so — unlike thinning — there is no
candidate-rate ceiling to get wrong and breakpoints can never emit
duplicate or out-of-order timestamps.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "RateEnvelope",
    "modulated_arrivals",
    "compound_arrivals",
]


def poisson_arrivals(
    rate_per_s: float,
    duration_s: float,
    rng: random.Random,
    start_s: float = 0.0,
) -> Iterator[float]:
    """Poisson process arrivals (exponential gaps) — open-loop traffic."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    t = start_s
    end = start_s + duration_s
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= end:
            return
        yield t


def bursty_arrivals(
    n_devices: int,
    window_s: float,
    rng: random.Random,
    start_s: float = 0.0,
    waves: int = 1,
    wave_gap_s: float = 0.0,
) -> Iterator[float]:
    """Synchronized IoT burst: ``n_devices`` requests inside ``window_s``.

    Devices wake on a shared trigger (firmware timer, network event) and
    fire almost simultaneously — arrival jitter inside the window is
    uniform.  ``waves`` repeats the burst, separated by ``wave_gap_s``.
    """
    if n_devices <= 0:
        raise ValueError("need at least one device")
    if window_s <= 0:
        raise ValueError("window must be positive")
    if waves < 1:
        raise ValueError("waves must be >= 1")
    per_wave = n_devices // waves
    remainder = n_devices - per_wave * waves
    t0 = start_s
    for wave in range(waves):
        count = per_wave + (1 if wave < remainder else 0)
        offsets = sorted(rng.random() * window_s for _ in range(count))
        for off in offsets:
            yield t0 + off
        t0 += window_s + wave_gap_s


# ------------------------------------------------------------- modulation


class RateEnvelope:
    """Piecewise-constant rate multiplier over a run of ``duration_s``.

    ``points`` is a sorted tuple of ``(start_frac, multiplier)`` pairs:
    the multiplier applies from ``start_frac * duration_s`` until the
    next breakpoint (the last segment runs to the end of the window).
    The first point must start at fraction 0.  Multipliers may be 0
    (dead segment — no arrivals inside it) but not negative.

    The envelope maps *operational time* (the renewal process's own
    clock, in which gaps are i.i.d. draws from the base distribution)
    to wall time: a segment of wall length ``L`` at multiplier ``m``
    holds ``L * m`` operational seconds.  :meth:`advance` inverts that
    integral exactly, so modulation introduces no thinning bias and no
    breakpoint artifacts.
    """

    def __init__(
        self, duration_s: float, points: Sequence[Tuple[float, float]]
    ):
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not points:
            raise ValueError("envelope needs at least one point")
        fracs = [f for f, _m in points]
        if fracs[0] != 0.0:
            raise ValueError("first envelope point must start at fraction 0")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("envelope fractions must be strictly increasing")
        if fracs[-1] >= 1.0:
            raise ValueError("envelope fractions must lie in [0, 1)")
        if any(m < 0 for _f, m in points):
            raise ValueError("multipliers must be non-negative")
        self.duration_s = duration_s
        self.points = tuple((float(f), float(m)) for f, m in points)
        bounds = [f * duration_s for f, _m in self.points] + [duration_s]
        self._segments: List[Tuple[float, float, float]] = [
            (bounds[i], bounds[i + 1], self.points[i][1])
            for i in range(len(self.points))
        ]

    def multiplier_at(self, t: float) -> float:
        """The multiplier in force at wall time ``t`` (clamped)."""
        for start, end, mult in self._segments:
            if start <= t < end:
                return mult
        return self._segments[-1][2] if t >= self.duration_s else self._segments[0][2]

    def segments(self) -> List[Tuple[float, float, float]]:
        """``(start_s, end_s, multiplier)`` triples, in order."""
        return list(self._segments)

    def mean_multiplier(self) -> float:
        """Time-average multiplier (1.0 = rate-preserving envelope)."""
        return sum((e - s) * m for s, e, m in self._segments) / self.duration_s

    def op_time(self, t: float) -> float:
        """Operational seconds accumulated over wall ``[0, t]``.

        The exact inverse of :meth:`advance`: mapping a modulated
        arrival stream through ``op_time`` recovers the raw renewal
        gaps, which is how the calibration suite KS-tests enveloped
        processes against their base distribution.
        """
        total = 0.0
        for start, end, mult in self._segments:
            if start >= t:
                break
            total += (min(t, end) - start) * mult
        return total

    def advance(self, t: float, op_gap: float) -> float:
        """Wall time ``op_gap`` operational seconds after wall time ``t``.

        Returns ``inf`` when the remaining envelope cannot absorb the
        gap (stream exhausted).  Zero-multiplier segments contribute no
        operational time and are skipped exactly.
        """
        if op_gap <= 0.0:
            return t
        remaining = op_gap
        cur = t
        for start, end, mult in self._segments:
            if end <= cur:
                continue
            lo = max(cur, start)
            if mult <= 0.0:
                continue
            capacity = (end - lo) * mult
            if remaining <= capacity:
                return lo + remaining / mult
            remaining -= capacity
        return float("inf")


def modulated_arrivals(
    gap_fn: Callable[[random.Random], float],
    duration_s: float,
    rng: random.Random,
    envelope: Optional[RateEnvelope] = None,
    start_s: float = 0.0,
) -> Iterator[float]:
    """Renewal process with gaps from ``gap_fn``, modulated by ``envelope``.

    ``gap_fn(rng)`` draws one inter-arrival gap in operational time; a
    gap of ``inf`` (the zero-rate degenerate case) ends the stream
    immediately, yielding no events.  Without an envelope the stream is
    the plain renewal process; with one, gaps are mapped through the
    envelope's inverse integrated rate (exact inhomogeneous sampling).
    """
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    end = start_s + duration_s
    t = start_s
    while True:
        gap = gap_fn(rng)
        if gap < 0:
            raise ValueError("gap_fn returned a negative gap")
        if math.isinf(gap):
            return
        if envelope is None:
            t += gap
        else:
            t = start_s + envelope.advance(t - start_s, gap)
        if t >= end:
            return
        yield t


def compound_arrivals(
    trigger_rate_per_s: float,
    duration_s: float,
    rng: random.Random,
    burst_size: int = 1,
    jitter_s: float = 0.0,
    start_s: float = 0.0,
) -> Iterator[float]:
    """Correlated-burst (compound Poisson) arrivals.

    Burst *triggers* form a Poisson process at ``trigger_rate_per_s``;
    each trigger releases ``burst_size`` arrivals jittered uniformly
    over ``[0, jitter_s)`` after it (synchronized device cohorts waking
    on a shared event).  With ``burst_size == 1`` and ``jitter_s == 0``
    the generator draws nothing beyond the trigger gaps and degenerates
    exactly to :func:`poisson_arrivals`.  Arrivals past the window end
    are clipped.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if jitter_s < 0:
        raise ValueError("jitter must be non-negative")
    end = start_s + duration_s
    for trigger in poisson_arrivals(trigger_rate_per_s, duration_s, rng, start_s):
        if jitter_s == 0.0:
            for _ in range(burst_size):
                yield trigger
            continue
        offsets = sorted(rng.random() * jitter_s for _ in range(burst_size))
        for off in offsets:
            t = trigger + off
            if t < end:
                yield t
