"""Measurement probes: tallies, counters, time-weighted series.

The experiment harness attaches these to the simulated network to collect
procedure completion times (PCTs), queue depths, and log sizes, and to
summarize them as the percentiles the paper plots.
"""

from __future__ import annotations

import math
from bisect import insort as bisect_insort
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Tally",
    "Counter",
    "TimeWeighted",
    "percentile",
    "summarize",
    "imbalance",
    "P2Quantile",
    "QuantileSketch",
]


def imbalance(values: Iterable[float]) -> float:
    """Peak-to-mean ratio of a non-negative load vector.

    1.0 means perfectly balanced; K means the busiest element carries K
    times the average load (the classic load-imbalance factor).  Empty
    or all-zero inputs report 1.0 — nothing is imbalanced about no
    load.  Used by the sharded-run heartbeat stream to report how far
    the slowest shard is ahead of its siblings.
    """
    vals = [float(v) for v in values]
    if not vals:
        return 1.0
    mean = sum(vals) / len(vals)
    if mean <= 0.0:
        return 1.0
    return max(vals) / mean


_RAISE = object()  # sentinel: distinguish "no default" from default=None


def percentile(sorted_values: Sequence[float], q: float, default: Any = _RAISE) -> Any:
    """Linear-interpolation percentile of a pre-sorted sequence.

    ``q`` is in [0, 100].  Matches numpy's default method so results are
    comparable with any external analysis.  An empty sequence raises
    unless ``default`` is given (warmup-only measurement windows produce
    legitimately empty tallies; callers pass ``default=None`` to report
    "no data" instead of crashing a whole sweep).
    """
    if not sorted_values:
        if default is _RAISE:
            raise ValueError("percentile of empty sequence")
        return default
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100], got %r" % (q,))
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return float(sorted_values[lo])
    frac = rank - lo
    return float(sorted_values[lo]) * (1 - frac) + float(sorted_values[hi]) * frac


class Tally:
    """Accumulates individual observations (e.g. one PCT per procedure)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.values: List[float] = []
        # Per-sample hot path: bind observe straight to list.append so
        # each observation is one C call, no Python frame.  Only when
        # the subclass hasn't overridden observe — the bound append
        # would silently shadow an override otherwise.
        if type(self).observe is Tally.observe:
            self.observe = self.values.append

    def observe(self, value: float) -> None:  # noqa: F811 — shadowed by the bound append
        # Reached only without the bound fast path: an overriding
        # subclass calling up, or one that skipped super().__init__
        # entirely (then self.values may not exist yet — create it so
        # the probe still works instead of raising AttributeError).
        values = self.__dict__.get("values")
        if values is None:
            values = self.values = []
        values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError("tally %r is empty" % (self.name,))
        return sum(self.values) / len(self.values)

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def percentile(self, q: float) -> Optional[float]:
        """Percentile of the observations, or ``None`` when empty.

        Unlike the module-level :func:`percentile` (whose contract is a
        hard error on empty input), a tally is a measurement probe: an
        empty one just means the window saw no observations — e.g. a
        warmup-only window — and reports ``None`` rather than raising.
        """
        return percentile(sorted(self.values), q, default=None)

    @property
    def median(self) -> Optional[float]:
        return self.percentile(50.0)

    def summary(self, qs: Iterable[float] = (5, 25, 50, 75, 95, 99)) -> Dict[str, float]:
        ordered = sorted(self.values)
        out = {"count": float(len(ordered))}
        if ordered:
            out["mean"] = self.mean
            out["min"] = ordered[0]
            out["max"] = ordered[-1]
            for q in qs:
                out["p%g" % q] = percentile(ordered, q)
        return out


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac 1985).

    Five markers track the running estimate in O(1) memory and O(1)
    time per observation — no sample list ever exists, which is what
    lets a city-scale run observe millions of procedure completions
    without the per-UE :class:`Tally` lists the small sweeps use.  The
    first five observations are stored exactly; afterwards marker
    heights move by the piecewise-parabolic (P²) update.
    """

    __slots__ = ("q", "_n", "_heights", "_positions", "_desired", "_rate", "count")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1), got %r" % (q,))
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            bisect_insort(heights, value)
            return
        positions = self._positions
        # Locate the cell and clamp the extremes.
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        rate = self._rate
        for i in range(5):
            desired[i] += rate[i]
        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            below, above = positions[i] - positions[i - 1], positions[i + 1] - positions[i]
            if (d >= 1.0 and above > 1.0) or (d <= -1.0 and below > 1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> Optional[float]:
        """The current estimate, or ``None`` before any observation."""
        heights = self._heights
        if not heights:
            return None
        if len(heights) < 5 or self.count <= 5:
            # Exact while the sample fits in the marker buffer.
            return percentile(heights, self.q * 100.0)
        return heights[2]

    def atoms(self) -> List[Tuple[float, float]]:
        """The estimator's state as weighted sample atoms, for merging.

        While the sample still fits in the marker buffer the atoms are
        the exact observations (weight 1 each).  Afterwards each of the
        five markers stands for the slice of the sorted stream it has
        absorbed; splitting each inter-marker gap evenly between its two
        endpoints gives marker ``i`` the weight
        ``(pos[i+1] - pos[i-1]) / 2`` (the extremes keep their own
        half-gap plus the sample they pin), which telescopes to exactly
        ``count``.  A weighted percentile over the atoms of several
        estimators is the deterministic cross-shard combine rule.
        """
        heights = self._heights
        if not heights:
            return []
        if len(heights) < 5 or self.count <= 5:
            return [(float(h), 1.0) for h in heights]
        pos = self._positions
        weights = (
            (pos[1] - pos[0]) / 2.0 + 0.5,
            (pos[2] - pos[0]) / 2.0,
            (pos[3] - pos[1]) / 2.0,
            (pos[4] - pos[2]) / 2.0,
            (pos[4] - pos[3]) / 2.0 + 0.5,
        )
        return [(float(heights[i]), weights[i]) for i in range(5)]


def _weighted_percentile(
    atoms: Iterable[Tuple[float, float]], q: float
) -> Optional[float]:
    """Percentile ``q`` in (0,1) of weighted sample atoms.

    Midpoint-cumulative rule: atom ``i`` sits at cumulative mass
    ``(sum of weights before it) + w_i / 2``; the estimate linearly
    interpolates between neighbouring atoms and clamps to the extreme
    atom values outside their midpoints.  With unit weights and
    ``n`` values this lands within half a rank of the exact
    linear-interpolation percentile.  Pure float arithmetic over a
    sorted list — deterministic for a fixed multiset of atoms.
    """
    ordered = sorted((float(v), float(w)) for v, w in atoms if w > 0.0)
    if not ordered:
        return None
    total = sum(w for _, w in ordered)
    target = q * total
    points: List[Tuple[float, float]] = []
    cum = 0.0
    for v, w in ordered:
        points.append((cum + w / 2.0, v))
        cum += w
    if target <= points[0][0]:
        return points[0][1]
    if target >= points[-1][0]:
        return points[-1][1]
    for j in range(1, len(points)):
        c1, v1 = points[j]
        if target <= c1:
            c0, v0 = points[j - 1]
            if c1 <= c0:
                return v1
            frac = (target - c0) / (c1 - c0)
            return v0 + (v1 - v0) * frac
    return points[-1][1]


class _FrozenQuantile:
    """Read-only stand-in estimator inside a merged sketch.

    Holds the combined estimate for one quantile.  A merged sketch in
    the mixture regime has no stream to keep observing, so ``observe``
    refuses loudly instead of silently degrading the estimate.
    """

    __slots__ = ("q", "_value", "count")

    def __init__(self, q: float, value: Optional[float], count: int):
        self.q = q
        self._value = value
        self.count = count

    def value(self) -> Optional[float]:
        return self._value

    def observe(self, value: float) -> None:
        raise TypeError(
            "merged QuantileSketch is read-only (mixture regime); "
            "merge again instead of observing"
        )

    def atoms(self) -> List[Tuple[float, float]]:
        # Re-merging a merged sketch: the whole mass collapses onto the
        # estimate.  Coarse, but deterministic and mass-preserving.
        if self._value is None:
            return []
        return [(self._value, float(self.count))]


class QuantileSketch:
    """Bounded-memory replacement for :class:`Tally` at population scale.

    Tracks count/mean/min/max exactly and a fixed set of quantiles
    approximately (one :class:`P2Quantile` each).  Memory is O(1) per
    sketch regardless of how many observations stream through, so a
    100k-UE scenario can keep one per (region, procedure) pair.

    ``spill`` bounds an optional raw-sample buffer: while the stream
    fits (``count <= spill``) the raw values are retained in arrival
    order and quantile reads are exact; the first observation past the
    bound drops the buffer and reads fall back to the P² estimators
    (which are eagerly fed from the start, so the fallback loses
    nothing).  Sharded runs use a small spill so cross-shard merges of
    lightly-loaded (region, procedure) cells stay exact.
    """

    __slots__ = ("name", "count", "_sum", "_min", "_max", "_quantiles", "spill", "_raw")

    DEFAULT_QS = (0.50, 0.95, 0.99)

    def __init__(
        self, name: str = "", qs: Iterable[float] = DEFAULT_QS, spill: int = 0
    ):
        self.name = name
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._quantiles = {q: P2Quantile(q) for q in qs}
        self.spill = int(spill)
        self._raw: Optional[List[float]] = [] if self.spill > 0 else None

    def observe(self, value: float) -> None:
        value = float(value)
        # feed the estimators first: a frozen (merged-mixture) sketch
        # rejects the observation before any scalar is touched
        for est in self._quantiles.values():
            est.observe(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        raw = self._raw
        if raw is not None:
            if self.count <= self.spill:
                raw.append(value)
            else:
                self._raw = None  # overflow: sketch-only from here on

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self.count if self.count else None

    @property
    def min(self) -> Optional[float]:
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate for ``q`` in (0,1); the sketch must track it.

        Each tracked quantile runs its own independent P² estimator,
        and independent approximations can cross on adversarial streams
        (heavy duplicates punctuated by rare spikes drive the p95
        marker above p99's).  Reads are therefore isotonically clamped:
        the estimate for ``q`` is the running max of the raw estimates
        over all tracked ``q' <= q``, so reported quantiles are always
        monotone in ``q``.  Every raw estimate already lies in
        ``[min, max]`` (the extreme markers track them exactly), so the
        clamped value does too.
        """
        try:
            est = self._quantiles[q]
        except KeyError:
            raise KeyError(
                "sketch %r does not track q=%r (has: %s)"
                % (self.name, q, sorted(self._quantiles))
            )
        if self._raw is not None:
            # Spill regime: the raw sample still fits — read it exactly.
            return percentile(sorted(self._raw), q * 100.0, default=None)
        value = est.value()
        if value is None:
            return None
        for other_q, other in self._quantiles.items():
            if other_q < q:
                low = other.value()
                if low is not None and low > value:
                    value = low
        return value

    def percentile(self, q: float) -> Optional[float]:
        """Tally-compatible accessor; ``q`` in [0, 100]."""
        return self.quantile(q / 100.0)

    def summary(self) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {"count": float(self.count)}
        if self.count:
            out["mean"] = self.mean
            out["min"] = self._min
            out["max"] = self._max
            if self._raw is not None:
                ordered = sorted(self._raw)
                for q in sorted(self._quantiles):
                    out["p%g" % (q * 100.0)] = percentile(ordered, q * 100.0)
                return out
            floor = -math.inf
            for q, est in sorted(self._quantiles.items()):
                value = est.value()
                if value is not None:
                    # same isotonic clamp as quantile(): running max
                    if value < floor:
                        value = floor
                    floor = value
                out["p%g" % (q * 100.0)] = value
        return out

    @classmethod
    def merge(cls, sketches: Iterable["QuantileSketch"], name: str = "") -> "QuantileSketch":
        """Deterministically combine sketches of the same tracked quantiles.

        count/sum/min/max merge exactly.  If **every** input still holds
        its raw spill buffer, the merge is exact: the concatenated raw
        values are replayed (sorted, for input-order independence) into
        a fresh sketch whose spill bound covers the merged sample, so
        hierarchical merges stay exact too.  Otherwise the merge is a
        mixture combine: per tracked quantile, each input contributes
        its weighted sample atoms (raw values at weight 1, or the five
        P² marker atoms) and the estimate is their weighted percentile,
        clamped into the exact [min, max].  The mixture result is
        read-only — its estimators cannot absorb new observations.
        """
        inputs = [s for s in sketches if s is not None]
        if not inputs:
            return cls(name)
        qs = sorted(inputs[0]._quantiles)
        for s in inputs[1:]:
            if sorted(s._quantiles) != qs:
                raise ValueError(
                    "cannot merge sketches tracking different quantiles: %s vs %s"
                    % (qs, sorted(s._quantiles))
                )
        total = sum(s.count for s in inputs)
        if all(s._raw is not None for s in inputs):
            spill = max([total] + [s.spill for s in inputs])
            merged = cls(name, qs=qs, spill=spill)
            for value in sorted(v for s in inputs for v in s._raw):
                merged.observe(value)
            return merged
        out = cls(name, qs=qs)
        out.count = total
        out._sum = sum(s._sum for s in inputs)
        live = [s for s in inputs if s.count]
        if live:
            out._min = min(s._min for s in live)
            out._max = max(s._max for s in live)
        for q in qs:
            atoms: List[Tuple[float, float]] = []
            for s in live:
                if s._raw is not None:
                    atoms.extend((float(v), 1.0) for v in s._raw)
                else:
                    atoms.extend(s._quantiles[q].atoms())
            estimate = _weighted_percentile(atoms, q)
            if estimate is not None:
                estimate = min(max(estimate, out._min), out._max)
            out._quantiles[q] = _FrozenQuantile(q, estimate, total)
        return out


class Counter:
    """Named monotone counters (messages sent, deadlines missed, ...)."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, by: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + by

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class TimeWeighted:
    """Tracks a piecewise-constant quantity over time (queue/log size).

    Records (time, value) breakpoints; exposes the time-average and the
    maximum, which is what Fig. 17 (max CTA log size) needs.
    """

    def __init__(self, sim_now, initial: float = 0.0):
        # sim_now is a zero-arg callable returning the current sim time, so
        # the probe stays decoupled from the Simulator class.
        self._now = sim_now
        self._last_t = sim_now()
        self._value = initial
        self._area = 0.0
        self._start = self._last_t
        self.max_value = initial
        self.max_time = self._last_t

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self.set_at(self._now(), value)

    def set_at(self, t: float, value: float) -> None:
        """``set`` for a caller that already holds the current time."""
        self._area += self._value * (t - self._last_t)
        self._last_t = t
        self._value = value
        if value > self.max_value:
            self.max_value = value
            self.max_time = t

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def time_average(self) -> float:
        t = self._now()
        elapsed = t - self._start
        if elapsed <= 0:
            return self._value
        return (self._area + self._value * (t - self._last_t)) / elapsed


def summarize(
    tallies: Dict[str, Tally], qs: Iterable[float] = (50, 95, 99)
) -> Dict[str, Dict[str, float]]:
    """Summaries for a dict of tallies; empty tallies yield count=0 rows."""
    return {name: tally.summary(qs) for name, tally in tallies.items()}
