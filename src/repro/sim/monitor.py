"""Measurement probes: tallies, latency sketches, counters, time-weighted series.

The experiment harness attaches these to the simulated network to collect
procedure completion times (PCTs), queue depths, and log sizes, and to
summarize them as the percentiles the paper plots.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Tally",
    "Counter",
    "TimeWeighted",
    "percentile",
    "imbalance",
    "ALPHA",
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


#: relative accuracy of every quantile a :class:`QuantileSketch` reports
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LN_GAMMA = math.log(_GAMMA)


class QuantileSketch:
    """Mergeable log-bucketed latency histogram (DDSketch, Masson et al. 2019).

    A positive observation ``x`` lands in bin ``ceil(ln x / ln γ)`` with
    ``γ = (1 + ALPHA) / (1 - ALPHA)``; non-positive ones share one zero
    bin.  Only counts are stored, so memory grows with the logarithm of
    the value range, not with the number of observations.  ``count``,
    ``min`` and ``max`` are exact and a running ``sum`` gives the mean.

    ``quantile(q)`` is the midpoint ``2γ^k / (γ + 1)`` of the bin that
    holds rank ``floor(q * (count - 1))`` of the sorted sample, clamped
    to ``[min, max]``: within ``ALPHA`` relative of that rank's value,
    and monotone in ``q``.  Bins merge by adding counts, so a quantile
    table depends only on the multiset of observations — not on arrival
    order, shard count or merge tree.
    """

    __slots__ = ("name", "count", "sum", "_min", "_max", "zero", "bins")

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.zero = 0
        self.bins: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value > 0.0:
            k = math.ceil(math.log(value) / _LN_GAMMA)
            bins = self.bins
            bins[k] = bins.get(k, 0) + 1
        else:
            self.zero += 1

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    @property
    def min(self) -> Optional[float]:
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Value at rank ``floor(q * (count - 1))``, within ``ALPHA``; ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        if not self.count:
            return None
        rank = int(q * (self.count - 1))
        seen = self.zero
        value = 0.0
        if rank >= seen:
            bins = self.bins
            for k in sorted(bins):
                seen += bins[k]
                if rank < seen:
                    value = 2.0 * _GAMMA ** k / (_GAMMA + 1.0)
                    break
        return min(max(value, self._min), self._max)

    def summary(self) -> Dict[str, Optional[float]]:
        out: Dict[str, Optional[float]] = {"count": float(self.count)}
        if self.count:
            out["mean"] = self.mean
            out["min"] = self._min
            out["max"] = self._max
            for q in (0.50, 0.95, 0.99):
                out["p%g" % (q * 100.0)] = self.quantile(q)
        return out

    @classmethod
    def merge(
        cls, sketches: Iterable[Optional["QuantileSketch"]], name: str = ""
    ) -> "QuantileSketch":
        """One sketch holding every input's observations; ``None`` inputs are skipped.

        Counts add, so the merge is exact, associative and commutative
        (``sum`` aside, which is float addition), and the result can be
        observed into and merged again.
        """
        out = cls(name)
        bins = out.bins
        for s in sketches:
            if s is None:
                continue
            out.count += s.count
            out.sum += s.sum
            out._min = min(out._min, s._min)
            out._max = max(out._max, s._max)
            out.zero += s.zero
            for k, n in s.bins.items():
                bins[k] = bins.get(k, 0) + n
        return out

    # -- wire form: one row, bins sorted, so equal states give equal bytes --

    def to_row(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "bins": [[k, self.bins[k]] for k in sorted(self.bins)],
        }

    @classmethod
    def from_row(cls, row: Dict[str, Any], name: str = "") -> "QuantileSketch":
        out = cls.__new__(cls)
        out.__setstate__((name, row))
        return out

    def __getstate__(self):
        return self.name, self.to_row()

    def __setstate__(self, state) -> None:
        self.name, row = state
        self.count = row["count"]
        self.sum = row["sum"]
        self._min = row["min"] if self.count else math.inf
        self._max = row["max"] if self.count else -math.inf
        self.zero = row["zero"]
        self.bins = dict(row["bins"])


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

