"""Labeled metric instruments over the :mod:`repro.sim.monitor` probes.

A :class:`MetricsRegistry` hands out named :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` instruments keyed by
``(name, sorted label items)``.  Histograms are log-bucketed
:class:`~repro.sim.monitor.QuantileSketch` instances (bounded memory,
merged by adding bin counts); gauges wrap
:class:`~repro.sim.monitor.TimeWeighted` so they carry the time-average
and peak, which is what queue/log-size probes need.

Snapshots are plain JSON-able dicts in a deterministic order, so they
ride inside :class:`~repro.experiments.harness.PCTPoint` results
through pickling (parallel sweep workers) and the result cache's JSON
round trip unchanged.  :func:`merge_snapshots` folds per-point
snapshots together *in input order*; because
:func:`repro.experiments.parallel.run_jobs` returns points positionally
aligned with its job list, merging parallel results is bit-identical
to merging the serial loop's.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.monitor import QuantileSketch, TimeWeighted

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "label_snapshot",
    "merge_snapshots",
    "summarize_histogram",
]

_LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, object]) -> _LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone labeled counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by


class Gauge:
    """Piecewise-constant labeled quantity (queue depth, log bytes)."""

    __slots__ = ("name", "labels", "_probe")

    def __init__(self, name: str, labels: Dict[str, str], sim_now: Callable[[], float]):
        self.name = name
        self.labels = labels
        self._probe = TimeWeighted(sim_now)

    def set(self, value: float) -> None:
        self._probe.set(value)

    def add(self, delta: float) -> None:
        self._probe.add(delta)

    @property
    def value(self) -> float:
        return self._probe.value

    @property
    def max_value(self) -> float:
        return self._probe.max_value

    def time_average(self) -> float:
        return self._probe.time_average()


class Histogram(QuantileSketch):
    """Labeled distribution; a :class:`QuantileSketch` with registry identity."""

    __slots__ = ("labels",)

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name)
        self.labels = labels


class MetricsRegistry:
    """Creates-or-returns instruments by ``name`` + label set.

    The identity of an instrument is ``(name, sorted str-ed labels)``;
    sorting a label dict on every increment is most of what a labeled
    lookup costs, so each table is fronted by a memo keyed on the
    labels exactly as the call site spelled them (same keywords, same
    order, same value objects) — a repeated call is one tuple and one
    dict probe.  The hottest sites keep the instrument itself.
    """

    def __init__(self, sim_now: Optional[Callable[[], float]] = None):
        self._now = sim_now or (lambda: 0.0)
        self._counters: Dict[_LabelKey, Counter] = {}
        self._gauges: Dict[_LabelKey, Gauge] = {}
        self._histograms: Dict[_LabelKey, Histogram] = {}
        self._as_spelled: Dict[tuple, object] = {}
        self._make_gauge = partial(Gauge, sim_now=self._now)

    def _instrument(self, table: Dict, make, name: str, labels: Dict):
        spelled = (make, name, *labels.items())
        inst = self._as_spelled.get(spelled)
        if inst is None:
            key = _label_key(name, labels)
            inst = table.get(key)
            if inst is None:
                inst = table[key] = make(name, dict(key[1]))
            self._as_spelled[spelled] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(self._gauges, self._make_gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument(self._histograms, Histogram, name, labels)

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, list]:
        """JSON-able dump, callable mid-run; deterministic key order.

        Histograms carry their sketch rows (bin counts, not summaries),
        so merged snapshots aggregate exactly — percentiles of a merge
        come from the merged bins, never from averaged percentiles.  The
        rows are bounded by the value range, which is why shard workers
        ship this same snapshot on every heartbeat.
        """
        return {
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for _k, c in sorted(self._counters.items())
            ],
            "gauges": [
                {
                    "name": g.name,
                    "labels": g.labels,
                    "last": g.value,
                    "max": g.max_value,
                    "time_average": g.time_average(),
                }
                for _k, g in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": h.name, "labels": h.labels, **h.to_row()}
                for _k, h in sorted(self._histograms.items())
            ],
        }


def _merge_key(row: Dict) -> _LabelKey:
    return _label_key(row["name"], row["labels"])


def label_snapshot(snap: Optional[Dict], **labels) -> Optional[Dict]:
    """Copy of ``snap`` with extra labels stamped on every metric row.

    The sharded coordinator uses it to attach ``shard=<k>`` at merge
    time, so per-shard breakdowns survive :func:`merge_snapshots`
    instead of silently folding into one global row.  ``None`` passes
    through (a shard run without obs).
    """
    if not snap:
        return snap
    extra = {k: str(v) for k, v in labels.items()}
    out: Dict[str, list] = {}
    for section in ("counters", "gauges", "histograms"):
        rows = []
        for row in snap.get(section, ()):
            row = dict(row)
            merged = dict(row["labels"])
            merged.update(extra)
            row["labels"] = merged
            rows.append(row)
        out[section] = rows
    return out


def merge_snapshots(snapshots: Sequence[Optional[Dict]]) -> Dict[str, list]:
    """Fold registry snapshots together, in input order.

    Counters sum; histogram rows merge their sketches (bin counts add,
    so percentiles of the merge are as exact as one sketch fed every
    sample); gauges keep the global peak, the last value seen, and the
    mean of per-source time-averages (sources don't carry enough to
    time-weight across runs — documented approximation).  ``None``
    entries (points run without obs) are skipped.
    """
    counters: Dict[_LabelKey, Dict] = {}
    gauges: Dict[_LabelKey, Dict] = {}
    histograms: Dict[_LabelKey, List[Dict]] = {}
    gauge_sources: Dict[_LabelKey, List[float]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for row in snap.get("counters", ()):
            key = _merge_key(row)
            out = counters.get(key)
            if out is None:
                counters[key] = dict(row)
            else:
                out["value"] += row["value"]
        for row in snap.get("gauges", ()):
            key = _merge_key(row)
            out = gauges.get(key)
            if out is None:
                gauges[key] = dict(row)
                gauge_sources[key] = [row["time_average"]]
            else:
                out["max"] = max(out["max"], row["max"])
                out["last"] = row["last"]
                gauge_sources[key].append(row["time_average"])
        for row in snap.get("histograms", ()):
            histograms.setdefault(_merge_key(row), []).append(row)
    for key, averages in gauge_sources.items():
        gauges[key]["time_average"] = sum(averages) / len(averages)
    return {
        "counters": [counters[k] for k in sorted(counters)],
        "gauges": [gauges[k] for k in sorted(gauges)],
        "histograms": [
            {
                "name": rows[0]["name"],
                "labels": rows[0]["labels"],
                **QuantileSketch.merge(map(QuantileSketch.from_row, rows)).to_row(),
            }
            for rows in (histograms[k] for k in sorted(histograms))
        ],
    }


def summarize_histogram(row: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """count/mean/min/max/p50/p95/p99 of one (possibly merged) histogram row."""
    return QuantileSketch.from_row(row).summary()
