"""Plain-text reporting of figure results.

Prints the same series the paper plots, as aligned tables, plus the
headline ratios ("who wins, by what factor") that EXPERIMENTS.md tracks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .harness import PCTPoint

__all__ = [
    "format_pct_table",
    "format_dict_rows",
    "format_latency_breakdown",
    "format_run_footer",
    "median_ratio",
    "best_ratio",
    "print_pct_table",
]


def format_pct_table(points: Sequence[PCTPoint], title: str = "") -> str:
    """Scheme-by-rate grid of median PCTs, like the paper's box plots."""
    by_scheme: Dict[str, Dict[float, PCTPoint]] = defaultdict(dict)
    rates: List[float] = []
    for point in points:
        by_scheme[point.scheme][point.axis_rate] = point
        if point.axis_rate not in rates:
            rates.append(point.axis_rate)
    rates.sort()
    lines = []
    if title:
        lines.append(title)
    header = "%-20s" % "scheme \\ rate" + "".join("%12.0f" % r for r in rates)
    lines.append(header)
    lines.append("-" * len(header))
    for scheme in sorted(by_scheme):
        cells = []
        for rate in rates:
            point = by_scheme[scheme].get(rate)
            if point is None:
                cells.append("%12s" % "-")
            elif point.count == 0:
                # deep overload: nothing completed in the window — an
                # explicit marker beats a NaN pretending to be a median
                cells.append("%12s" % "(empty)")
            else:
                cells.append("%12.3f" % point.p50_ms)
        lines.append("%-20s" % scheme + "".join(cells))
    lines.append("(cells: median PCT in ms)")
    return "\n".join(lines)


def print_pct_table(points: Sequence[PCTPoint], title: str = "") -> None:
    print(format_pct_table(points, title))


def format_dict_rows(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Aligned table for list-of-dicts figure results."""
    if not rows:
        return title + "\n(no rows)"
    keys = list(rows[0].keys())
    widths = {
        k: max(len(k), *(len(_fmt(row.get(k))) for row in rows)) for k in keys
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(k.ljust(widths[k]) for k in keys))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        return "%.3f" % value
    return str(value)


#: display order of the span taxonomy's phases; unknown phases sort after.
_PHASE_ORDER = (
    "radio", "transit", "cta", "cpf_wait", "cpf_serve", "cpf", "upf",
    "lock", "migrate", "recovery", "checkpoint", "other",
)


def _metrics_of(snapshot: Optional[Dict]) -> Dict[str, list]:
    """Accept an Observability snapshot or a bare metrics dict."""
    if not snapshot:
        return {}
    if "metrics" in snapshot and isinstance(snapshot["metrics"], dict):
        return snapshot["metrics"]
    return snapshot


def format_latency_breakdown(
    labeled_snapshots: Sequence, title: str = ""
) -> str:
    """Per-phase latency decomposition table, scheme vs scheme.

    ``labeled_snapshots`` is ``(scheme, snapshot)`` pairs where each
    snapshot came from :meth:`repro.obs.Observability.snapshot` (or a
    :func:`repro.obs.merge_snapshots` of several).  For every procedure
    in the ``phase_s`` histograms it prints one row per (scheme, phase)
    with the phase's mean and P99 contribution and its share of the
    procedure total — the decomposition behind the paper's latency
    claims (cheap serialization, checkpoints off the critical path).
    """
    from ..obs import label_snapshot, merge_snapshots, summarize_histogram

    merged = merge_snapshots([
        label_snapshot(_metrics_of(snapshot), scheme=scheme)
        for scheme, snapshot in labeled_snapshots
    ])
    # (proc, scheme) -> {phase: row}, plus the proc totals.
    phases: Dict[tuple, Dict[str, Dict]] = defaultdict(dict)
    totals: Dict[tuple, Dict] = {}
    procs: List[str] = []
    for row in merged["histograms"]:
        labels = row["labels"]
        cell = (labels.get("proc", "?"), labels["scheme"])
        if row["name"] == "phase_s":
            phases[cell][labels.get("phase", "?")] = row
        elif row["name"] == "proc_total_s":
            totals[cell] = row
        else:
            continue
        if cell[0] not in procs:
            procs.append(cell[0])

    def phase_rank(phase: str):
        try:
            return (_PHASE_ORDER.index(phase), phase)
        except ValueError:
            return (len(_PHASE_ORDER), phase)

    lines: List[str] = []
    if title:
        lines.append(title)
    if not procs:
        lines.append("(no phase histograms in snapshots)")
        return "\n".join(lines)
    header = "%-14s %-12s %-12s %12s %12s %8s" % (
        "procedure", "scheme", "phase", "mean_ms", "p99_ms", "share",
    )
    for proc in sorted(procs):
        lines.append(header)
        lines.append("-" * len(header))
        for scheme, _snap in labeled_snapshots:
            total_row = totals.get((proc, scheme))
            total = summarize_histogram(total_row) if total_row else {}
            total_mean = total.get("mean", 0.0)
            by_phase = phases.get((proc, scheme), {})
            for phase in sorted(by_phase, key=phase_rank):
                row = by_phase[phase]
                if not row["count"]:
                    continue
                stats = summarize_histogram(row)
                # share of the mean end-to-end PCT attributed to this
                # phase (phases can overlap 100% only if spans nest).
                per_proc_mean = (
                    row["sum"] / total["count"] if total.get("count") else 0.0
                )
                share = per_proc_mean / total_mean if total_mean else 0.0
                lines.append(
                    "%-14s %-12s %-12s %12.3f %12.3f %7.1f%%"
                    % (
                        proc,
                        scheme,
                        phase,
                        stats["mean"] * 1e3,
                        stats["p99"] * 1e3,
                        share * 100.0,
                    )
                )
            if total.get("count"):
                lines.append(
                    "%-14s %-12s %-12s %12.3f %12.3f %7.1f%%"
                    % (
                        proc,
                        scheme,
                        "TOTAL",
                        total["mean"] * 1e3,
                        total["p99"] * 1e3,
                        100.0,
                    )
                )
        lines.append("")
    return "\n".join(lines).rstrip()


def format_run_footer(report=None, cache=None) -> str:
    """One-line summary of what a sweep run actually did.

    ``report`` is a :class:`repro.experiments.parallel.SweepReport`,
    ``cache`` a :class:`repro.experiments.cache.ResultCache`; either may
    be ``None``.  Surfaces the cache hit/miss/stale counters next to the
    executed-point count so a cached rerun is auditably simulation-free.
    """
    parts = []
    if report is not None:
        mode = "parallel" if report.parallel else "serial"
        parts.append(
            "points: total=%d executed=%d cached=%d (%s)"
            % (report.total, report.executed, report.cached, mode)
        )
    if cache is not None:
        parts.append(cache.stats.summary())
    return "  ".join(parts)


def median_ratio(
    points: Sequence[PCTPoint], better: str, worse: str, rate: Optional[float] = None
) -> float:
    """p50(worse)/p50(better) at one rate (or the max over shared rates)."""
    by_key: Dict[tuple, PCTPoint] = {(p.scheme, p.axis_rate): p for p in points}
    rates = sorted({p.axis_rate for p in points})
    if rate is not None:
        rates = [rate]
    ratios = []
    for r in rates:
        a = by_key.get((better, r))
        b = by_key.get((worse, r))
        if a and b and a.p50_ms > 0:
            ratios.append(b.p50_ms / a.p50_ms)
    if not ratios:
        raise ValueError("no shared rates between %r and %r" % (better, worse))
    return max(ratios)


def best_ratio(points: Sequence[PCTPoint], better: str, worse: str) -> float:
    """Alias for the paper's "up to Nx better" phrasing."""
    return median_ratio(points, better, worse)
