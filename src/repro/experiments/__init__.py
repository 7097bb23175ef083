"""Experiment harness and per-figure reproduction definitions."""

from .harness import PCTPoint, RunSpec, run_pct_point
from .cache import CacheStats, ResultCache
from .parallel import SweepJob, SweepReport, run_sweep, run_tasks
from . import figures, report

__all__ = [
    "PCTPoint",
    "RunSpec",
    "run_pct_point",
    "CacheStats",
    "ResultCache",
    "SweepJob",
    "SweepReport",
    "run_sweep",
    "run_tasks",
    "figures",
    "report",
]
