"""Observability overhead: disabled, metrics-only, and full trace export.

The ``repro.obs`` determinism contract has a perf side: with no
Observability installed (``dep.obs is None``, the default of every
figure run) each instrumentation site must cost one attribute check.
``test_obs_point_disabled`` times exactly the code every other
benchmark in this directory runs — a full measurement point with obs
off — and is *guarded* in ``BENCH_baseline.json``: if instrumentation
creep slows the disabled path by more than the calibrated 30% gate, CI
fails.

The enabled modes are recorded unguarded for trajectory: they tell you
what turning tracing on costs (span allocation + retention + export),
which is a feature budget, not a regression gate.

Run / refresh::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py \
        --benchmark-json=/tmp/obs-bench.json
    python benchmarks/compare_baseline.py /tmp/obs-bench.json \
        BENCH_baseline.json --subset
"""

import pytest

pytest.importorskip("pytest_benchmark")

from repro.core.config import ControlPlaneConfig
from repro.experiments.harness import RunSpec, run_pct_point
from repro.obs import Observability, SpanRetention, Tracer
from repro.obs.export import chrome_trace_events

#: one small but full measurement point (procedures, checkpoints, ACKs).
_SPEC = dict(
    procedure="service_request",
    procedures_target=150,
    min_duration_s=0.02,
    max_duration_s=0.06,
)
_RATE = 100e3


def _point(obs_mode="off"):
    point = run_pct_point(
        ControlPlaneConfig.neutrino(), _RATE, RunSpec(obs_mode=obs_mode, **_SPEC)
    )
    assert point.count > 0
    return point


def test_obs_point_disabled(benchmark):
    """GUARDED: the per-site ``dep.obs is None`` checks must stay free."""
    point = benchmark(_point)
    assert point.obs is None


def test_obs_point_metrics(benchmark):
    """Phase folding + counters, spans not retained."""
    point = benchmark(_point, "metrics")
    assert point.obs["metrics"]["histograms"]


def test_obs_point_trace_export(benchmark):
    """Full span retention plus the Chrome/Perfetto export walk."""

    def run():
        obs = Observability("trace", span_keep=0)
        run_pct_point(ControlPlaneConfig.neutrino(), _RATE, RunSpec(**_SPEC), obs=obs)
        return chrome_trace_events(obs.tracer.table())

    data = benchmark(run)
    assert len(data["traceEvents"]) > 100


def test_obs_tracer_span_loop(benchmark):
    """Micro: raw begin/finish cost per span (no sim, no retention)."""
    N = 20_000

    def loop():
        tracer = Tracer(lambda: 0.0, retention=SpanRetention.nothing())
        root = tracer.begin("proc.x")
        for _ in range(N):
            tracer.finish(tracer.begin("hop.y", parent=root))
        tracer.finish(root)
        return tracer.finished

    assert benchmark(loop) == N + 1
