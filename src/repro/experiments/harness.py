"""Experiment harness: measurement points, windows, and scaling rules.

Scaling (documented in DESIGN.md §4): the paper's testbed runs five CPF
instances; its figure x-axes are *system-wide* procedures per second.
We simulate a slice with ``n_sim_cpfs`` CPFs and offer
``axis_rate / TESTBED_CPFS * n_sim_cpfs`` so each simulated CPF sees
exactly the per-CPF load of the testbed — saturation knees then land at
the same axis positions.  Runs are shorter than the paper's 60 s (the
queueing distributions stabilize within a few thousand procedures); in
overload the reported PCTs are bounded by the horizon, which the
evaluation text flags the same way the paper's "drastic increase"
regions are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.config import ControlPlaneConfig
from ..core.deployment import Deployment
from ..core.program import compile_procedure, procedure_spec
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultPlan
from ..obs import MODES as OBS_MODES, Observability
from ..sim.core import Simulator
from ..sim.monitor import percentile
from ..sim.rng import RngRegistry
from ..traffic.arrivals import bursty_arrivals, poisson_arrivals
from ..traffic.workload import WorkloadDriver

__all__ = ["PCTPoint", "RunSpec", "run_pct_point"]

#: CPF instances in the paper's testbed (§5).
TESTBED_CPFS = 5


@dataclass
class PCTPoint:
    """Summary of one (scheme, axis-rate) measurement point."""

    scheme: str
    procedure: str
    axis_rate: float
    offered_rate: float
    count: int
    p50_ms: float
    p95_ms: float
    mean_ms: float
    max_ms: float
    recovered: int = 0
    reattached: int = 0
    violations: int = 0
    max_log_bytes: float = 0.0
    completed: int = 0
    #: the busiest CPF's busy share of the *whole* simulated horizon,
    #: warm-up and drain included (``Server.utilization(sim.now)``), not
    #: of the arrival window.  The drain dilutes it: Neutrino attach on
    #: 2 CPFs at 110K reads 0.484 here, while its busy time over the
    #: arrival window (0.839) matches :func:`estimated_utilization`'s
    #: 0.846.  Pinned by the kernel witnesses, so it keeps its name.
    utilization: float = 0.0
    #: Observability snapshot (counters + phase histograms) when the run
    #: had obs installed, else None.  Rides through the parallel sweep's
    #: result serialization so worker snapshots merge on the parent.
    obs: Optional[dict] = None

    @property
    def empty(self) -> bool:
        """True when no procedure completed inside the measurement window."""
        return self.count == 0

    def row(self) -> str:
        if self.empty:
            return (
                "%-14s %10.0f %8d  p50=%9s ms  p95=%9s ms  util=%4.2f"
                % (self.scheme, self.axis_rate, 0, "-", "-", self.utilization)
            )
        return (
            "%-14s %10.0f %8d  p50=%9.3f ms  p95=%9.3f ms  util=%4.2f"
            % (
                self.scheme,
                self.axis_rate,
                self.count,
                self.p50_ms,
                self.p95_ms,
                self.utilization,
            )
        )


@dataclass
class RunSpec:
    """Knobs of one harness run (defaults sized for benchmark speed)."""

    procedure: str = "attach"
    regions: int = 2
    cpfs_per_region: int = 1
    bss_per_region: int = 2
    procedures_target: int = 1200
    min_duration_s: float = 0.05
    max_duration_s: float = 0.6
    warmup_frac: float = 0.25
    drain_s: float = 0.05
    seed: int = 1
    #: kill this CPF index (deployment order) at this fraction of the run.
    failure_cpf_index: Optional[int] = None
    failure_at_frac: float = 0.5
    #: bursty mode: this many procedures arrive inside burst_window_s.
    bursty_users: Optional[int] = None
    burst_window_s: float = 0.02
    #: restrict arrivals to BSs in the first region (handover sweeps).
    first_region_only: bool = False
    #: extra chaos (message perturbations / timed events) applied via
    #: :mod:`repro.faults`; the spec's own ``failure_cpf_index`` kill is
    #: merged in as a timed event, never mutating this shared plan.
    fault_plan: Optional[FaultPlan] = None
    #: "off" (default), "metrics", or "trace": install a fresh
    #: :class:`repro.obs.Observability` on each point's deployment and
    #: attach its snapshot to the returned :class:`PCTPoint`.
    obs_mode: str = "off"

    @property
    def n_sim_cpfs(self) -> int:
        return self.regions * self.cpfs_per_region


def _duration_for(spec: RunSpec, offered: float) -> float:
    if spec.bursty_users is not None:
        return spec.burst_window_s
    raw = spec.procedures_target / offered
    return min(max(raw, spec.min_duration_s), spec.max_duration_s)


def run_pct_point(
    config: ControlPlaneConfig,
    axis_rate: float,
    spec: Optional[RunSpec] = None,
    obs: Optional[Observability] = None,
) -> PCTPoint:
    """Run one measurement point and summarize its PCT distribution.

    ``obs`` (or ``spec.obs_mode != "off"``, which traces every span
    tree) installs observability on the point's deployment; passing an
    :class:`Observability` directly lets the caller keep the tracer for
    span export afterwards.
    """
    spec = spec or RunSpec()
    if axis_rate <= 0 and spec.bursty_users is None:
        raise ValueError("axis_rate must be positive for uniform traffic")
    if spec.obs_mode not in ("off",) + OBS_MODES:
        raise ValueError("unknown obs_mode %r" % (spec.obs_mode,))

    sim = Simulator()
    rng = RngRegistry(spec.seed)
    dep = Deployment.build_grid(
        sim,
        config,
        cpfs_per_region=spec.cpfs_per_region,
        bss_per_region=spec.bss_per_region,
        regions=spec.regions,
        rng=rng,
    )
    if obs is None and spec.obs_mode != "off":
        obs = Observability(spec.obs_mode, span_keep=0)
    if obs is not None:
        obs.install(dep)
    driver = WorkloadDriver(dep)

    offered = axis_rate / TESTBED_CPFS * spec.n_sim_cpfs
    duration = _duration_for(spec, offered)

    bs_names = sorted(dep.bss)
    if spec.first_region_only:
        first_region = dep.bss[bs_names[0]].region
        bs_names = [b for b in bs_names if dep.bss[b].region == first_region]

    if spec.bursty_users is not None:
        arrivals = list(
            bursty_arrivals(
                spec.bursty_users, spec.burst_window_s, rng.stream("burst")
            )
        )
    else:
        arrivals = list(poisson_arrivals(offered, duration, rng.stream("arrivals")))

    procedure = spec.procedure
    if procedure in ("attach", "re_attach"):
        driver.schedule_attaches(arrivals, bs_names)
    else:
        pool = max(64, min(4096, int(offered * 0.02) + 64))
        driver.build_pool(pool, bs_names)
        picker = None
        if procedure in ("handover", "fast_handover"):
            picker = driver.sibling_region_target()
        elif procedure == "intra_handover":
            picker = driver.same_region_target()
        driver.schedule_procedures(procedure, arrivals, bs_names, picker)

    plan = spec.fault_plan
    if spec.failure_cpf_index is not None:
        t_fail = duration * spec.failure_at_frac
        victim = sorted(dep.cpfs)[spec.failure_cpf_index % len(dep.cpfs)]
        kill = FaultEvent(op="fail_cpf", target=victim, at=t_fail)
        # A fresh plan per point: the spec (and its plan) is shared
        # across the config x rate sweep loops.
        if plan is None:
            plan = FaultPlan(seed=spec.seed, guard_last_alive=False, events=[kill])
        else:
            plan = plan.with_events(kill)
    if plan is not None:
        FaultInjector(dep, plan).install()

    horizon = (arrivals[-1] if arrivals else 0.0) + spec.drain_s
    sim.run(until=horizon)

    warmup = duration * spec.warmup_frac
    pcts = [
        o.pct
        for o in dep.outcomes
        if o.name == procedure and o.pct is not None and o.started_at >= warmup
    ]
    recovered = sum(
        1
        for o in dep.outcomes
        if o.name == procedure and o.recovered and o.started_at >= warmup
    )
    reattached = sum(
        1
        for o in dep.outcomes
        if o.name == procedure and o.reattached and o.started_at >= warmup
    )
    # An empty window (nothing completed past warmup) is a legitimate
    # outcome in deep overload: report count=0 with NaN percentiles
    # rather than fabricating a sample (count=1, NaN-poisoned means).
    ordered = sorted(pcts)
    total = 0.0
    for pct in ordered:  # plain adds in order: 3.12's sum() compensates
        total += pct
    nan = float("nan")
    util = max(
        (cpf.server.utilization(sim.now) for cpf in dep.cpfs.values()), default=0.0
    )
    return PCTPoint(
        scheme=config.name,
        procedure=procedure,
        axis_rate=axis_rate if spec.bursty_users is None else float(spec.bursty_users),
        offered_rate=offered,
        count=len(ordered),
        p50_ms=percentile(ordered, 50, default=nan) * 1e3,
        p95_ms=percentile(ordered, 95, default=nan) * 1e3,
        mean_ms=total / len(ordered) * 1e3 if ordered else nan,
        max_ms=ordered[-1] * 1e3 if ordered else nan,
        recovered=recovered,
        reattached=reattached,
        violations=len(dep.auditor.violations),
        max_log_bytes=dep.max_log_bytes(),
        completed=driver.completed(),
        utilization=util,
        obs=obs.snapshot() if obs is not None else None,
    )


def estimate_procedure_cpu(config: ControlPlaneConfig, proc_name: str) -> float:
    """Analytic CPU seconds one procedure costs the CPF processing cores.

    Folds the procedure's priced step program — the very numbers the
    simulator charges (:mod:`repro.core.program`; a migration leg bills
    its source and its target) — giving closed-form saturation
    predictions: the knee on the paper's axis sits at
    ``TESTBED_CPFS / cpu`` procedures per second.
    """
    program = compile_procedure(config, procedure_spec(config, proc_name))
    total = sum(step.cpf_cpu() for step in program.steps)
    if config.sync_mode == "per_procedure":
        total += config.checkpoint_lock_s
    return total


def estimated_utilization(
    config: ControlPlaneConfig, proc_name: str, axis_rate: float
) -> float:
    """Per-CPF utilization the paper's testbed would see at ``axis_rate``."""
    return (axis_rate / TESTBED_CPFS) * estimate_procedure_cpu(config, proc_name)


def overload_pct_at_horizon(rho: float, horizon_s: float) -> float:
    """Fluid-limit queueing delay after running overloaded for a horizon.

    For ``rho > 1`` the queue grows at rate ``(rho - 1)/rho`` of wall
    time; a job arriving at the end of a ``horizon_s`` run waits about
    ``(1 - 1/rho) * horizon_s``.  Returns 0 for ``rho <= 1``.
    """
    if rho <= 1.0:
        return 0.0
    return (1.0 - 1.0 / rho) * horizon_s
