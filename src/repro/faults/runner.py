"""Run a FaultPlan end to end and report what the auditor saw.

:func:`run_plan` is the one entry point behind the chaos CLI, the
property-based consistency tests, and the regression-schedule corpus:
it builds the plan's topology, bootstraps its workload UEs, installs a
:class:`~repro.faults.injector.FaultInjector`, executes the plan's
sequential steps in a driver process (timed events fire on the side),
and returns a :class:`RunResult` carrying the Read-your-Writes audit,
the event trace (whose digest is the determinism witness), and the
fault counters.

Everything here is a pure function of the plan: same plan, same
result, same trace digest — :func:`replay` asserts exactly that by
running a plan twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ControlPlaneConfig
from ..core.consistency import Violation
from ..core.deployment import Deployment
from ..core.ue import ProcedureAborted
from ..sim.core import Simulator
from ..sim.node import NodeFailed
from ..sim.rng import RngRegistry
from .injector import FaultInjector
from .plan import FaultPlan
from .trace import EventTrace

__all__ = ["RunResult", "ReplayReport", "run_plan", "replay", "CONFIG_PRESETS"]

CONFIG_PRESETS = {
    "neutrino": ControlPlaneConfig.neutrino,
    "existing_epc": ControlPlaneConfig.existing_epc,
    "skycore": ControlPlaneConfig.skycore,
    "dpcm": ControlPlaneConfig.dpcm,
}

#: procedures that need a target base station.
_NEEDS_TARGET = ("handover", "fast_handover", "intra_handover")


def config_from_name(name: str) -> ControlPlaneConfig:
    try:
        return CONFIG_PRESETS[name]()
    except KeyError:
        raise KeyError(
            "unknown config preset %r (have: %s)" % (name, ", ".join(sorted(CONFIG_PRESETS)))
        )


def resolve_target_bs(dep: Deployment, ue, proc: str) -> str:
    """Deterministic target BS for a handover-style procedure.

    ``handover``/``fast_handover`` pick the first BS (sorted) in a
    different region; ``intra_handover`` picks a different BS in the
    same region.  Deterministic so generated plans stay serializable
    with ``target_bs`` left empty.
    """
    home_region = dep.bss[ue.bs_name].region
    for bs_name in sorted(dep.bss):
        if bs_name == ue.bs_name:
            continue
        same = dep.bss[bs_name].region == home_region
        if (proc == "intra_handover") == same:
            return bs_name
    raise LookupError("no eligible target BS for %s from %s" % (proc, ue.bs_name))


@dataclass
class RunResult:
    """Everything one chaos run produced."""

    plan: FaultPlan
    violations: List[Violation]
    serves: int
    writes: int
    completed: int
    recovered: int
    reattached: int
    aborts: List[str]
    trace: EventTrace
    fault_counters: Dict[str, int]
    pct_ms: Dict[str, Dict[str, Optional[float]]]
    end_time_s: float
    summary: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: the live deployment, for white-box assertions in tests.
    dep: Any = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        return self.trace.digest()

    def brief(self) -> str:
        return (
            "serves=%d writes=%d violations=%d completed=%d recovered=%d "
            "reattached=%d aborts=%d lost=%d digest=%s"
            % (
                self.serves,
                self.writes,
                len(self.violations),
                self.completed,
                self.recovered,
                self.reattached,
                len(self.aborts),
                self.fault_counters.get("messages_lost", 0),
                self.digest,
            )
        )


def _workload_ues(plan: FaultPlan, dep: Deployment) -> List[Dict[str, str]]:
    ues = list(plan.workload.get("ues", ()))
    if not ues:
        ues = [{"id": "ue-0", "bs": sorted(dep.bss)[0]}]
    return ues


def run_plan(
    plan: FaultPlan,
    config: Optional[ControlPlaneConfig] = None,
    verbose_trace: bool = False,
    obs=None,
) -> RunResult:
    """Execute one plan; deterministic in (plan, config) alone.

    ``obs`` (a :class:`repro.obs.Observability`) is installed on the
    deployment when given; it never changes the run's trace digest —
    the witness tests pin that — but lets a violation report carry the
    span ids of the offending serve.
    """
    sim = Simulator()
    cfg = config if config is not None else config_from_name(plan.config)
    topology = plan.topology or {}
    dep = Deployment.build_grid(
        sim,
        cfg,
        cpfs_per_region=int(topology.get("cpfs_per_region", 2)),
        bss_per_region=int(topology.get("bss_per_region", 2)),
        regions=int(topology.get("regions", 2)),
        rng=RngRegistry(plan.seed),
    )
    if obs is not None:
        obs.install(dep)
    trace = EventTrace(verbose=verbose_trace)
    injector = FaultInjector(dep, plan, trace=trace).install()

    ues = _workload_ues(plan, dep)
    for entry in ues:
        dep.bootstrap_ue(entry["id"], entry["bs"])
    default_ue = ues[0]["id"]
    aborts: List[str] = []

    def driver():
        yield 0.0  # always a generator, even for empty plans
        for op in plan.steps:
            if op.op == "wait":
                yield float(op.dt)  # plans are outside input: JSON may say 1
            elif op.op == "proc":
                ue = dep.ue(op.target or default_ue)
                target_bs = op.target_bs or None
                if target_bs is None and op.proc in _NEEDS_TARGET:
                    target_bs = resolve_target_bs(dep, ue, op.proc)
                trace.record(sim.now, "proc_start", proc=op.proc, ue=ue.ue_id)
                try:
                    outcome = yield from ue.execute(op.proc, target_bs=target_bs)
                except (ProcedureAborted, NodeFailed, LookupError) as exc:
                    aborts.append("%s(%s): %s" % (op.proc, ue.ue_id, exc))
                    trace.record(sim.now, "proc_aborted", proc=op.proc, ue=ue.ue_id)
                else:
                    trace.record(
                        sim.now,
                        "proc_done",
                        proc=op.proc,
                        ue=ue.ue_id,
                        completed=outcome.completed,
                        recovered=outcome.recovered,
                        reattached=outcome.reattached,
                    )
            else:
                injector.fire(op)

    sim.process(driver(), name="chaos.driver")
    sim.run()  # drains: checkpoints, repairs, scan passes, timed events

    return RunResult(
        plan=plan,
        violations=list(dep.auditor.violations),
        serves=dep.auditor.serves,
        writes=dep.auditor.writes,
        completed=sum(1 for o in dep.outcomes if o.completed),
        recovered=sum(1 for o in dep.outcomes if o.recovered),
        reattached=sum(1 for o in dep.outcomes if o.reattached),
        aborts=aborts,
        trace=trace,
        fault_counters=injector.fault_counters(),
        pct_ms={
            name: {
                "count": tally.count,
                "p50": tally.percentile(50),
                "p95": tally.percentile(95),
                "p99": tally.percentile(99),
            }
            for name, tally in sorted(dep.pct.items())
        },
        end_time_s=sim.now,
        summary=dep.summary(),
        dep=dep,
    )


@dataclass
class ReplayReport:
    """Outcome of replaying one plan ``runs`` times."""

    digests: List[str]
    results: List[RunResult]

    @property
    def deterministic(self) -> bool:
        return len(set(self.digests)) == 1

    @property
    def violations(self) -> int:
        return max(len(r.violations) for r in self.results)


def replay(
    plan: FaultPlan,
    runs: int = 2,
    config: Optional[ControlPlaneConfig] = None,
    verbose_trace: bool = True,
    obs_mode: Optional[str] = None,
) -> ReplayReport:
    """Run the plan ``runs`` times; equal digests == deterministic.

    ``obs_mode`` ("metrics" or "trace", every span tree kept) installs a
    fresh :class:`repro.obs.Observability` per run, so violation reports carry
    span ids while the digest comparison still proves obs changed
    nothing.
    """
    if runs < 1:
        raise ValueError("need at least one run")

    def _obs():
        if obs_mode is None:
            return None
        from ..obs import Observability  # deferred: keep faults obs-optional

        return Observability(obs_mode, span_keep=0)

    results = [
        run_plan(plan, config=config, verbose_trace=verbose_trace, obs=_obs())
        for _ in range(runs)
    ]
    return ReplayReport(digests=[r.digest for r in results], results=results)
