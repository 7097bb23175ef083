"""Read-your-Writes auditor — always on, in every run.

Records every UE write-completion (the UE's own count of completed
writes, its "reader version") and checks every served read against it,
so the paper's central guarantee (§4.2.1) — *a UE's request is never
processed against state older than the UE's own last completed write* —
is a runtime-checkable property of any simulation, not just of the
property tests.  Designs without the consistency protocol (SCALE-style
``on_idle`` sync) produce violations here; Neutrino must produce none,
under any failure schedule, including the message-level fault schedules
``repro.faults`` injects.

Each UE carries a bounded causal history (writes, serves, forced
re-attaches, masked failovers); when a violation fires, the auditor
attaches that history so the offending schedule can be diagnosed — and,
via :mod:`repro.faults`, saved and replayed bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["RYWAuditor", "ConsistencyAuditor", "Violation", "CausalEvent"]

#: per-UE causal history bound; enough to show the failure context
#: without letting long runs grow memory per UE.
_HISTORY_LIMIT = 32


@dataclass(frozen=True)
class CausalEvent:
    """One entry of a UE's causal history."""

    time: float
    kind: str  # "write" | "serve" | "reattach_forced" | "failover_masked"
    detail: Tuple[Tuple[str, object], ...]

    def __repr__(self) -> str:
        pairs = ", ".join("%s=%r" % kv for kv in self.detail)
        return "t=%.6f %s(%s)" % (self.time, self.kind, pairs)


@dataclass(frozen=True)
class Violation:
    """A request was served against stale state.

    ``trace`` carries the UE's causal history up to (and including) the
    violating serve; it is excluded from equality so violations compare
    by the observable facts alone.  When observability was installed on
    the run, ``trace_id``/``span_id`` point at the violating serve's
    span in the exported timeline (searchable in the Perfetto UI); they
    are diagnostics, also excluded from equality.
    """

    time: float
    ue_id: str
    cpf_name: str
    reader_version: int
    served_version: int
    trace: Tuple[CausalEvent, ...] = field(default=(), compare=False, repr=False)
    trace_id: Optional[int] = field(default=None, compare=False)
    span_id: Optional[int] = field(default=None, compare=False)


@dataclass
class RYWAuditor:
    """Always-on Read-your-Writes probe.

    Counts serves/writes/violations/forced re-attaches/masked failovers
    and keeps a bounded per-UE causal trace.  Installed by the
    deployment on construction; every ``CPF.serve`` and
    every UE write completion reports here.
    """

    sim_now: object = None  # zero-arg callable; set by the deployment
    serves: int = 0
    writes: int = 0
    violations: List[Violation] = field(default_factory=list)
    reattaches_forced: int = 0
    failovers_masked: int = 0
    messages_replayed: int = 0
    #: diagnostics switch for population-scale runs: the per-UE causal
    #: history is O(UEs) memory and exists only to annotate violation
    #: reports — detection itself is the version comparison in
    #: :meth:`record_serve`, which stays identical with history off.
    keep_history: bool = True
    _history: Dict[str, Deque[CausalEvent]] = field(default_factory=dict, repr=False)

    def _now(self) -> float:
        return self.sim_now() if self.sim_now else 0.0

    def _note(self, ue_id: str, kind: str, **detail: object) -> None:
        if not self.keep_history:
            return
        history = self._history.get(ue_id)
        if history is None:
            history = deque(maxlen=_HISTORY_LIMIT)
            self._history[ue_id] = history
        history.append(
            CausalEvent(self._now(), kind, tuple(sorted(detail.items())))
        )

    # -- write side -----------------------------------------------------------

    def record_write_completion(self, ue_id: str, version: int) -> None:
        """The UE completed a write; ``version`` is its new reader version."""
        self.writes += 1
        self._note(ue_id, "write", version=version)

    # -- read side ------------------------------------------------------------

    def record_serve(
        self,
        ue_id: str,
        reader_version: int,
        served_version: int,
        cpf_name: str,
        span: object = None,
    ) -> None:
        self.serves += 1
        self._note(
            ue_id,
            "serve",
            cpf=cpf_name,
            reader_version=reader_version,
            served_version=served_version,
        )
        if served_version < reader_version:
            self.violations.append(
                Violation(
                    self._now(),
                    ue_id,
                    cpf_name,
                    reader_version,
                    served_version,
                    trace=self.history(ue_id),
                    trace_id=getattr(span, "root_id", None),
                    span_id=getattr(span, "span_id", None),
                )
            )

    # -- recovery bookkeeping ----------------------------------------------------

    def record_reattach_forced(self, ue_id: str, cpf_name: str) -> None:
        self.reattaches_forced += 1
        self._note(ue_id, "reattach_forced", cpf=cpf_name)

    def record_failover_masked(self, ue_id: str, replayed: int) -> None:
        self.failovers_masked += 1
        self.messages_replayed += replayed
        self._note(ue_id, "failover_masked", replayed=replayed)

    # -- queries ------------------------------------------------------------------

    def history(self, ue_id: str) -> Tuple[CausalEvent, ...]:
        """The UE's recent causal events, oldest first."""
        return tuple(self._history.get(ue_id, ()))

    @property
    def read_your_writes_held(self) -> bool:
        return not self.violations


#: historic name, kept for compatibility with earlier call sites/tests.
ConsistencyAuditor = RYWAuditor
