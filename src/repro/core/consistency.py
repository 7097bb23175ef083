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

Each UE has a bounded causal history (writes, serves, forced
re-attaches, masked failovers); when a violation fires, the auditor
attaches that history so the offending schedule can be diagnosed — and,
via :mod:`repro.faults`, saved and replayed bit-for-bit.  The history is
one ring of columns shared by every UE: noting an event writes a row and
creates no object.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["RYWAuditor", "Violation", "CausalEvent"]

#: events one UE's history shows; enough to show the failure context.
_HISTORY_LIMIT = 32

#: rows of the auditor's history ring, shared by every UE.  While an
#: auditor has noted at most this many events (every paper point and
#: regression schedule: a Neutrino attach point at 100K notes ~12k), a
#: UE's history is exactly its last ``_HISTORY_LIMIT`` events.  Past it,
#: the oldest rows are overwritten: a UE's history keeps only those of
#: its events that are among the last ``HISTORY_EVENTS`` noted — a suffix
#: of what an unbounded per-UE log would hold.
HISTORY_EVENTS = 65_536

_KINDS = ("write", "serve", "reattach_forced", "failover_masked")
_WRITE, _SERVE, _REATTACH, _FAILOVER = range(len(_KINDS))


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


class _HistoryRing:
    """The causal history of every UE: ``HISTORY_EVENTS`` rows of columns.

    A row is (time, UE id, kind, CPF name, two integers): a write's
    version; a serve's reader and served versions; a masked failover's
    replay count.  Rows are appended until the ring is full, then the
    oldest is overwritten; :meth:`events` rebuilds one UE's
    :class:`CausalEvent` tuple on demand.
    """

    __slots__ = ("times", "ues", "kinds", "cpfs", "a", "b", "head")

    def __init__(self):
        self.times = array("d")
        self.ues: List[str] = []
        self.kinds = array("B")
        self.cpfs: List[Optional[str]] = []
        self.a = array("q")
        self.b = array("q")
        self.head = 0  # the row the next event overwrites, once full

    def note(
        self, time: float, ue_id: str, kind: int, cpf: Optional[str], a: int, b: int
    ) -> None:
        if len(self.ues) < HISTORY_EVENTS:
            self.times.append(time)
            self.ues.append(ue_id)
            self.kinds.append(kind)
            self.cpfs.append(cpf)
            self.a.append(a)
            self.b.append(b)
            return
        i = self.head
        self.times[i] = time
        self.ues[i] = ue_id
        self.kinds[i] = kind
        self.cpfs[i] = cpf
        self.a[i] = a
        self.b[i] = b
        self.head = 0 if i + 1 == HISTORY_EVENTS else i + 1

    def events(self, ue_id: str) -> Tuple[CausalEvent, ...]:
        """``ue_id``'s last ``_HISTORY_LIMIT`` rows, oldest first."""
        ues, head = self.ues, self.head
        rows: deque = deque(maxlen=_HISTORY_LIMIT)
        # oldest to newest: [head, n) then [0, head); list.index scans
        # each in C, one call per row of this UE
        for start, stop in ((head, len(ues)), (0, head)):
            i = start
            while True:
                try:
                    i = ues.index(ue_id, i, stop)
                except ValueError:
                    break
                rows.append(i)
                i += 1
        return tuple(self._event(i) for i in rows)

    def _event(self, i: int) -> CausalEvent:
        kind, a = self.kinds[i], self.a[i]
        if kind == _SERVE:
            detail = (
                ("cpf", self.cpfs[i]),
                ("reader_version", a),
                ("served_version", self.b[i]),
            )
        elif kind == _WRITE:
            detail = (("version", a),)
        elif kind == _REATTACH:
            detail = (("cpf", self.cpfs[i]),)
        else:
            detail = (("replayed", a),)
        return CausalEvent(self.times[i], _KINDS[kind], detail)


@dataclass
class RYWAuditor:
    """Always-on Read-your-Writes probe.

    Counts serves/writes/violations/forced re-attaches/masked failovers
    and keeps a bounded causal trace per UE.  Installed by the
    deployment on construction; every ``CPF.serve`` and
    every UE write completion reports here.  A serve and a forced
    re-attach are stamped with the instant their caller passes (the
    batched lane serves ahead of the clock); other events read
    ``sim_now``.
    """

    sim_now: object = None  # zero-arg callable; set by the deployment
    serves: int = 0
    writes: int = 0
    violations: List[Violation] = field(default_factory=list)
    reattaches_forced: int = 0
    failovers_masked: int = 0
    messages_replayed: int = 0
    #: diagnostics switch for population-scale runs: the causal history
    #: holds at most ``HISTORY_EVENTS`` rows and exists only to annotate
    #: violation reports — detection itself is the version comparison in
    #: :meth:`record_serve`, which stays identical with history off.
    keep_history: bool = True
    _history: _HistoryRing = field(default_factory=_HistoryRing, repr=False)

    def _now(self) -> float:
        return self.sim_now() if self.sim_now else 0.0

    # -- write side -----------------------------------------------------------

    def record_write_completion(self, ue_id: str, version: int) -> None:
        """The UE completed a write; ``version`` is its new reader version."""
        self.writes += 1
        if self.keep_history:
            self._history.note(self._now(), ue_id, _WRITE, None, version, 0)

    # -- read side ------------------------------------------------------------

    def record_serve(
        self,
        ue_id: str,
        reader_version: int,
        served_version: int,
        cpf_name: str,
        span: object = None,
        now: Optional[float] = None,
    ) -> None:
        """A CPF served ``ue_id`` at ``now`` (default: ``sim_now``)."""
        self.serves += 1
        if now is None:
            now = self._now()
        if self.keep_history:
            self._history.note(
                now, ue_id, _SERVE, cpf_name, reader_version, served_version
            )
        if served_version < reader_version:
            self.violations.append(
                Violation(
                    now,
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

    def record_reattach_forced(
        self, ue_id: str, cpf_name: str, now: Optional[float] = None
    ) -> None:
        self.reattaches_forced += 1
        if self.keep_history:
            if now is None:
                now = self._now()
            self._history.note(now, ue_id, _REATTACH, cpf_name, 0, 0)

    def record_failover_masked(self, ue_id: str, replayed: int) -> None:
        self.failovers_masked += 1
        self.messages_replayed += replayed
        if self.keep_history:
            self._history.note(self._now(), ue_id, _FAILOVER, None, replayed, 0)

    # -- queries ------------------------------------------------------------------

    def history(self, ue_id: str) -> Tuple[CausalEvent, ...]:
        """The UE's recent causal events, oldest first."""
        return self._history.events(ue_id)

    @property
    def read_your_writes_held(self) -> bool:
        return not self.violations
