"""Deterministic, sim-clock-timestamped spans with parent links.

A :class:`Span` records one unit of work on the simulated timeline —
a procedure run, a link traversal, a CPF service — with explicit
parent links so every procedure yields a causal tree.  The tracer is
built for a discrete-event simulator, which makes two things different
from wall-clock tracers:

* **Timestamps come from the sim clock** (a zero-arg callable), so a
  trace is bit-for-bit reproducible across runs and machines.

* **Determinism contract**: the tracer cannot perturb the simulation
  schedule, structurally: it draws no randomness, advances no clock,
  schedules no work and — on every path the instrumented code takes —
  attaches no callback.  A span whose end is already known when it is
  written (a link traversal: ``now + delay`` is fixed at the send
  instant; every span of a batched-lane walk) is **recorded closed**
  with :meth:`Tracer.record`; a span that brackets a real wait is
  opened with :meth:`Tracer.begin` (or the :meth:`Tracer.span` context
  manager) and closed with :meth:`Tracer.finish` by the code that was
  waiting.  :meth:`Tracer.end_on`, which does attach a callback to an
  event, survives only as public API for callback-style callers
  outside ``src/``.  ``tests/obs/test_obs_witness.py`` pins that
  obs-enabled runs reproduce the pre-obs EventTrace digests *and* end
  on the same ``Simulator._seq``.

* **Fold rule**: a child span's seconds fold into its root's phase
  decomposition iff the span *ends* no later than the root closes;
  anything ending later is off the critical path.  Because a recorded
  span may end in the future, the fold is evaluated when the root
  closes, over the children in end order (ties: order written) — the
  order their ``finish`` calls would have run in.

Parenting is **explicit** (a ``parent=`` argument threaded through the
instrumented call chain), never an ambient "current span" stack: sim
processes interleave at every yield, so a global stack would attribute
one UE's hops to whichever procedure yielded last.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanRetention", "Tracer", "span_rows", "spans_from_rows"]


class Span:
    """One timed unit of work on the simulated timeline."""

    __slots__ = (
        "span_id", "parent_id", "root_id", "name", "phase",
        "start", "end", "status", "attrs",
    )

    def __init__(self, span_id, parent_id, root_id, name, phase, start, attrs):
        self.span_id: int = span_id
        self.parent_id: Optional[int] = parent_id
        self.root_id: int = root_id
        self.name = name
        #: latency-breakdown bucket ("transit", "cta", "cpf_serve", ...);
        #: defaults to the name's first dotted component.
        self.phase: str = phase
        self.start: float = start
        self.end: Optional[float] = None
        self.status: str = "open"
        self.attrs: dict = attrs

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def __repr__(self) -> str:
        return "Span(%d %s %s t=%.6f+%.6f %s)" % (
            self.span_id, self.name, self.phase,
            self.start, self.duration, self.status,
        )

    def to_row(self) -> dict:
        """JSON-able wire form — what shard workers ship at merge time."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "root": self.root_id,
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_row(cls, row: dict) -> "Span":
        span = cls(
            row["id"], row["parent"], row["root"], row["name"],
            row["phase"], row["start"], dict(row.get("attrs", ())),
        )
        span.end = row.get("end")
        span.status = row.get("status", "open")
        return span


def span_rows(spans: Iterable[Span]) -> List[dict]:
    return [s.to_row() for s in spans]


def spans_from_rows(rows: Iterable[dict]) -> List[Span]:
    return [Span.from_row(r) for r in rows]


class SpanRetention:
    """Bounded span retention for traced scale runs.

    Keeps the slowest ``slowest_k`` root trees per procedure plus
    *every* tree touching a fault, recovery, or migration (those are
    the runs worth a post-mortem), so ``--obs trace`` stays memory-safe
    at 100k+ UEs: retained spans are O(procedures-kinds x K + faults),
    not O(total procedures).

    The policy only sees *closed* roots — the tracer buffers each open
    root's tree and asks :meth:`admit` at root finish.  The slowest-K
    heap is a per-procedure min-heap of ``(duration, root_id)``; ties
    break on root id, so retention is deterministic.
    """

    #: span statuses of a clean run; anything else in a tree (error,
    #: failed, replica_down, reattach_required, ...) marks it
    #: fault-touched and exempts the tree from the slowest-K budget.
    #: Phases are deliberately NOT inspected: "migrate"/"recovery"
    #: phases appear in every ordinary full handover's context-transfer
    #: legs, so a phase rule would retain nearly all steady traffic.
    OK_STATUSES = frozenset(("ok", "completed", "acked"))

    def __init__(self, slowest_k: int = 32):
        if slowest_k < 1:
            raise ValueError("slowest_k must be >= 1, got %d" % slowest_k)
        self.slowest_k = slowest_k
        self.roots_kept = 0
        self.roots_dropped = 0
        self._heaps: Dict[str, List[Tuple[float, int]]] = {}

    def always_keep(self, root: Span, tree: List[Span]) -> bool:
        if not root.name.startswith("proc."):
            return True  # non-procedure roots (shard installs, ...) are rare
        attrs = root.attrs
        if attrs.get("recovered") or attrs.get("reattached"):
            return True
        ok = self.OK_STATUSES
        # still-open spans (off-path checkpoint legs in flight at root
        # close) are undecided, not fault-touched — a later error on a
        # dropped tree is an accepted miss of the bounded policy
        return any(s.end is not None and s.status not in ok for s in tree)

    def admit(self, proc: str, duration: float, root_id: int):
        """Slowest-K admission for a clean root.

        Returns ``(keep, evicted_root_id)``: whether to keep this root,
        and which previously-kept root to drop to make room (or None).
        """
        heap = self._heaps.setdefault(proc, [])
        item = (duration, root_id)
        if len(heap) < self.slowest_k:
            heapq.heappush(heap, item)
            return True, None
        if item <= heap[0]:
            return False, None
        evicted = heapq.heapreplace(heap, item)
        return True, evicted[1]

    def stats(self) -> dict:
        return {
            "limit": self.slowest_k,
            "roots_kept": self.roots_kept,
            "roots_dropped": self.roots_dropped,
        }


_by_end = itemgetter(0)


class _Bracket:
    """``with`` form of one begun span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.finish(
            self._span, status="ok" if exc_type is None else "error"
        )
        return False


class Tracer:
    """Allocates, closes, and (optionally) retains spans.

    ``sim_now`` is a zero-arg callable returning the current sim time.
    ``retain=False`` keeps only counters and phase folds (the metrics
    mode: span objects live just long enough to be timed).  Span ids
    are sequential ints — deterministic, and stable enough for the
    RYW auditor to reference a violation's serving span.
    """

    def __init__(
        self,
        sim_now: Callable[[], float],
        retain: bool = True,
        on_root_finish: Optional[Callable[[Span, Dict[str, float]], None]] = None,
        on_offpath_finish: Optional[Callable[[Span], None]] = None,
        retention: Optional[SpanRetention] = None,
    ):
        self._now = sim_now
        self.retain = retain
        self._spans: List[Span] = []
        self.started = 0
        self.finished = 0
        self._next_id = 1
        #: per-open-root fold entries: root span id -> [(end, span,
        #: phases override or None)], one per closed child (see the
        #: module docstring's fold rule).
        self._open_roots: Dict[int, List[tuple]] = {}
        self._on_root_finish = on_root_finish
        self._on_offpath_finish = on_offpath_finish
        #: bounded-retention policy; None = keep every span (legacy path).
        self.retention = retention if retain else None
        # under retention, spans buffer per open root and move to _kept
        # (or are dropped) when the root closes and the policy decides.
        self._trees: Dict[int, List[Span]] = {}
        self._kept: Dict[int, List[Span]] = {}
        #: the most recently dropped root's tree, held one decision long
        #: so a caller learning *after* the fact that the root matters
        #: (it anchored a cross-shard migration) can rescue it via
        #: :meth:`pin` — the shard engine only discovers emigration
        #: synchronously after the root finishes.
        self._limbo: Optional[Tuple[int, List[Span]]] = None
        #: root ids exempt from slowest-K eviction (migration anchors).
        self._pinned: set = set()

    @property
    def spans(self) -> List[Span]:
        """Every retained span, in span-id order.

        Without a retention policy this is the live append list (zero
        cost).  With one, it materialises kept trees plus still-open
        trees — export-time use only, not a hot path.
        """
        if self.retention is None:
            return self._spans
        out: List[Span] = []
        for tree in self._kept.values():
            out.extend(tree)
        for tree in self._trees.values():
            out.extend(tree)
        out.sort(key=lambda s: s.span_id)
        return out

    # -- lifecycle ------------------------------------------------------------

    def _open(self, name, parent, phase, start, attrs) -> Span:
        """Allocate one span and hand it to retention."""
        span_id = self._next_id
        self._next_id = span_id + 1
        self.started += 1
        if phase is None:
            phase = name.split(".", 1)[0]
        if parent is not None:
            span = Span(span_id, parent.span_id, parent.root_id, name,
                        phase, start, attrs)
        else:
            span = Span(span_id, None, span_id, name, phase, start, attrs)
        if self.retain:
            if self.retention is None:
                self._spans.append(span)
            else:
                self._buffer(span)
        return span

    def begin(
        self, name: str, parent: Optional[Span] = None,
        phase: Optional[str] = None, **attrs
    ) -> Span:
        """Start a span now; link it under ``parent`` when given."""
        span = self._open(name, parent, phase, self._now(), attrs)
        if parent is None:
            self._open_roots[span.span_id] = []
        return span

    def _buffer(self, span: Span) -> None:
        """Retention path: park the span with its root's tree."""
        if span.parent_id is None:
            self._trees[span.span_id] = [span]
            return
        tree = self._trees.get(span.root_id)
        if tree is not None:
            tree.append(span)
            return
        kept = self._kept.get(span.root_id)
        if kept is not None:
            # late off-path work (checkpoint ship after the root closed)
            # under a kept root: the tree grows, it was already admitted
            kept.append(span)
        # else: the root was dropped — so is its late work

    def finish(
        self, span: Span, status: str = "ok",
        phases: Optional[Iterable[Tuple[str, float]]] = None, **attrs
    ) -> Span:
        """Close a span now.

        ``phases`` overrides the default fold of the span's whole
        duration into its single ``span.phase`` bucket — the CPF uses
        it to split one handle span into queue-wait and service time.
        """
        if span.end is not None:
            return span  # idempotent: callback-style code may race a ctx exit
        if attrs:
            span.attrs.update(attrs)
        self._close(span, self._now(), status, phases)
        return span

    def finish_at(self, span: Span, end: float, status: str = "ok") -> None:
        """Close a begun span at a known instant other than now.

        For a walker that runs ahead of the clock (the batched lane's
        checkpoint shipment): the span was begun at the real instant it
        started, and the instant it ends is known in closed form.
        """
        self._close(span, end, status, None)

    def record(
        self,
        name: str,
        parent: Optional[Span],
        phase: Optional[str],
        start: float,
        end: float,
        status: str = "ok",
        attrs: Optional[dict] = None,
        phases: Optional[Iterable[Tuple[str, float]]] = None,
    ) -> Span:
        """Write one span already closed: ``[start, end]``, ``status``.

        The only way a span whose end is known when it is written gets
        recorded — one id, one row, the same fold and retention
        bookkeeping as :meth:`begin` + :meth:`finish`, no event and no
        callback.  ``end`` may lie in the future (a message in flight):
        whether the span folds on the critical path is decided when its
        root closes.  ``attrs`` is owned by the span afterwards.
        """
        span = self._open(name, parent, phase, start,
                          {} if attrs is None else attrs)
        self._close(span, end, status, phases)
        return span

    def _close(self, span: Span, end: float, status: str, phases) -> None:
        span.end = end
        span.status = status
        self.finished += 1
        if span.parent_id is None:
            self._close_root(span)
            return
        entries = self._open_roots.get(span.root_id)
        if entries is not None:
            entries.append((end, span, phases))
        elif self._on_offpath_finish is not None:
            # Root already closed: off-critical-path work (checkpoint
            # shipping after the UE's PCT clock stopped).
            self._on_offpath_finish(span)

    def _close_root(self, root: Span) -> None:
        """Evaluate the fold rule over the root's closed children."""
        entries = self._open_roots.pop(root.span_id, None)
        folds: Dict[str, float] = {}
        if entries:
            entries.sort(key=_by_end)  # stable: ties keep written order
            cutoff = root.end
            for end, span, phases in entries:
                if end > cutoff:
                    # recorded while in flight, still in flight now
                    if self._on_offpath_finish is not None:
                        self._on_offpath_finish(span)
                elif phases is None:
                    phase = span.phase
                    folds[phase] = folds.get(phase, 0.0) + (end - span.start)
                else:
                    for phase, seconds in phases:
                        folds[phase] = folds.get(phase, 0.0) + seconds
        if self._on_root_finish is not None:
            self._on_root_finish(root, folds)
        if self.retention is not None:
            self._decide_root(root)

    def span(
        self, name: str, parent: Optional[Span] = None,
        phase: Optional[str] = None, **attrs
    ) -> _Bracket:
        """Context manager form for straight-line (generator) code.

        The span begins here and closes when the block exits — in a sim
        process that is the moment the process resumes past the block,
        which is exactly the fire time of whatever it yielded on.  An
        exception thrown into the block (a
        :class:`~repro.sim.node.NodeFailed` delivered at a yield) marks
        the span ``error`` and propagates.
        """
        return _Bracket(self, self.begin(name, parent, phase, **attrs))

    def end_on(self, span: Span, event) -> "object":
        """Finish ``span`` when ``event`` fires (callback-style code).

        Returns the event so call sites stay expressions.  Nothing
        under ``src/`` calls this any more (a span whose end is known
        is :meth:`record`-ed; one that brackets a wait is finished by
        the waiter): it attaches a callback, which allocates a
        scheduler seq when the event fires.  The callback only records
        time and status — never sim state.
        """
        event.add_callback(
            lambda ev: self.finish(span, status="ok" if ev.ok else "error")
        )
        return event

    def _decide_root(self, root: Span) -> None:
        """A root closed under retention: keep its tree or drop it."""
        tree = self._trees.pop(root.span_id, None)
        if tree is None:  # pragma: no cover - defensive (double finish)
            return
        policy = self.retention
        if policy.always_keep(root, tree):
            self._kept[root.span_id] = tree
            policy.roots_kept += 1
            return
        proc = str(root.attrs.get("proc", root.name))
        keep, evicted = policy.admit(proc, root.duration, root.span_id)
        if not keep:
            # hold in limbo one decision long: pin() may resurrect it
            self._limbo = (root.span_id, tree)
            policy.roots_dropped += 1
            return
        self._kept[root.span_id] = tree
        policy.roots_kept += 1
        if evicted is not None and evicted not in self._pinned:
            self._kept.pop(evicted, None)
            policy.roots_kept -= 1
            policy.roots_dropped += 1

    def pin(self, root_id: int) -> bool:
        """Exempt a kept (or just-dropped) root tree from eviction.

        The cross-shard migration anchor: the shard engine learns a
        procedure emigrated its UE only after the root span finished —
        and possibly after slowest-K admission already rejected it.  A
        pinned root survives in ``_kept`` regardless of later
        evictions; a root sitting in limbo (the immediately preceding
        drop decision) is resurrected.  Returns whether the tree is
        retained.
        """
        if root_id in self._kept:
            self._pinned.add(root_id)
            return True
        limbo = self._limbo
        if limbo is not None and limbo[0] == root_id:
            self._kept[root_id] = limbo[1]
            self._pinned.add(root_id)
            self._limbo = None
            policy = self.retention
            if policy is not None:
                policy.roots_kept += 1
                policy.roots_dropped -= 1
            return True
        return False

    # -- queries --------------------------------------------------------------

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]
