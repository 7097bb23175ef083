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
from array import array
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanRetention", "SpanTable", "Tracer"]


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (
            self.span_id, self.parent_id, self.root_id, self.name,
            self.phase, self.start, self.end, self.status, self.attrs,
        ) == (
            other.span_id, other.parent_id, other.root_id, other.name,
            other.phase, other.start, other.end, other.status, other.attrs,
        )

    def __hash__(self) -> int:
        return hash(self.span_id)


#: ``SpanTable.parents`` of a root; ``SpanTable.ends`` of an open span.
_NO_PARENT = -1
_OPEN = float("nan")
_span_id = attrgetter("span_id")
#: the low half of a compaction sort key: ``span_id << 32 | row``
_ROW_MASK = 0xFFFFFFFF


class SpanTable:
    """Spans as columns: the retained-span store and its wire form.

    One row per span.  ``ids``, ``parents`` (-1 at a root), ``roots``,
    ``starts`` and ``ends`` (NaN while open) are typed arrays.  Each
    row's ``(name, phase, status, attr keys)`` is its *kind*, interned
    once per table (``kinds`` holds the index), and the attr values of
    every row sit in one flat list, ``values``, in row order.  Rows keep
    the order they were appended in until a compaction sorts them by
    span id; a span's attrs keep their key order and value types, so a
    row reads back as the span it was.

    The tracer keeps retained trees here (a few dozen bytes a span,
    where a :class:`Span` with its attrs dict costs several hundred),
    and the same table is what a shard worker ships and the stitcher
    reads.  :meth:`drop_root` retires the rows a tree holds: they become
    tombstones until they outnumber the live ones, then the columns
    compact — a table never holds more than twice its live rows.  A
    table that holds tombstones, or took rows out of order
    (:meth:`absorb`), compacts on its first read: :meth:`rows`,
    iteration or pickling.
    """

    __slots__ = (
        "ids", "parents", "roots", "starts", "ends", "kinds", "values",
        "_kinds", "_kind_index", "_dead", "_dead_roots", "_unsorted",
    )

    def __init__(self, spans: Iterable[Span] = ()):
        self.ids = array("q")
        self.parents = array("q")
        self.roots = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.kinds = array("I")
        self.values: list = []
        #: kind index -> (name, phase, status, attr keys)
        self._kinds: List[tuple] = []
        self._kind_index: Dict[tuple, int] = {}
        #: tombstoned rows; dropped root -> rows held when it was dropped
        self._dead = 0
        self._dead_roots: Dict[int, int] = {}
        #: rows were absorbed out of span-id order
        self._unsorted = False
        for span in spans:
            self.append(span)

    def __len__(self) -> int:
        return len(self.ids) - self._dead

    def append(self, span: Span) -> None:
        """Add ``span`` as one row, in the state it has now."""
        attrs = span.attrs
        kind = (span.name, span.phase, span.status, tuple(attrs))
        code = self._kind_index.get(kind)
        if code is None:
            code = self._kind_index[kind] = len(self._kinds)
            self._kinds.append(kind)
        self.ids.append(span.span_id)
        parent = span.parent_id
        self.parents.append(_NO_PARENT if parent is None else parent)
        self.roots.append(span.root_id)
        self.starts.append(span.start)
        end = span.end
        self.ends.append(_OPEN if end is None else end)
        self.kinds.append(code)
        if attrs:
            self.values.extend(attrs.values())

    def absorb(self, spans: Iterable[Span]) -> "SpanTable":
        """Append ``spans`` as rows; from the next read on every row
        comes out in span-id order.

        The spans are appended in span-id order, so a kind first seen
        among them gets the code a span-id-ordered build would give it.
        """
        for span in sorted(spans, key=_span_id):
            self.append(span)
        self._unsorted = True
        return self

    def drop_root(self, root_id: int, rows: int) -> None:
        """Retire the ``rows`` rows ``root_id``'s tree holds now; a row
        of that root appended later stays."""
        self._dead_roots[root_id] = len(self.ids)
        self._dead += rows
        if self._dead > len(self):
            self._compact()

    def _compact(self) -> None:
        """Drop the tombstoned rows and order the rest by span id.

        In place, one column at a time, through a row order held in a
        typed array: the sort runs over packed ``span_id << 32 | row``
        ints, so no per-row tuple is built and the peak stays about one
        column set above the table.
        """
        dead = self._dead_roots
        keys = [
            span_id << 32 | row
            for row, (span_id, root) in enumerate(zip(self.ids, self.roots))
            if dead.get(root, 0) <= row
        ]
        keys.sort()
        order = array("I", [0]) * len(keys)
        for j, key in enumerate(keys):
            order[j] = key & _ROW_MASK
        del keys
        kinds, values = self.kinds, self.values
        widths = [len(kind[3]) for kind in self._kinds]
        offsets = array("I", [0]) * len(kinds)  # row -> its first value
        off = 0
        for row, code in enumerate(kinds):
            offsets[row] = off
            off += widths[code]
        kept: list = []
        for row in order:
            width = widths[kinds[row]]
            if width:
                off = offsets[row]
                kept.extend(values[off:off + width])
        self.values = kept
        del offsets, values
        for name in ("ids", "parents", "roots", "starts", "ends", "kinds"):
            column = getattr(self, name)
            setattr(
                self, name, array(column.typecode, map(column.__getitem__, order))
            )
        self._dead = 0
        self._dead_roots = {}
        self._unsorted = False

    def copy(self) -> "SpanTable":
        """An independent table with the same rows (tombstones too)."""
        out = SpanTable()
        out.ids, out.parents, out.roots = self.ids[:], self.parents[:], self.roots[:]
        out.starts, out.ends, out.kinds = self.starts[:], self.ends[:], self.kinds[:]
        out.values = self.values[:]
        out._kinds = list(self._kinds)
        out._kind_index = dict(self._kind_index)
        out._dead = self._dead
        out._dead_roots = dict(self._dead_roots)
        out._unsorted = self._unsorted
        return out

    def merged(self, spans: Iterable[Span] = ()) -> "SpanTable":
        """A new table: the live rows plus ``spans``, in span-id order."""
        out = self.copy().absorb(spans)
        out._compact()
        return out

    def rows(self) -> Iterator[tuple]:
        """Live rows in table order: ``(span_id, parent_id, root_id, name,
        phase, start, end, status, attrs)``, ``None`` for a root's parent
        and an open span's end."""
        if self._dead or self._unsorted:
            self._compact()
        kinds, values = self._kinds, self.values
        off = 0
        for span_id, parent, root, start, end, code in zip(
            self.ids, self.parents, self.roots, self.starts, self.ends,
            self.kinds,
        ):
            name, phase, status, keys = kinds[code]
            width = len(keys)
            attrs = dict(zip(keys, values[off:off + width])) if width else {}
            off += width
            yield (
                span_id, None if parent == _NO_PARENT else parent, root,
                name, phase, start, None if end != end else end, status,
                attrs,
            )

    def __iter__(self) -> Iterator[Span]:
        """Each live row as a fresh :class:`Span` (export-time use)."""
        for span_id, parent, root, name, phase, start, end, status, attrs in (
            self.rows()
        ):
            span = Span(span_id, parent, root, name, phase, start, attrs)
            span.end = end
            span.status = status
            yield span

    def __getstate__(self):
        if self._dead or self._unsorted:
            self._compact()
        return (
            self.ids, self.parents, self.roots, self.starts, self.ends,
            self.kinds, self._kinds, self.values,
        )

    def __setstate__(self, state) -> None:
        (self.ids, self.parents, self.roots, self.starts, self.ends,
         self.kinds, self._kinds, self.values) = state
        self._kind_index = {kind: i for i, kind in enumerate(self._kinds)}
        self._dead = 0
        self._dead_roots = {}
        self._unsorted = False


class SpanRetention:
    """What a tracer keeps of each closed root tree: the one decision.

    ``slowest_k`` takes one of three values:

    * ``K >= 1`` (``SpanRetention(K)``): the slowest ``K`` root trees per
      procedure plus *every* tree touching a fault or recovery (those
      are the runs worth a post-mortem), so ``--obs trace`` stays
      memory-safe at 100k+ UEs: retained spans are O(procedure kinds x
      K + faults), not O(total procedures).  A migration anchor adds
      its root row alone (:meth:`Tracer.pin`), not its tree;
    * ``None`` (:meth:`every`): every tree — a :class:`Tracer`'s default;
    * ``0`` (:meth:`nothing`): no span at all — metrics mode, where the
      tracer buffers no tree and only counters and phase folds remain.

    The policy only sees *closed* roots — the tracer buffers each open
    root's tree and asks :meth:`decide` at root finish.  The slowest-K
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
        self.slowest_k: Optional[int] = slowest_k
        self.roots_kept = 0
        self.roots_dropped = 0
        self._heaps: Dict[str, List[Tuple[float, int]]] = {}

    @classmethod
    def every(cls) -> "SpanRetention":
        """Keep every tree."""
        policy = cls()
        policy.slowest_k = None
        return policy

    @classmethod
    def nothing(cls) -> "SpanRetention":
        """Keep no span (metrics mode)."""
        policy = cls()
        policy.slowest_k = 0
        return policy

    def decide(self, root: Span, tree: List[Span]):
        """Keep a closed root's tree?  ``(keep, evicted_root_id)``, as
        :meth:`admit` returns it."""
        if self.slowest_k is None or self.always_keep(root, tree):
            return True, None
        proc = str(root.attrs.get("proc", root.name))
        return self.admit(proc, root.duration, root.span_id)

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
        """Trees kept and dropped; a pinned root row moves neither."""
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
    """Allocates and closes spans; one retention policy decides which stay.

    ``sim_now`` is a zero-arg callable returning the current sim time.
    ``retention`` (default :meth:`SpanRetention.every`) is the only
    knob over what is kept.  Each span is buffered with its root's tree
    while the root is open; when the root closes and the policy keeps
    the tree, its spans become rows of one :class:`SpanTable`.  Under
    :meth:`SpanRetention.nothing` (the metrics mode) no tree is
    buffered: span objects live just long enough to be timed and
    folded.  Span ids are sequential ints — deterministic, and stable
    enough for the RYW auditor to reference a violation's serving span.
    """

    def __init__(
        self,
        sim_now: Callable[[], float],
        retention: Optional[SpanRetention] = None,
        on_root_finish: Optional[Callable[[Span, Dict[str, float]], None]] = None,
        on_offpath_finish: Optional[Callable[[Span], None]] = None,
    ):
        self._now = sim_now
        self.retention = (
            SpanRetention.every() if retention is None else retention
        )
        #: whether spans are buffered at all (the policy keeps something)
        self._buffering = self.retention.slowest_k != 0
        self.started = 0
        self.finished = 0
        self._next_id = 1
        #: per-open-root fold entries: root span id -> [(end, span,
        #: phases override or None)], one per closed child (see the
        #: module docstring's fold rule).
        self._open_roots: Dict[int, List[tuple]] = {}
        self._on_root_finish = on_root_finish
        self._on_offpath_finish = on_offpath_finish
        # spans buffer per open root; when the root closes and the
        # policy keeps the tree, its closed spans become rows of _table
        # (an open one waits in _late until it closes).
        self._trees: Dict[int, List[Span]] = {}
        self._table = SpanTable()
        #: kept root id -> how many rows of _table its tree holds
        self._kept: Dict[int, int] = {}
        #: span id -> still-open span under a kept (or evicted) root
        self._late: Dict[int, Span] = {}
        #: the root the policy decided last: the one :meth:`pin` takes
        self._last_root: Optional[Span] = None
        #: pinned root id -> its root span, while its tree is kept and
        #: may still be evicted
        self._anchors: Dict[int, Span] = {}

    @property
    def spans(self) -> List[Span]:
        """Every retained span, in span-id order: :meth:`table`
        materialised — export-time use only, not a hot path."""
        return list(self.table())

    def table(self) -> SpanTable:
        """Every retained span as a new :class:`SpanTable`, in span-id
        order: kept trees, and the still-open trees and late spans as
        they stand (an open span reads ``end`` None, status ``open``)."""
        return self._table.merged(self._pending())

    def take_table(self) -> SpanTable:
        """Hand every retained span over as the tracer's own table.

        The end-of-run form of :meth:`table`: the kept rows are not
        copied, the still-open trees and late spans are appended to them
        as they stand, and the tracer keeps nothing retained afterwards.
        The rows come out in :meth:`table`'s order, sorted on the
        table's first read — after the caller has freed what it no
        longer needs.
        """
        table = self._table.absorb(self._pending())
        self._table = SpanTable()
        self._trees, self._late, self._kept = {}, {}, {}
        self._last_root, self._anchors = None, {}
        return table

    def _pending(self) -> List[Span]:
        """Spans not yet rows: open trees, and late spans of kept roots."""
        kept = self._kept
        pending = [span for tree in self._trees.values() for span in tree]
        pending.extend(s for s in self._late.values() if s.root_id in kept)
        return pending

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
        if self._buffering:
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
        """Park the span with its root's tree."""
        if span.parent_id is None:
            self._trees[span.span_id] = [span]
            return
        tree = self._trees.get(span.root_id)
        if tree is not None:
            tree.append(span)
            return
        if span.root_id in self._kept:
            # late off-path work (checkpoint ship after the root closed)
            # under a kept root: the tree grows, it was already admitted
            self._late[span.span_id] = span
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
            return
        # Root already closed: off-critical-path work (checkpoint
        # shipping after the UE's PCT clock stopped).
        if self._late and self._late.pop(span.span_id, None) is not None:
            root_id = span.root_id
            if root_id in self._kept:  # else evicted while it was open
                self._table.append(span)
                self._kept[root_id] += 1
        if self._on_offpath_finish is not None:
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
        """A root closed: keep its tree or drop it."""
        tree = self._trees.pop(root.span_id, None)
        policy = self.retention
        if tree is None:  # nothing buffered: the policy keeps nothing
            policy.roots_dropped += 1
            return
        self._last_root = root
        keep, evicted = policy.decide(root, tree)
        if not keep:
            policy.roots_dropped += 1
            return
        self._keep(root.span_id, tree)
        policy.roots_kept += 1
        if evicted is not None:
            rows = self._kept.pop(evicted, None)
            if rows is not None:
                self._table.drop_root(evicted, rows)
                anchor = self._anchors.pop(evicted, None)
                if anchor is not None:  # its root row outlives the tree
                    self._table.append(anchor)
            policy.roots_kept -= 1
            policy.roots_dropped += 1

    def _keep(self, root_id: int, tree: List[Span]) -> None:
        """The tree's closed spans become rows; open ones wait in _late."""
        table, late = self._table, self._late
        rows = 0
        for span in tree:
            if span.end is None:
                late[span.span_id] = span
            else:
                table.append(span)
                rows += 1
        self._kept[root_id] = rows

    def pin(self, root_id: int) -> bool:
        """Keep the just-decided root's row, whatever becomes of its tree.

        The cross-shard migration anchor: the shard engine learns that a
        procedure emigrated its UE only after its root closed, and calls
        this before another root closes.  The flow event needs the root
        row alone: a dropped tree leaves that one row, a kept tree's
        root row outlives a later eviction of the rest.  The policy's
        tallies do not move.  Returns False, keeping nothing, unless
        ``root_id`` is the root decided last.
        """
        root = self._last_root
        if root is None or root.span_id != root_id:
            return False
        self._last_root = None
        if root_id not in self._kept:
            self._table.append(root)
        elif self.retention.slowest_k is not None:  # may yet be evicted
            self._anchors[root_id] = root
        return True

    # -- queries --------------------------------------------------------------

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]
