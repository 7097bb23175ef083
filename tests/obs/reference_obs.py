"""The parent commit's span machinery, verbatim — a test fixture only.

Never imported by ``src/``.  Copied from commit ``aa11b25`` (the parent
of "Tracing you can leave on"):

* :class:`ReferenceTracer` — ``repro.obs.tracer.Tracer`` as it was:
  every span is ``begin`` + ``finish``, a child folds into its root's
  per-phase accumulator *at the moment it finishes*, ``span`` is a
  generator-based ``@contextmanager`` and ``end_on`` hangs the finish on
  an event callback;
* :meth:`ReferenceObservability.on_hop` — the old hook: two labeled
  counter lookups, ``begin`` and ``end_on`` on the hop's event;
* :func:`reference_hop` — the old ``Deployment.hop``, whose obs branch
  wraps every delivered delay in a ``Timeout`` so the span has an event
  to close on.

``tests/obs/test_obs_oracle.py`` runs the same schedules under this and
under the live code and requires the same span forest and the same
metrics snapshot.
"""

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs import Observability
from repro.obs.tracer import Span, SpanRetention
from repro.sim.core import Event

__all__ = ["ReferenceTracer", "ReferenceObservability", "reference_hop"]


class ReferenceTracer:
    """Allocates, finishes, and (optionally) retains spans.

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
        #: per-open-root phase accumulator: root span id -> {phase: seconds}.
        self._open_roots: Dict[int, Dict[str, float]] = {}
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

    def begin(
        self, name: str, parent: Optional[Span] = None,
        phase: Optional[str] = None, **attrs
    ) -> Span:
        """Start a span now; link it under ``parent`` when given."""
        span_id = self._next_id
        self._next_id += 1
        self.started += 1
        if parent is not None:
            span = Span(span_id, parent.span_id, parent.root_id, name,
                        phase or name.split(".", 1)[0], self._now(), attrs)
        else:
            span = Span(span_id, None, span_id, name,
                        phase or name.split(".", 1)[0], self._now(), attrs)
            self._open_roots[span_id] = {}
        if self.retain:
            if self.retention is None:
                self._spans.append(span)
            else:
                self._buffer(span)
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
        span.end = self._now()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self.finished += 1
        if span.parent_id is None:
            folds = self._open_roots.pop(span.root_id, {})
            if self._on_root_finish is not None:
                self._on_root_finish(span, folds)
            if self.retention is not None:
                self._decide_root(span)
            return span
        acc = self._open_roots.get(span.root_id)
        if acc is not None:
            for phase, seconds in (phases or ((span.phase, span.duration),)):
                acc[phase] = acc.get(phase, 0.0) + seconds
        elif self._on_offpath_finish is not None:
            # Root already closed: off-critical-path work (checkpoint
            # shipping after the UE's PCT clock stopped).
            self._on_offpath_finish(span)
        return span

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None,
        phase: Optional[str] = None, **attrs
    ):
        """Context manager form for straight-line (generator) code.

        The span closes when the block exits — in a sim process that is
        the moment the process resumes past the block, which is exactly
        the fire time of whatever it yielded on.  An exception thrown
        into the block (a :class:`~repro.sim.node.NodeFailed` delivered
        at a yield) marks the span ``error`` and propagates.
        """
        span = self.begin(name, parent=parent, phase=phase, **attrs)
        try:
            yield span
        except BaseException:
            self.finish(span, status="error")
            raise
        self.finish(span)

    def end_on(self, span: Span, event) -> "object":
        """Finish ``span`` when ``event`` fires (callback-style code).

        Returns the event so call sites stay expressions.  The callback
        only records time and status — never sim state — so it is
        schedule-transparent (see the module docstring).
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


class ReferenceObservability(Observability):
    """The live facade over a :class:`ReferenceTracer`, old ``on_hop``."""

    def install(self, dep) -> "ReferenceObservability":
        super().install(dep)
        live = self.tracer
        self.tracer = ReferenceTracer(
            live._now,
            retain=live.retain,
            on_root_finish=self._fold_root,
            on_offpath_finish=self._fold_offpath,
            retention=live.retention,
        )
        return self

    def on_hop(self, hop_class: str, nbytes: int, event, parent) -> None:
        """Per-link-traversal hook called by :meth:`Deployment.hop`."""
        self.metrics.counter("hop_messages", hop=hop_class).inc()
        self.metrics.counter("hop_bytes", hop=hop_class).inc(nbytes)
        if parent is None:
            # Un-parented transits (call sites outside any procedure)
            # are counted but not traced: a bare hop root would pollute
            # the per-procedure timelines and phase histograms.
            return
        span = self.tracer.begin(
            "hop." + hop_class, parent=parent, phase="transit", nbytes=nbytes
        )
        self.tracer.end_on(span, event)


def reference_hop(
    self,
    hop_class: str,
    nbytes: int,
    src: Optional[str] = None,
    dst: Optional[str] = None,
    parent: Optional[Any] = None,
) -> Union[float, Event]:
    """One directed link traversal, as something a process yields.

    ``src``/``dst`` name the endpoints when the caller knows them
    (replication, repair, migration legs); the fault injector uses
    them for partition decisions.  A delivered message is its delay
    in seconds (a ``float``: the cheapest wait the kernel has); a
    lost one (blackholed link, partition, exhausted
    retransmissions) is an event failed with
    :class:`~repro.sim.network.LinkDown` — which the protocol layer
    handles exactly like a peer failure.  Which of the two comes
    back is decided from link and injector state at the send
    instant.

    ``parent`` is the observability span this traversal belongs to
    (the procedure's root, a checkpoint ship, a replay); ignored
    unless an :class:`~repro.obs.Observability` is installed, in
    which case the wait is always an event the hop span closes on.
    """
    link = self.links[hop_class]
    if self.faults is not None:
        wait = self.faults.transit_event(link, nbytes, src, dst)
    else:
        link.messages_sent += 1
        link.bytes_sent += nbytes
        wait = link.delay(nbytes)
    if self.obs is not None:
        if type(wait) is float:
            wait = self.sim.timeout(wait)
        self.obs.on_hop(hop_class, nbytes, wait, parent)
    return wait
