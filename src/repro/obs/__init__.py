"""``repro.obs``: deterministic tracing + metrics for the simulated core.

The paper's argument is a latency *decomposition* — checkpointing off
the critical path, cheap serialization (§4.2, §4.4) — so the
reproduction needs to see *where* a procedure spent its time, not just
its end-to-end PCT.  This package provides:

* :class:`~repro.obs.tracer.Tracer` — sim-clock spans with explicit
  parent links covering the whole procedure lifecycle (UE start/finish,
  every ``Deployment.hop`` transit, CPF queue/serve, CTA log append,
  checkpoint ship/ack, failover/replay);
* :class:`~repro.obs.metrics.MetricsRegistry` — labeled Counter /
  Gauge / Histogram instruments built on ``sim.monitor`` primitives,
  snapshotable mid-run and mergeable across parallel sweep workers;
* :mod:`~repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  plain-text timelines (``python -m repro obs fig07``).

The facade is :class:`Observability`: construct one (mode ``"trace"``
retains spans for export under one :class:`SpanRetention` policy;
``"metrics"`` keeps only phase histograms and counters),
:meth:`~Observability.install` it on a
:class:`~repro.core.deployment.Deployment`, run, then
:meth:`~Observability.snapshot` or export.  When no observability is
installed (``dep.obs is None``, the default) every instrumentation site
is a single attribute check — the disabled-mode overhead guarded by
``benchmarks/test_obs_overhead.py``.

Determinism contract: enabling obs never changes simulation behaviour —
no RNG draws, no clock advances, no scheduled work and no callback on
any event, so an installed ``Observability`` leaves ``Simulator._seq``
untouched; witness tests pin that obs-enabled runs reproduce pre-obs
EventTrace digests and PCT rows bit for bit (see
:mod:`repro.obs.tracer`).  Both executors emit through the same two
doors — ``begin``/``finish`` around a real wait, ``record`` for a span
whose end is known — so tracing never decides *how* a procedure runs
(the batched lane stays on under either mode).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_snapshot,
    merge_snapshots,
    summarize_histogram,
)
from .tracer import Span, SpanRetention, SpanTable, Tracer

__all__ = [
    "DEFAULT_SPAN_KEEP",
    "Observability",
    "fold_snapshots",
    "Tracer",
    "Span",
    "SpanRetention",
    "SpanTable",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "label_snapshot",
    "merge_snapshots",
    "summarize_histogram",
]

#: valid Observability modes (RunSpec.obs_mode adds "off" = don't install).
MODES = ("metrics", "trace")

#: the slowest-K bound of a trace whose caller leaves ``span_keep`` unset
#: (sharded or not, scale run or figure point); 0 keeps every tree.
DEFAULT_SPAN_KEEP = 32


class Observability:
    """Tracer + metrics registry bound to one deployment run."""

    def __init__(self, mode: str = "trace", span_keep: Optional[int] = None):
        if mode not in MODES:
            raise ValueError("obs mode must be one of %r, got %r" % (MODES, mode))
        self.mode = mode
        #: span retention in trace mode: keep the slowest ``span_keep``
        #: roots per procedure plus every fault/recovery tree, and the
        #: root row of each migration anchor;
        #: None = :data:`DEFAULT_SPAN_KEEP`, 0 = every tree.  Metrics
        #: mode keeps no span whatever it says.
        self.span_keep = span_keep
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self._dep = None
        #: (span_id, ue) of the most recently finished root span — the
        #: shard engine reads it synchronously after a procedure returns
        #: to anchor cross-shard migration flow events.
        self.last_root: Optional[Tuple[int, str]] = None
        #: cross-shard migration flow tables (trace mode, sharded runs):
        #: matched by link id at stitch time.
        self.flows_out: List[dict] = []
        self.flows_in: List[dict] = []
        #: hop class -> (span name, messages counter, bytes counter),
        #: bound on the class's first message.
        self._hops: Dict[str, tuple] = {}

    def install(self, dep) -> "Observability":
        """Bind to a deployment's sim clock and set ``dep.obs``.

        One Observability per run: rebinding would mix spans of two
        simulations into one timeline.
        """
        if self._dep is not None:
            raise RuntimeError("Observability is already installed on a deployment")
        sim_now = lambda: dep.sim.now  # noqa: E731 — tiny clock closure
        self.tracer = Tracer(
            sim_now,
            retention=self._retention(),
            on_root_finish=self._fold_root,
            on_offpath_finish=self._fold_offpath,
        )
        self.metrics = MetricsRegistry(sim_now)
        self._dep = dep
        dep.obs = self
        return self

    def _retention(self) -> SpanRetention:
        """A fresh policy for one install, from the mode and ``span_keep``."""
        if self.mode == "metrics":
            return SpanRetention.nothing()
        keep = DEFAULT_SPAN_KEEP if self.span_keep is None else self.span_keep
        return SpanRetention(keep) if keep else SpanRetention.every()

    # -- instrumentation hooks -------------------------------------------------

    def on_hop(
        self, hop_class: str, nbytes: int, start: float, end: float,
        status: str, parent,
    ) -> None:
        """One link traversal, known whole at the send instant.

        Called by :meth:`Deployment.hop` and by the batched lane with
        the same arguments: the message left at ``start`` and arrives
        (``"ok"``) or was lost (``"error"``, ``end == start``) at
        ``end``.  The span is recorded closed; nothing waits on it.
        """
        bound = self._hops.get(hop_class)
        if bound is None:
            bound = self._hops[hop_class] = (
                "hop." + hop_class,
                self.metrics.counter("hop_messages", hop=hop_class),
                self.metrics.counter("hop_bytes", hop=hop_class),
            )
        name, messages, volume = bound
        messages.value += 1
        volume.value += nbytes
        if parent is None:
            # Un-parented transits (call sites outside any procedure)
            # are counted but not traced: a bare hop root would pollute
            # the per-procedure timelines and phase histograms.
            return
        self.tracer.record(
            name, parent, "transit", start, end, status, {"nbytes": nbytes}
        )

    def note_migration_out(
        self, link: str, span_id: Optional[int], t: float, ue: str, dst: int
    ) -> None:
        """A UE emigrated: anchor the flow start on its last root span.

        Called by the shard engine on the *obs channel only*, right
        after the procedure whose root is ``span_id`` returns — the link
        id never enters the sim-side migration record, so the sharded
        digest is identical with or without tracing installed.  The
        anchor's root row is pinned (:meth:`Tracer.pin`): the stitched
        flow event starts on it, and the rest of its tree follows the
        retention policy like any other.
        """
        if span_id is not None:
            self.tracer.pin(span_id)
        self.flows_out.append(
            {"link": link, "span": span_id, "t": t, "ue": ue, "dst": dst}
        )

    def note_migration_in(
        self, link: Optional[str], span_id: int, t: float, ue: str
    ) -> None:
        if link is None:
            return  # source shard ran without tracing; nothing to stitch
        self.flows_in.append({"link": link, "span": span_id, "t": t, "ue": ue})

    def _fold_root(self, root: Span, phases: Dict[str, float]) -> None:
        """A procedure root closed: record its per-phase decomposition."""
        self.last_root = (root.span_id, str(root.attrs.get("ue", "")))
        proc = str(root.attrs.get("proc", root.name))
        metrics = self.metrics
        metrics.histogram("proc_total_s", proc=proc).observe(root.duration)
        accounted = 0.0
        for phase, seconds in phases.items():
            metrics.histogram("phase_s", proc=proc, phase=phase).observe(seconds)
            accounted += seconds
        # Whatever the instrumented children don't cover (UE think time
        # between steps is zero here, but queueing outside any span is
        # not) shows up explicitly instead of silently vanishing.
        other = root.duration - accounted
        if other > 0:
            metrics.histogram("phase_s", proc=proc, phase="other").observe(other)

    def _fold_offpath(self, span: Span) -> None:
        """Work ending after its root closed (off the critical path)."""
        self.metrics.histogram(
            "offpath_s", phase=span.phase, span=span.name
        ).observe(span.duration)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state: metric dump, span accounting and the retention
        policy's stats.  Mid-run safe.

        The retained spans leave only at the end of a run, through
        :meth:`hand_over`.
        """
        snap: Dict[str, object] = {
            "mode": self.mode,
            "spans_started": self.tracer.started if self.tracer else 0,
            "spans_finished": self.tracer.finished if self.tracer else 0,
            "metrics": self.metrics.snapshot() if self.metrics else None,
        }
        tracer = self.tracer
        if tracer is not None:
            snap["retention"] = tracer.retention.stats()
        return snap

    def hand_over(self) -> Dict[str, object]:
        """The end-of-run :meth:`snapshot`, spans included, handed over.

        It adds the retained spans as one :class:`SpanTable` (``spans``;
        empty in metrics mode) and the migration flow tables — the wire
        form shard workers ship to the coordinator for stitching.  The
        table pickles; it is not JSON.  The table and the flow tables
        are this instance's own
        (:meth:`~repro.obs.tracer.Tracer.take_table`), not copies, so
        the process holds one of each; the tracer keeps no span after.
        """
        snap = self.snapshot()
        tracer = self.tracer
        if tracer is not None:
            snap["spans"] = tracer.take_table()
            snap["flows_out"], self.flows_out = self.flows_out, []
            snap["flows_in"], self.flows_in = self.flows_in, []
        return snap


def fold_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One run's obs summary from its shards' snapshots, in shard order.

    The same fold for one shard (an unsharded run) and for k: span
    counts and retention tallies add up, every metric row is labeled
    with its ``shard`` and the rows merge — so a run's summary, and the
    ledger's ``obs`` section built from it, has the same keys however
    the run was executed.
    """
    retentions = [s["retention"] for s in snapshots]
    return {
        "mode": snapshots[0]["mode"],
        "shards": len(snapshots),
        "spans_started": sum(s["spans_started"] for s in snapshots),
        "spans_finished": sum(s["spans_finished"] for s in snapshots),
        "metrics": merge_snapshots([
            label_snapshot(s["metrics"], shard=k)
            for k, s in enumerate(snapshots)
        ]),
        "retention": {
            "limit": retentions[0]["limit"],
            "roots_kept": sum(r["roots_kept"] for r in retentions),
            "roots_dropped": sum(r["roots_dropped"] for r in retentions),
        },
    }
