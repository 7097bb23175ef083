"""The columnar span store is exact: what goes in as spans reads back.

A retained span is a row of one :class:`~repro.obs.tracer.SpanTable`
— in the tracer's kept trees, in the snapshot a shard worker ships, at
the coordinator and in the stitcher.  These tests pin that the table
changes nothing a reader of the trace sees:

* the stitched Chrome trace of a sharded run hashes to a pinned value
  on both backends (the table crosses the pipe unchanged), and the
  bounded trace of a migration-bearing run is a subset of its
  keep-everything trace with the same flow events;
* a table round-trips through pickle, counts its live rows, and a
  tracer exports in span-id order with still-open spans included;
* under a synthetic slowest-K campaign with heavy eviction the tracer's
  retained forest equals the reference tracer's (the parent's list-of-
  spans retention), and the rows a table holds never exceed twice the
  live kept spans; a pinned migration anchor adds its root row alone,
  and at the finish of a commute wave each anchor whose tree was not
  kept holds exactly one row, however many migrations the run makes;
* a shipped table costs at most 150 B per span once unpickled — one
  dict per span (616 B) does not come back;
* the table a tracer hands over at the end of a run reads back row for
  row as :meth:`Tracer.table` would have copied it, before and after
  pickle, and compacting it in place peaks at ≤ 1.5x its column bytes
  (sorting one ``(span_id, row)`` tuple per row took ~3.8x).

A pinned hash never moves for a refactor.  It moves only with a change
to what retention keeps, and then only beside an oracle that shows the
new trace is what the policy says it is (for the fault-window run:
``test_bounded_trace_is_a_subset_of_the_full_one``).
"""

import hashlib
import json
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from repro.obs import DEFAULT_SPAN_KEEP, Observability
from repro.obs.export import stitch_chrome_trace
from repro.obs.tracer import Span, SpanRetention, SpanTable, Tracer
from repro.scale.engine import run_scenario

from tests.scale.test_sharded import _fault_window_spec, run2

from .reference_obs import ReferenceTracer

#: ``sha256(json.dumps(stitched))[:16]``.  ``RUN2_TRACE`` was computed
#: when each shard still shipped one dict per span.  ``FAULT_WINDOW_TRACE``
#: moved once (from ``797c0f0fac11416a``) when a pinned migration anchor
#: stopped keeping its whole tree and kept its root row alone.
RUN2_TRACE = "0d44d22fbfab9bef"
FAULT_WINDOW_TRACE = "719f722cb3f7d9fa"


def trace_hash(result):
    data = stitch_chrome_trace(result.obs_shards)
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16], data


def fields(span):
    return (
        span.span_id, span.parent_id, span.root_id, span.name, span.phase,
        span.start, span.end, span.status, list(span.attrs.items()),
    )


# ----------------------------------------------------------- stitched traces


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_stitched_trace_is_byte_identical(backend):
    digest, _ = trace_hash(run2(obs=Observability("trace"), backend=backend))
    assert digest == RUN2_TRACE


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_migration_bearing_stitched_trace_is_byte_identical(backend):
    res = run_scenario(
        _fault_window_spec(), shards=2, shard_backend=backend,
        obs=Observability("trace"), verbose_trace=True,
    )
    digest, data = trace_hash(res)
    assert data["metadata"]["flow_events"] == 32
    assert digest == FAULT_WINDOW_TRACE


def _span_keys(data):
    return {
        (ev["pid"], ev["args"]["span_id"], ev["name"], ev["ts"], ev["dur"])
        for ev in data["traceEvents"] if ev["ph"] == "X"
    }


def test_bounded_trace_is_a_subset_of_the_full_one():
    """The default-K stitched trace holds only spans of the
    keep-everything trace, each as it was in the run, and every one of
    its flow events."""
    traces = [
        trace_hash(run_scenario(
            _fault_window_spec(), shards=2, shard_backend="inline",
            obs=Observability("trace", span_keep=keep), verbose_trace=True,
        ))[1]
        for keep in (None, 0)
    ]
    bounded, full = (_span_keys(data) for data in traces)
    assert bounded < full
    assert [d["metadata"]["flow_events"] for d in traces] == [32, 32]


# ------------------------------------------------------------------ the table


def test_pickle_round_trip():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"], retention=SpanRetention(4))
    root = tracer.begin("proc.attach", proc="attach", ue="ue-1")
    child = tracer.begin("hop.radio", parent=root, nbytes=64)
    clock["t"] += 0.25
    tracer.finish(child)
    tracer.finish(root, status="completed")
    table = tracer.table()
    back = pickle.loads(pickle.dumps(table))
    assert len(back) == len(table) == 2
    spans = list(back)
    assert spans == [root, child] == tracer.spans
    assert [s.span_id for s in spans] == [root.span_id, child.span_id]
    assert spans[0].status == "completed"
    assert spans[1].parent_id == root.span_id
    assert spans[1].duration == pytest.approx(0.25)
    assert spans[1].attrs == {"nbytes": 64}
    assert list(back.rows()) == list(table.rows())


def test_rows_keep_attr_order_and_value_types():
    span = Span(7, 3, 1, "cpf.handle", "cpf", 0.5, {
        "z": 1, "a": True, "m": 1.0, "s": "x", "n": None, "t": (1, 2),
    })
    span.end, span.status = 0.75, "error"
    (back,) = pickle.loads(pickle.dumps(SpanTable([span])))
    assert back == span
    assert list(back.attrs) == ["z", "a", "m", "s", "n", "t"]
    assert [type(v) for v in back.attrs.values()] == [
        int, bool, float, str, type(None), tuple,
    ]


def test_names_and_key_tuples_are_interned_once():
    spans = []
    for i in range(1, 101):
        span = Span(i, None if i == 1 else 1, 1, "hop.radio", "transit",
                    float(i), {"nbytes": i})
        span.end, span.status = float(i) + 0.5, "ok"
        spans.append(span)
    table = SpanTable(spans)
    assert len(table) == 100
    assert len(table._kinds) == 1  # one (name, phase, status, keys) for all
    assert len(table.values) == 100


def test_export_is_in_span_id_order_with_open_spans():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"], retention=SpanRetention(4))
    first = tracer.begin("proc.attach", proc="attach")
    second = tracer.begin("proc.tau", proc="tau")
    hop = tracer.begin("hop.radio", parent=first)
    clock["t"] = 1.0
    tracer.finish(second, status="completed")  # kept before `first` closes
    ship = tracer.begin("checkpoint.ship", parent=second)  # late, open
    tracer.finish(hop)
    table = tracer.table()
    assert list(table.ids) == sorted(table.ids) == [
        first.span_id, second.span_id, hop.span_id, ship.span_id,
    ]
    by_id = {s.span_id: s for s in table}
    assert by_id[first.span_id].end is None  # its root is still open
    assert by_id[first.span_id].status == "open"
    assert by_id[ship.span_id].end is None
    assert by_id[ship.span_id].status == "open"
    assert by_id[hop.span_id].end == 1.0
    clock["t"] = 2.0
    tracer.finish(ship, status="acked")  # the late span becomes a row
    tracer.finish(first, status="completed")
    assert [fields(s) for s in tracer.spans] == [
        fields(s) for s in (first, second, hop, ship)
    ]
    assert len(tracer._table) == 4 and not tracer._late


# --------------------------------------------------- eviction vs the reference


def _campaign(tracer, seed, steps=3000, pinned=None):
    """Drive ``tracer`` through one seeded begin/finish/pin script.

    Durations drift upward, so most admissions evict an earlier root:
    slowest-K churn is the common case, not the corner.  About one
    closed root in twenty is pinned as it closes and appended to
    ``pinned``; with ``pinned`` None the same script pins nothing.
    """
    rng = random.Random(seed)
    clock = {"t": 0.0}
    tracer._now = lambda: clock["t"]
    open_roots, open_children, closed_roots = [], [], []
    for step in range(steps):
        clock["t"] += rng.random() * 1e-3
        op = rng.random()
        if op < 0.2 or not open_roots:
            proc = rng.choice(("attach", "tau", "service_request"))
            open_roots.append(tracer.begin("proc." + proc, proc=proc, ue="ue-%d" % step))
        elif op < 0.55:
            parent = rng.choice(open_roots)
            if closed_roots and rng.random() < 0.15:
                parent = rng.choice(closed_roots[-8:])  # late, off-path work
            open_children.append(tracer.begin(
                rng.choice(("hop.radio", "cpf.handle", "checkpoint.ship")),
                parent=parent, nbytes=rng.randrange(40, 2000),
            ))
        elif op < 0.8 and open_children:
            child = open_children.pop(rng.randrange(len(open_children)))
            status = "error" if rng.random() < 0.01 else "ok"
            tracer.finish(child, status=status)
        else:
            root = open_roots.pop(rng.randrange(len(open_roots)))
            clock["t"] += step * 1e-5  # later roots run longer
            tracer.finish(root, status="completed")
            closed_roots.append(root)
            if rng.random() < 0.05 and pinned is not None:
                assert tracer.pin(root.span_id)
                pinned.append(root)
        yield
    for child in open_children:  # some roots of these are long gone
        tracer.finish(child)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slowest_k_campaign_matches_reference_and_stays_bounded(seed):
    """The reference runs the script unpinned: a pin adds the root row
    alone to what the policy keeps, and moves no tally."""
    live = Tracer(lambda: 0.0, retention=SpanRetention(3))
    ref = ReferenceTracer(lambda: 0.0, retention=SpanRetention(3))
    held_max_ratio, tombstones_seen = 0.0, False
    pinned, pinned_kept = [], set()
    ref_steps = _campaign(ref, seed)
    for _ in _campaign(live, seed, pinned=pinned):
        next(ref_steps)
        if pinned and pinned[-1].span_id in live._kept:
            pinned_kept.add(pinned[-1].span_id)
        table = live._table
        held = len(table.ids)
        kept_spans = len(table) + sum(
            1 for s in live._late.values() if s.root_id in live._kept
        )
        assert held <= 2 * kept_spans
        tombstones_seen |= held > len(table)
        if kept_spans:
            held_max_ratio = max(held_max_ratio, held / kept_spans)
    for _ in ref_steps:  # its trailing finishes
        pass
    assert tombstones_seen and held_max_ratio <= 2.0
    assert live.retention.roots_dropped > 20 * live.retention.slowest_k
    assert live.retention.stats() == ref.retention.stats()
    forest = ref.spans
    ref_ids = {s.span_id for s in forest}
    anchors = [root for root in pinned if root.span_id not in ref_ids]
    # anchors of trees dropped at once, and of trees kept, then evicted
    anchor_ids = {root.span_id for root in anchors}
    assert len(anchor_ids - pinned_kept) >= 15
    assert len(anchor_ids & pinned_kept) >= 5
    expected = sorted(forest + anchors, key=lambda s: s.span_id)
    assert [fields(s) for s in live.spans] == [fields(s) for s in expected]


# ------------------------------------------------------------ growth guard


def test_an_anchor_costs_one_row_as_migrations_grow(monkeypatch):
    """A commute wave, run twice as long, makes about twice the
    migrations: each anchor whose tree the policy did not keep is still
    one root row, and every other procedure root heads one of the
    slowest K trees of its kind — the kept set does not grow with the
    run."""
    kept_at_finish = []
    take_table = Tracer.take_table

    def spy(tracer):
        kept_at_finish.append(set(tracer._kept))
        return take_table(tracer)

    monkeypatch.setattr(Tracer, "take_table", spy)
    lone_anchors = []
    for duration in (1.0, 2.0):
        del kept_at_finish[:]
        res = run_scenario(
            "commute-wave", n_ue=8000, duration_s=duration, seed=1,
            mode="batched", shards=2, shard_backend="inline",
            obs=Observability("trace"),
        )
        lone_total = 0
        for snap, kept in zip(res.obs_shards, kept_at_finish):
            rows = list(snap["spans"].rows())
            per_root = Counter(row[2] for row in rows)
            lone = {flow["span"] for flow in snap["flows_out"]} - kept - {None}
            assert {a: per_root[a] for a in lone} == dict.fromkeys(lone, 1)
            trees = Counter(
                attrs["proc"]
                for span_id, parent, _, name, _, _, _, _, attrs in rows
                if parent is None and name.startswith("proc.")
                and span_id not in lone
            )
            assert max(trees.values()) <= DEFAULT_SPAN_KEEP, trees
            lone_total += len(lone)
        lone_anchors.append(lone_total)
    assert 0 < lone_anchors[0] < lone_anchors[1], lone_anchors


# ------------------------------------------------------------ memory guard


def test_shipped_table_costs_under_150_bytes_a_span():
    """~70 B a span here, against 616 B for one dict per span.

    A commute wave rather than ``run2``: ``run2`` retains 114 and 59
    spans per shard, where the few kilobytes of interned names a table
    carries whatever its length would dominate the per-span figure.
    """
    res = run_scenario(
        "commute-wave", n_ue=2000, duration_s=1.0, seed=1, mode="batched",
        shards=2, shard_backend="inline", obs=Observability("trace"),
    )
    for snap in res.obs_shards:
        blob = pickle.dumps(snap["spans"])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = pickle.loads(blob)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) > 1000
        assert size / len(table) <= 150, size / len(table)


# ------------------------------------------------------------ the hand-over


def _columns(table):
    """Every column as bytes (an open span's end is NaN, never equal)."""
    arrays = (table.ids, table.parents, table.roots, table.starts,
              table.ends, table.kinds)
    return [c.tobytes() for c in arrays] + [table.values, table._kinds]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_handed_over_table_reads_back_as_the_copy(seed):
    """Cut the campaign at several points: tombstones, open trees and
    late spans all stand when the table is handed over."""
    seen = {"tombstones": 0, "open": 0, "late": 0}
    for cut in (400, 1100, 1900, 2600):
        tracers = [Tracer(lambda: 0.0, retention=SpanRetention(3)) for _ in range(3)]
        for steps in zip(*(_campaign(t, seed, pinned=[]) for t in tracers)):
            if not cut:
                break
            cut -= 1
        copy_of, handed, shipped = tracers
        seen["tombstones"] += handed._table._dead > 0
        seen["open"] += bool(handed._trees)
        seen["late"] += any(s.root_id in handed._kept for s in handed._late.values())
        expected = copy_of.table()
        table = handed.take_table()
        assert list(table.rows()) == list(expected.rows())
        assert _columns(table) == _columns(expected)
        back = pickle.loads(pickle.dumps(shipped.take_table()))
        assert list(back.rows()) == list(expected.rows())
        assert _columns(back) == _columns(expected)
        # the tracer keeps none
        assert len(handed.table()) == 0 and not handed._kept
    assert all(seen.values()), seen


def test_take_table_under_the_default_policy_hands_over_every_span():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"])  # keeps every tree
    root = tracer.begin("proc.attach", proc="attach")
    tracer.finish(tracer.begin("hop.radio", parent=root, nbytes=64))
    expected = list(tracer.table().rows())
    table = tracer.take_table()
    assert list(table.rows()) == expected and len(expected) == 2
    assert tracer.spans == []


def _column_bytes(table):
    arrays = (table.ids, table.parents, table.roots, table.starts,
              table.ends, table.kinds)
    return sum(c.itemsize * len(c) for c in arrays) + 8 * len(table.values)


def test_compaction_peaks_under_one_and_a_half_column_sets():
    """50k rows in shuffled span-id order, one tree in seven retired."""
    rng = random.Random(7)
    ids = list(range(1, 50_001))
    rng.shuffle(ids)
    spans = []
    for span_id in ids:
        root = span_id - span_id % 10 or 10
        span = Span(
            span_id, None if span_id == root else root, root,
            "hop.radio" if span_id % 3 else "cpf.handle", "transit",
            float(span_id), {"nbytes": 40 + span_id % 100} if span_id % 5 else {},
        )
        span.end, span.status = span_id + 0.5, "ok"
        spans.append(span)
    table = SpanTable(spans)
    for root in range(10, 50_001, 70):
        table.drop_root(root, 0)  # tombstones without an early compaction
    table._dead = sum(root in table._dead_roots for root in table.roots)
    live = len(table)
    budget = 1.5 * _column_bytes(table)
    table.absorb(())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = next(table.rows())  # the first read compacts
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(table.ids) == live == len(table)
    assert [first[0]] + list(table.ids)[1:] == sorted(s.span_id for s in spans
                                     if s.root_id not in range(10, 50_001, 70))
    assert peak <= budget, (peak, budget)
