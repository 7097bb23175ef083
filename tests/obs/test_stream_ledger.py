"""Unit tests for the sharded-obs primitives.

Covers the pieces the sharded integration suite exercises end to end:
bounded span retention (slowest-K heaps, always-keep exemptions, the
migration-anchor pin/limbo rescue), labeled metric snapshots and their
merge, the heartbeat stream's folding, the stitcher
against hand-built snapshots, and the run-ledger schema helpers.
"""

import io
import json

import pytest

from repro.obs import Observability
from repro.obs.export import stitch_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, label_snapshot, merge_snapshots
from repro.obs.stream import HeartbeatStream, open_stream
from repro.obs.tracer import SpanRetention, Tracer, span_rows, spans_from_rows
from repro.sim.monitor import imbalance


def make_tracer(keep=2):
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"], retention=SpanRetention(keep))
    return tracer, clock


def run_root(tracer, clock, name="proc.attach", dur=1.0, **attrs):
    root = tracer.begin(name, proc=name.split(".", 1)[1], **attrs)
    clock["t"] += dur
    tracer.finish(root, status="completed")
    return root


# ------------------------------------------------------------- SpanRetention


class TestSpanRetention:
    def test_slowest_k_admission_and_eviction(self):
        tracer, clock = make_tracer(keep=2)
        slow = run_root(tracer, clock, dur=5.0)
        fast = run_root(tracer, clock, dur=1.0)
        faster = run_root(tracer, clock, dur=0.5)  # rejected outright
        mid = run_root(tracer, clock, dur=3.0)  # evicts fast
        kept = {s.span_id for s in tracer.spans}
        assert slow.span_id in kept
        assert mid.span_id in kept
        assert fast.span_id not in kept
        assert faster.span_id not in kept
        stats = tracer.retention.stats()
        assert stats == {"limit": 2, "roots_kept": 2, "roots_dropped": 2}

    def test_budget_is_per_procedure(self):
        tracer, clock = make_tracer(keep=1)
        a = run_root(tracer, clock, name="proc.attach", dur=1.0)
        b = run_root(tracer, clock, name="proc.handover", dur=1.0)
        kept = {s.span_id for s in tracer.spans}
        assert kept == {a.span_id, b.span_id}

    def test_children_ride_their_roots_fate(self):
        tracer, clock = make_tracer(keep=1)
        root = tracer.begin("proc.attach", proc="attach")
        child = tracer.begin("hop.radio", parent=root)
        clock["t"] += 0.1
        tracer.finish(child)
        clock["t"] += 4.9
        tracer.finish(root, status="completed")
        run_root(tracer, clock, dur=0.5)  # slower root already holds the slot
        kept = {s.span_id for s in tracer.spans}
        assert kept == {root.span_id, child.span_id}

    def test_fault_touched_trees_bypass_the_budget(self):
        tracer, clock = make_tracer(keep=1)
        run_root(tracer, clock, dur=9.0)  # fills the budget
        root = tracer.begin("proc.attach", proc="attach")
        child = tracer.begin("cpf.handle", parent=root)
        clock["t"] += 0.1
        tracer.finish(child, status="error")
        tracer.finish(root, status="completed")
        recovered = tracer.begin("proc.service_request", proc="service_request")
        clock["t"] += 0.1
        tracer.finish(recovered, status="completed", recovered=True)
        kept = {s.span_id for s in tracer.spans}
        assert root.span_id in kept and recovered.span_id in kept
        assert tracer.retention.roots_dropped == 0

    def test_open_offpath_spans_do_not_exempt_a_tree(self):
        tracer, clock = make_tracer(keep=1)
        run_root(tracer, clock, dur=9.0)
        root = tracer.begin("proc.attach", proc="attach")
        tracer.begin("ckpt.ship", parent=root)  # still open at root close
        clock["t"] += 0.1
        tracer.finish(root, status="completed")
        assert root.span_id not in {s.span_id for s in tracer.spans}

    def test_pin_rescues_the_just_dropped_root(self):
        tracer, clock = make_tracer(keep=1)
        run_root(tracer, clock, dur=9.0)
        fast = run_root(tracer, clock, dur=0.1)  # rejected -> limbo
        assert tracer.pin(fast.span_id) is True
        assert fast.span_id in {s.span_id for s in tracer.spans}
        # a pinned root survives later evictions of its heap slot
        assert tracer.pin(fast.span_id) is True  # idempotent (now kept)

    def test_pin_protects_kept_roots_from_eviction(self):
        tracer, clock = make_tracer(keep=1)
        first = run_root(tracer, clock, dur=1.0)
        assert tracer.pin(first.span_id)
        slower = run_root(tracer, clock, dur=5.0)  # would evict first
        kept = {s.span_id for s in tracer.spans}
        assert first.span_id in kept and slower.span_id in kept

    def test_pin_misses_older_drops(self):
        tracer, clock = make_tracer(keep=1)
        run_root(tracer, clock, dur=9.0)
        old = run_root(tracer, clock, dur=0.1)
        run_root(tracer, clock, dur=0.2)  # overwrites limbo
        assert tracer.pin(old.span_id) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SpanRetention(0)


def test_span_rows_round_trip():
    tracer, clock = make_tracer(keep=4)
    root = tracer.begin("proc.attach", proc="attach", ue="ue-1")
    child = tracer.begin("hop.radio", parent=root, nbytes=64)
    clock["t"] += 0.25
    tracer.finish(child)
    tracer.finish(root, status="completed")
    rows = span_rows(tracer.spans)
    back = spans_from_rows(json.loads(json.dumps(rows)))
    assert [s.span_id for s in back] == [root.span_id, child.span_id]
    assert back[0].status == "completed"
    assert back[1].parent_id == root.span_id
    assert back[1].duration == pytest.approx(0.25)
    assert back[1].attrs == {"nbytes": 64}


# ------------------------------------------------------------------ metrics


class TestCompactAndLabeledSnapshots:
    def test_label_snapshot_stamps_every_row(self):
        reg = MetricsRegistry()
        reg.counter("hops", hop="radio").inc()
        reg.gauge("queue").set(2.0)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        labeled = label_snapshot(snap, shard=1)
        for section in ("counters", "gauges", "histograms"):
            assert all(
                row["labels"]["shard"] == "1" for row in labeled[section]
            )
        # the original is untouched
        assert all("shard" not in row["labels"] for row in snap["counters"])
        assert label_snapshot(None, shard=1) is None

    def test_merge_keeps_distinct_shard_rows(self):
        snaps = []
        for k in range(2):
            reg = MetricsRegistry()
            reg.counter("hops").inc(k + 1)
            snaps.append(label_snapshot(reg.snapshot(), shard=k))
        merged = merge_snapshots(snaps)
        values = {
            row["labels"]["shard"]: row["value"]
            for row in merged["counters"]
        }
        assert values == {"0": 1, "1": 2}

    def test_merge_of_full_rows_keeps_exact_samples(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat").observe(1.0)
        b.histogram("lat").observe(2.0)
        both = MetricsRegistry()
        both.histogram("lat").observe(2.0)
        both.histogram("lat").observe(1.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["histograms"] == both.snapshot()["histograms"]


def test_imbalance():
    assert imbalance([2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert imbalance([1.0, 3.0]) == pytest.approx(1.5)
    assert imbalance([]) == 1.0
    assert imbalance([0.0, 0.0]) == 1.0


# ------------------------------------------------------------------ stream


def _health(shard, **kw):
    row = {
        "shard": shard, "t": 1.0, "events": 100, "heap": 5,
        "completed": 10, "migrations_out": 1, "migrations_in": 2,
        "serves": 50, "writes": 20, "violations": 0, "wall_s": 0.5,
    }
    row.update(kw)
    return row


class TestHeartbeatStream:
    def test_heartbeat_folds_shard_rows(self):
        buf = io.StringIO()
        stream = HeartbeatStream(buf, progress=None)
        stream.heartbeat(7, 1.0, 2.0, [_health(0), _health(1, serves=30)])
        row = json.loads(buf.getvalue())
        assert row["type"] == "heartbeat"
        assert row["epoch"] == 7
        assert row["progress"] == pytest.approx(0.5)
        assert row["draining"] is False
        assert row["serves"] == 80
        assert row["migrations_out"] == 2
        assert len(row["shards"]) == 2
        assert "metrics" not in row  # no shard carried metrics

    def test_heartbeat_merges_labeled_metrics_once(self):
        reg = MetricsRegistry()
        reg.counter("hops").inc(4)
        buf = io.StringIO()
        stream = HeartbeatStream(buf, progress=None)
        stream.heartbeat(
            1, 2.5, 2.0,
            [_health(0, metrics=reg.snapshot()), _health(1)],
        )
        row = json.loads(buf.getvalue())
        assert row["draining"] is True  # t past the horizon
        assert row["t"] == 2.0  # clamped to the traffic horizon
        counters = row["metrics"]["counters"]
        assert counters[0]["labels"]["shard"] == "0"
        # per-shard rows carry scalars only; metrics appear once, merged
        assert all("metrics" not in s for s in row["shards"])

    def test_progress_line_format(self):
        buf, prog = io.StringIO(), io.StringIO()
        HeartbeatStream(buf, progress=prog).heartbeat(
            3, 0.5, 2.0, [_health(0)]
        )
        line = prog.getvalue()
        assert line.startswith("[obs-stream] t=0.500/2.000s epoch=3 ")
        assert "violations=0" in line

    def test_open_stream_stdout_and_file(self, tmp_path, capsys):
        stream, closer = open_stream("-")
        assert closer is None
        stream.emit({"type": "x"})
        assert json.loads(capsys.readouterr().out) == {"type": "x"}
        path = str(tmp_path / "hb.ndjson")
        stream, closer = open_stream(path)
        stream.emit({"type": "y"})
        closer.close()
        assert json.loads(open(path).read()) == {"type": "y"}


# ------------------------------------------------------------------ stitching


def _installed_obs():
    from types import SimpleNamespace

    dep = SimpleNamespace(obs=None, sim=SimpleNamespace(now=0.0))
    return Observability("trace").install(dep)


def test_stitch_links_flows_across_hand_built_shards():
    src = _installed_obs()
    root = src.tracer.begin("proc.handover", proc="handover", ue="ue-9")
    src.tracer.finish(root, status="completed")
    src.note_migration_out("m0:0", root.span_id, 1.0, "ue-9", 1)

    dst = _installed_obs()
    cont = dst.tracer.begin("shard.install_migrated", phase="migrate", ue="ue-9")
    dst.tracer.finish(cont)
    dst.note_migration_in("m0:0", cont.span_id, 1.5, "ue-9")

    data = stitch_chrome_trace(
        [src.snapshot(include_spans=True), dst.snapshot(include_spans=True)]
    )
    validate_chrome_trace(data)
    assert data["metadata"]["flow_events"] == 1
    start = next(e for e in data["traceEvents"] if e["ph"] == "s")
    fin = next(e for e in data["traceEvents"] if e["ph"] == "f")
    assert start["pid"] == 1 and fin["pid"] == 2
    assert start["id"] == fin["id"]
    assert fin["bp"] == "e"


def test_stitch_skips_flows_whose_anchor_was_dropped():
    snapshots = [
        {
            "spans": [],
            "flows_out": [
                {"link": "m0:0", "span": 99, "t": 1.0, "ue": "u", "dst": 1}
            ],
            "flows_in": [],
        },
        {
            "spans": [],
            "flows_out": [],
            "flows_in": [{"link": "m0:0", "span": 1, "t": 1.5, "ue": "u"}],
        },
    ]
    data = stitch_chrome_trace(snapshots)
    validate_chrome_trace(data)
    assert data["metadata"]["flow_events"] == 0


def test_note_migration_in_without_link_is_a_noop():
    obs = Observability("trace")
    obs.note_migration_in(None, 1, 0.0, "ue-1")
    assert obs.flows_in == []


# ------------------------------------------------------------------ ledger


def test_build_ledger_minimal_result():
    from repro.obs.ledger import LEDGER_SCHEMA, build_run_ledger
    from repro.scale.engine import ScaleResult

    result = ScaleResult(
        scenario="steady-city", mode="cohort", n_ue=10, duration_s=1.0,
        seed=1, end_time_s=1.0, regions_final=4, serves=5, writes=3,
        violations=0, completed=2, aborted=0, recovered=0, reattached=0,
        digest="abc",
    )
    ledger = build_run_ledger(result, argv=["scale"], trace_path="t.json")
    json.dumps(ledger)  # JSON-able throughout
    assert ledger["schema"] == LEDGER_SCHEMA
    assert ledger["auditor"] == {
        "serves": 5, "writes": 3, "violations": 0, "ok": True,
    }
    assert ledger["digest"] == "abc"
    assert ledger["artifacts"] == {"trace": "t.json", "stream": None}
    assert ledger["argv"] == ["scale"]
    assert "obs" not in ledger  # no obs_snapshot on the result
    assert len(ledger["code_fingerprint"]) == 64
