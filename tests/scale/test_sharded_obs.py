"""Shard-aware observability: trace stitching, heartbeats, the ledger.

The contract under test (ISSUE: schedule transparency at scale):

* installing tracing on a sharded run leaves the merged EventTrace
  digest bit-identical to the obs-off pinned witness (the trace-link id
  rides the obs channel only — sim consumers index ``rec[:7]``);
* the coordinator stitches the per-shard span tables into one
  Chrome/Perfetto trace with one process per shard and, on a
  migration-bearing run, at least one cross-shard flow event joining
  the emigrating procedure to its ``shard.install_migrated``
  continuation;
* the epoch-aligned heartbeat stream is deterministic in every
  simulation-derived field (two runs produce identical rows once the
  wall-clock measurement fields are dropped) and requesting it never
  perturbs the schedule;
* the run ledger round-trips through JSON under its stable schema.

The pinned digest must NEVER be regenerated to make a refactor pass.
"""

import io
import json
import weakref

import pytest

from repro.obs import Observability
from repro.obs.export import stitch_chrome_trace, validate_chrome_trace
from repro.obs.ledger import LEDGER_SCHEMA, build_run_ledger, write_run_ledger
from repro.obs.stream import HeartbeatStream
from repro.scale import shard as sh
from repro.scale.engine import run_scenario

from .test_sharded import PINNED_SHARDED_DIGEST, _fault_window_spec, run2

#: heartbeat fields that are wall-clock measurement, not contract.
_VOLATILE = ("wall_s", "lag_s", "imbalance")


def _stable_rows(text: str):
    rows = []
    for line in text.splitlines():
        row = json.loads(line)
        for key in _VOLATILE:
            row.pop(key, None)
        for shard_row in row.get("shards", ()):
            for key in _VOLATILE:
                shard_row.pop(key, None)
        rows.append(row)
    return rows


# ---------------------------------------------------- schedule transparency


def test_sharded_trace_digest_matches_pinned_witness():
    res = run2(obs=Observability("trace"))
    assert res.violations == 0
    assert res.digest == PINNED_SHARDED_DIGEST, (
        "installing tracing moved the sharded digest: the obs channel "
        "leaked into the simulation schedule"
    )
    snap = res.obs_snapshot
    assert snap["mode"] == "trace"
    assert snap["spans_started"] == snap["spans_finished"] > 0


def test_sharded_batched_trace_digest_matches_pinned_witness():
    res = run2(mode="batched", obs=Observability("trace"))
    assert res.digest == PINNED_SHARDED_DIGEST


def test_heartbeat_stream_does_not_perturb_the_digest():
    stream = HeartbeatStream(io.StringIO(), progress=None)
    res = run2(obs=Observability("metrics"), stream=stream)
    assert res.digest == PINNED_SHARDED_DIGEST
    assert stream.rows > 1  # heartbeats + the summary row


# ------------------------------------------------------------------ stitching


def test_stitched_trace_validates_with_per_shard_tracks():
    res = run2(obs=Observability("trace"))
    data = stitch_chrome_trace(res.obs_shards)
    assert validate_chrome_trace(data) == len(data["traceEvents"])
    assert data["metadata"]["shards"] == 2
    names = {
        ev["args"]["name"]
        for ev in data["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "process_name"
    }
    assert names == {"repro-sim shard 0", "repro-sim shard 1"}
    pids = {ev["pid"] for ev in data["traceEvents"]}
    assert pids == {1, 2}


def test_migration_bearing_run_has_cross_shard_flow_events():
    res = run_scenario(
        _fault_window_spec(), shards=2, shard_backend="inline",
        obs=Observability("trace"), verbose_trace=True,
    )
    assert res.counters.get("migrations_out", 0) > 0
    data = stitch_chrome_trace(res.obs_shards)
    validate_chrome_trace(data)
    starts = [ev for ev in data["traceEvents"] if ev["ph"] == "s"]
    ends = [ev for ev in data["traceEvents"] if ev["ph"] == "f"]
    assert data["metadata"]["flow_events"] >= 1
    assert len(starts) == len(ends) == data["metadata"]["flow_events"]
    by_id = {ev["id"]: ev for ev in starts}
    for fin in ends:
        start = by_id[fin["id"]]
        # the flow crosses a process (= shard) boundary, forward in time
        assert start["pid"] != fin["pid"]
        assert start["ts"] <= fin["ts"]
        assert start["args"]["ue"] == fin["args"]["ue"]
    # every destination anchor is an install continuation span
    install = [
        ev for ev in data["traceEvents"]
        if ev["ph"] == "X" and ev["name"] == "shard.install_migrated"
    ]
    assert len(install) >= len(ends)


# ------------------------------------------------------------- the finish


def test_each_host_frees_its_engine_before_the_next_payload(monkeypatch):
    """Shard 0's engine is gone before shard 1's payload is built (the
    coordinator receives a worker's only after that), and the run still
    lands on the pinned witness."""
    finish = sh._InlineHost.finish
    engines = []

    def watched(host):
        assert all(ref() is None for ref in engines)  # earlier shards freed
        engines.append(weakref.ref(host.engine))
        payload = finish(host)
        assert host.engine is None and engines[-1]() is None
        return payload

    monkeypatch.setattr(sh._InlineHost, "finish", watched)
    res = run2(obs=Observability("trace"))
    assert len(engines) == 2
    assert res.digest == PINNED_SHARDED_DIGEST


def test_a_worker_that_frees_its_engine_ships_the_inline_payload():
    """The worker drops its engine before it pickles: its span table,
    flow tables and counts arrive equal to the inline host's."""
    inline, proc = (
        run_scenario(
            _fault_window_spec(), shards=2, shard_backend=backend,
            obs=Observability("trace"), verbose_trace=True,
        )
        for backend in ("inline", "process")
    )
    assert proc.perf["backend"] == "process"
    assert proc.digest == inline.digest
    assert proc.counters == inline.counters
    for a, b in zip(inline.obs_shards, proc.obs_shards):
        assert list(a["spans"].rows()) == list(b["spans"].rows())
        assert {k: v for k, v in a.items() if k != "spans"} == {
            k: v for k, v in b.items() if k != "spans"
        }
    assert sum(len(snap["flows_out"]) for snap in proc.obs_shards) > 0


def test_span_keep_knob_is_digest_transparent():
    res = run2(obs=Observability("trace", span_keep=2))
    assert res.digest == PINNED_SHARDED_DIGEST  # retention is obs-side only
    assert res.obs_snapshot["retention"]["limit"] == 2


@pytest.mark.parametrize("span_keep, limit", [(None, 32), (5, 5), (0, None)])
def test_span_keep_default_does_not_depend_on_the_shard_count(span_keep, limit):
    """One default, kept in repro.obs; 0 keeps every tree."""
    from repro.obs import DEFAULT_SPAN_KEEP

    assert DEFAULT_SPAN_KEEP == 32
    limits = {}
    for shards in (1, 2):
        obs = Observability("trace", span_keep=span_keep)
        res = run_scenario(
            "steady-city", n_ue=400, duration_s=0.5, seed=3, obs=obs,
            shards=shards, shard_backend="inline",
        )
        snap = res.obs_snapshot  # one fold over 1 or 2 shard snapshots
        assert snap["spans_started"] > 0
        limits[shards] = (snap.get("retention") or {}).get("limit")
    assert limits == {1: limit, 2: limit}


@pytest.mark.parametrize("mode", ["metrics", "trace"])
def test_ledger_obs_section_is_the_same_at_one_and_two_shards(mode):
    """One fold summarises 1 or k shard snapshots, so an unsharded run's
    ledger carries the same ``obs`` section a sharded one does."""
    sections = {}
    for shards in (1, 2):
        res = run_scenario(
            "steady-city", n_ue=400, duration_s=0.5, seed=3,
            obs=Observability(mode), shards=shards, shard_backend="inline",
        )
        sections[shards] = build_run_ledger(res, argv=["scale"])["obs"]
    assert sections[1].keys() == sections[2].keys() == {
        "mode", "spans_started", "spans_finished", "retention",
    }
    assert sections[1]["retention"].keys() == sections[2]["retention"].keys()
    assert sections[1]["mode"] == sections[2]["mode"] == mode
    assert sections[1]["spans_started"] > 0


def test_bounded_retention_caps_kept_roots():
    keep = 2
    res = run_scenario(
        _fault_window_spec(), shards=2, shard_backend="inline",
        obs=Observability("trace", span_keep=keep), verbose_trace=True,
    )
    ret = res.obs_snapshot["retention"]
    assert ret["limit"] == keep
    assert ret["roots_dropped"] > 0
    from repro.obs.tracer import SpanRetention

    ok = SpanRetention.OK_STATUSES
    for snap in res.obs_shards:
        trees = {}
        for span in snap["spans"]:
            trees.setdefault(span.root_id, []).append(span)
        anchors = {f["span"] for f in snap["flows_out"]}
        per_proc = {}
        for root_id, tree in trees.items():
            root = next(s for s in tree if s.span_id == root_id)
            # fault-touched, recovered, and migration-anchor trees are
            # exempt; the slowest-K cap binds the clean steady traffic
            if (
                not root.name.startswith("proc.")
                or root_id in anchors
                or root.attrs.get("recovered")
                or root.attrs.get("reattached")
                or any(s.status not in ok for s in tree)
            ):
                continue
            per_proc[root.name] = per_proc.get(root.name, 0) + 1
        assert per_proc
        assert max(per_proc.values()) <= keep


# ------------------------------------------------------------------ heartbeats


def test_heartbeat_stream_is_deterministic_and_epoch_aligned():
    def run_streamed():
        buf = io.StringIO()
        run2(
            obs=Observability("metrics"),
            stream=HeartbeatStream(buf, progress=None),
        )
        return buf.getvalue()

    a, b = _stable_rows(run_streamed()), _stable_rows(run_streamed())
    assert a == b, "heartbeat stream is not deterministic in stable fields"
    beats = [r for r in a if r["type"] == "heartbeat"]
    assert beats
    assert a[-1]["type"] == "summary"
    epochs = [r["epoch"] for r in beats]
    assert epochs == sorted(epochs)
    for row in beats:
        assert len(row["shards"]) == 2
        assert row["serves"] == sum(s["serves"] for s in row["shards"])
        assert 0.0 <= row["progress"] <= 1.0
        # merged labeled metrics rode the epoch replies
        counters = {c["name"] for c in row["metrics"]["counters"]}
        assert "hop_messages" in counters
        shards_seen = {
            c["labels"].get("shard")
            for c in row["metrics"]["counters"]
            if c["name"] == "hop_messages"
        }
        assert shards_seen <= {"0", "1"}
    summary = a[-1]
    assert summary["digest"] == PINNED_SHARDED_DIGEST
    assert summary["ok"] is True


def test_progress_line_mirrors_each_heartbeat():
    buf, prog = io.StringIO(), io.StringIO()
    run2(
        obs=Observability("metrics"),
        stream=HeartbeatStream(buf, progress=prog),
    )
    beats = [
        l for l in buf.getvalue().splitlines()
        if json.loads(l)["type"] == "heartbeat"
    ]
    lines = prog.getvalue().splitlines()
    assert len(lines) == len(beats)
    assert all(l.startswith("[obs-stream] t=") for l in lines)


def test_stream_beats_at_one_and_two_shards():
    """One cadence: an unsharded run streams progress-mark heartbeats
    and the summary row, as a sharded one does."""
    for shards in (1, 2):
        buf = io.StringIO()
        res = run_scenario(
            "steady-city", n_ue=400, duration_s=0.5, seed=3,
            stream=HeartbeatStream(buf, progress=None), verbose_trace=True,
            shards=shards, shard_backend="inline",
        )
        rows = [json.loads(l) for l in buf.getvalue().splitlines()]
        types = [r["type"] for r in rows]
        assert types[-1] == "summary" and types.count("summary") == 1
        beats = rows[:-1]
        assert beats and set(types[:-1]) == {"heartbeat"}, shards
        assert [r["draining"] for r in beats].count(True) == 1
        assert all(len(r["shards"]) == shards for r in beats)
        assert rows[-1]["digest"] == res.digest


# ------------------------------------------------------------------ ledger


def test_run_ledger_schema_and_roundtrip(tmp_path):
    res = run2(obs=Observability("trace"))
    path = str(tmp_path / "ledger.json")
    ledger = write_run_ledger(
        path, res, argv=["scale", "steady-city"],
        stream_path="hb.ndjson", trace_path="trace.json",
    )
    assert res.ledger_path == path
    with open(path) as fp:
        loaded = json.load(fp)
    assert loaded == ledger
    assert loaded["schema"] == LEDGER_SCHEMA
    assert loaded["config"] == {
        "scenario": "steady-city", "mode": "cohort", "n_ue": 400,
        "duration_s": 0.5, "seed": 3, "n_shards": 2,
    }
    assert len(loaded["config_fingerprint"]) == 64
    assert loaded["auditor"]["ok"] is True
    assert loaded["digest"] == PINNED_SHARDED_DIGEST
    assert loaded["artifacts"] == {
        "trace": "trace.json", "stream": "hb.ndjson",
    }
    assert loaded["obs"]["mode"] == "trace"
    assert len(loaded["shards"]) == 2
    for row in loaded["shards"]:
        assert row["health"]["violations"] == 0
    assert loaded["latency_ms"]  # per-(region, procedure) quantiles


def test_ledger_config_fingerprint_tracks_the_spec():
    a = build_run_ledger(run2())
    b = build_run_ledger(run2())
    assert a["config_fingerprint"] == b["config_fingerprint"]
    c = build_run_ledger(run2(seed=4))
    assert c["config_fingerprint"] != a["config_fingerprint"]


def test_result_json_embeds_ledger_path_and_shard_health(tmp_path):
    res = run2()
    path = str(tmp_path / "l.json")
    write_run_ledger(path, res)
    payload = json.loads(json.dumps(res.to_dict()))
    assert payload["ledger_path"] == path
    assert len(payload["shards"]) == 2
    for row in payload["shards"]:
        health = row["health"]
        assert health["events"] > 0
        assert health["shard"] == row["shard"]


# ------------------------------------------------------------------ CLI


def test_cli_sharded_trace_stream_ledger(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main([
        "scale", "steady-city", "--n-ue", "400", "--duration", "0.5",
        "--seed", "3", "--shards", "2", "--shard-backend", "inline",
        "--mode", "batched", "--obs", "trace",
        "--obs-stream", "hb.ndjson", "--ledger", "ledger.json",
        "--trace-out", "stitched.json", "--verbose-trace",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace: wrote stitched.json" in out
    assert "ledger: wrote ledger.json" in out
    with open(tmp_path / "stitched.json") as fp:
        validate_chrome_trace(json.load(fp))
    with open(tmp_path / "ledger.json") as fp:
        ledger = json.load(fp)
    assert ledger["digest"] == PINNED_SHARDED_DIGEST
    assert ledger["artifacts"]["trace"] == "stitched.json"
    rows = [
        json.loads(l) for l in (tmp_path / "hb.ndjson").read_text().splitlines()
    ]
    assert rows[-1]["type"] == "summary"
    assert any(r["type"] == "heartbeat" for r in rows)


def test_cli_rejects_stream_flags_with_seed_sweeps(capsys):
    from repro.cli import main

    rc = main([
        "scale", "steady-city", "--seeds", "1,2", "--obs-stream", "-",
    ])
    assert rc == 2
    assert "incompatible" in capsys.readouterr().err
