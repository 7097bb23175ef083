"""Heartbeat-subscriber plumbing: the feed the controller consumes.

Three layers, bottom up:

* unit: ``HeartbeatStream(fp=None)`` is a pure programmatic feed —
  subscribers see the identical dict the NDJSON sink writes, in
  emission order, and per-shard echo rows never carry the bulky
  ``metrics``/``load`` payloads;
* plumbing: attaching the stream to a run changes *nothing* about the
  simulation (heartbeat-on digest == heartbeat-off digest, drain
  cadence included), while the cadence itself is a deterministic
  golden — epoch sequences pinned per shard count, one beat at the
  drain-horizon crossing, ``drain_every`` pulses through long tails;
* wiring: the controller subscribes to the same feed and its
  ``heartbeats_seen`` matches what the stream emitted: the progress
  marks, at every shard count (one cadence, one loop).
"""

import io
import json

import pytest

from repro.obs.stream import HeartbeatStream
from repro.scale.engine import run_scenario
from repro.scale.scenarios import get_scenario

_SMALL = dict(n_ue=300, duration_s=1.0, seed=11)

#: pinned heartbeat cadence (epoch numbers) for the small orchestrated
#: upgrade run — the last beat is the drain-horizon crossing.
GOLDEN_EPOCHS = {
    2: [7, 9, 10, 12, 18, 24, 25, 35, 40, 42, 46, 52, 59, 61, 64, 67],
    4: [4, 8, 9, 12, 14, 16, 21, 24, 34, 40, 44, 46, 52, 59, 61, 64],
}


def _spec():
    return get_scenario("upgrade-under-commute-wave").with_overrides(**_SMALL)


def _collect(stream):
    rows = []
    stream.subscribe(rows.append)
    return rows


# ----------------------------------------------------------------- unit layer


class TestSubscriberOnlyStream:
    def _healths(self):
        return [
            {"shard": 0, "completed": 3, "wall_s": 0.5,
             "load": {"121110": {"q": 7}}, "metrics": None},
            {"shard": 1, "completed": 4, "wall_s": 0.6},
        ]

    def test_subscribers_see_every_row_in_order(self):
        stream = HeartbeatStream(fp=None)
        rows = _collect(stream)
        stream.heartbeat(3, 0.5, 2.0, self._healths())
        stream.emit({"type": "summary", "ok": True})
        assert [r["type"] for r in rows] == ["heartbeat", "summary"]
        assert stream.rows == 2

    def test_subscriber_row_is_the_ndjson_row(self):
        fp = io.StringIO()
        stream = HeartbeatStream(fp=fp)
        rows = _collect(stream)
        stream.heartbeat(3, 0.5, 2.0, self._healths())
        (line,) = fp.getvalue().splitlines()
        assert json.loads(line) == rows[0]

    def test_heartbeat_folds_and_strips_shard_payloads(self):
        stream = HeartbeatStream(fp=None)
        rows = _collect(stream)
        stream.heartbeat(3, 0.5, 2.0, self._healths())
        (row,) = rows
        assert row["epoch"] == 3
        assert row["completed"] == 7  # folded across shards
        assert row["progress"] == 0.25
        assert not row["draining"]
        # the per-shard echo stays scalar: the controller reads the raw
        # health rows at its tick, never this wire row
        assert len(row["shards"]) == 2
        for shard_row in row["shards"]:
            assert "load" not in shard_row
            assert "metrics" not in shard_row

    def test_draining_flag_past_horizon(self):
        stream = HeartbeatStream(fp=None)
        rows = _collect(stream)
        stream.heartbeat(9, 2.4, 2.0, self._healths())
        assert rows[0]["draining"]
        assert rows[0]["t"] == 2.0  # sim time clamps to the horizon
        assert rows[0]["progress"] == 1.0


# ------------------------------------------------------------- plumbing layer


class TestFeedDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_golden_epoch_cadence(self, shards):
        stream = HeartbeatStream(fp=None)
        rows = _collect(stream)
        res = run_scenario(_spec(), shards=shards, shard_backend="inline",
                           stream=stream)
        beats = [r for r in rows if r["type"] == "heartbeat"]
        assert [r["epoch"] for r in beats] == GOLDEN_EPOCHS[shards]
        # exactly one beat past the traffic horizon: the drain crossing
        assert [r["draining"] for r in beats].count(True) == 1
        assert beats[-1]["draining"] and beats[-1]["t"] == _SMALL["duration_s"]
        times = [r["t"] for r in beats]
        assert times == sorted(times)
        # the final summary row is the merged verdict
        assert rows[-1]["type"] == "summary"
        assert rows[-1]["digest"] == res.digest
        assert rows[-1]["ok"] and rows[-1]["violations"] == 0

    def test_feed_never_perturbs_the_run(self):
        off = run_scenario(_spec(), shards=2, shard_backend="inline")
        stream = HeartbeatStream(fp=None)
        on = run_scenario(_spec(), shards=2, shard_backend="inline",
                          stream=stream)
        assert on.digest == off.digest
        assert on.orch_log == off.orch_log
        assert stream.rows > 0

    def test_drain_cadence_pulses_long_tails(self):
        """``stream.drain_every`` governs the post-horizon pulse: with a
        tight setting the tail emits many draining beats — and the extra
        observation still changes nothing about the run."""
        stream = HeartbeatStream(fp=None)
        stream.drain_every = 2
        rows = _collect(stream)
        res = run_scenario(_spec(), shards=2, shard_backend="inline",
                           stream=stream)
        draining = [r for r in rows
                    if r["type"] == "heartbeat" and r["draining"]]
        assert len(draining) > 1  # horizon crossing + pulsed tail
        epochs = [r["epoch"] for r in draining]
        assert epochs == sorted(epochs)
        assert res.digest == run_scenario(
            _spec(), shards=2, shard_backend="inline"
        ).digest


# --------------------------------------------------------------- wiring layer


class TestControllerSubscription:
    def test_one_cadence_at_one_and_two_shards(self):
        """An unsharded run beats at the progress marks too: one beat
        per mark it crosses, then one at the drain-horizon crossing,
        whatever the shard count."""
        for shards in (1, 2):
            stream = HeartbeatStream(fp=None)
            rows = _collect(stream)
            res = run_scenario(_spec(), shards=shards,
                               shard_backend="inline", stream=stream)
            beats = [r for r in rows if r["type"] == "heartbeat"]
            assert res.orch_summary["heartbeats_seen"] == len(beats)
            assert res.orch_summary["ticks"] >= len(beats)
            marks = [int(r["progress"] * stream.marks) for r in beats]
            assert marks == sorted(set(marks)), shards
            assert [r["draining"] for r in beats].count(True) == 1
            assert rows[-1]["type"] == "summary"

    def test_sharded_controller_sees_the_progress_marks(self):
        stream = HeartbeatStream(fp=None)
        rows = _collect(stream)
        res = run_scenario(_spec(), shards=2, shard_backend="inline",
                           stream=stream)
        beats = [r for r in rows if r["type"] == "heartbeat"]
        assert res.orch_summary["heartbeats_seen"] == len(beats)
        # ticks outnumber marks: the controller decides every tick_s,
        # the wire row only goes out at progress marks
        assert res.orch_summary["ticks"] >= len(beats)

    def test_without_stream_controller_still_ticks(self):
        res = run_scenario(_spec())
        assert res.orch_summary["ticks"] > 0
        assert res.orch_summary["heartbeats_seen"] == 0
