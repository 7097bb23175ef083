"""Perfetto/Chrome trace export: schema validity and round trips."""

import json

import pytest

from repro.core.config import ControlPlaneConfig
from repro.experiments.harness import RunSpec, run_pct_point
from repro.obs import Observability, Tracer
from repro.obs.export import (
    chrome_trace_events,
    timeline_summary,
    validate_chrome_trace,
    write_chrome_trace,
)


def _traced_run():
    obs = Observability("trace", span_keep=0)
    spec = RunSpec(
        procedure="service_request",
        procedures_target=120,
        min_duration_s=0.02,
        max_duration_s=0.05,
    )
    run_pct_point(ControlPlaneConfig.neutrino(), 80e3, spec, obs=obs)
    return obs


class TestChromeTrace:
    def test_real_run_exports_valid_trace(self):
        obs = _traced_run()
        data = chrome_trace_events(obs.tracer.table())
        count = validate_chrome_trace(data)
        assert count > 100
        # one "X" slice per retained span, plus metadata events
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(obs.tracer.spans)

    def test_every_root_gets_its_own_named_track(self):
        obs = _traced_run()
        data = chrome_trace_events(obs.tracer.table())
        thread_names = [
            e for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        roots = obs.tracer.roots()
        assert len(thread_names) == len(roots)
        tids = {e["tid"] for e in thread_names}
        assert len(tids) == len(roots)  # distinct track per procedure

    def test_span_ids_are_searchable_in_args(self):
        tracer = Tracer(lambda: 1.0)
        root = tracer.begin("proc.attach", ue="ue-1")
        child = tracer.begin("hop.x", parent=root)
        tracer.finish(child)
        tracer.finish(root)
        data = chrome_trace_events(tracer.table())
        slices = {e["args"]["span_id"]: e for e in data["traceEvents"] if e["ph"] == "X"}
        assert slices[child.span_id]["args"]["parent_id"] == root.span_id
        assert slices[child.span_id]["args"]["trace_id"] == root.root_id

    def test_unfinished_span_exports_zero_duration(self):
        tracer = Tracer(lambda: 2.0)
        tracer.begin("proc.open")
        data = chrome_trace_events(tracer.table())
        slice_ev = [e for e in data["traceEvents"] if e["ph"] == "X"][0]
        assert slice_ev["dur"] == 0.0
        assert slice_ev["args"]["unfinished"] is True
        validate_chrome_trace(data)

    def test_write_round_trip(self, tmp_path):
        obs = _traced_run()
        path = tmp_path / "out.trace.json"
        write_chrome_trace(str(path), obs.tracer.table())
        with open(path) as fp:
            reloaded = json.load(fp)
        assert validate_chrome_trace(reloaded) == len(reloaded["traceEvents"])

    def test_validator_rejects_bad_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                     "ts": 0.0, "dur": -1.0}
                ]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": "one", "tid": 1,
                     "ts": 0.0, "dur": 1.0}
                ]}
            )


class TestTimeline:
    def test_timeline_lists_roots_with_children(self):
        obs = _traced_run()
        text = timeline_summary(obs.tracer.table(), limit=2)
        assert "proc.service_request" in text
        assert "cpf.handle" in text
        assert text.count("-- trace") == 2

    def test_empty_tracer_has_placeholder(self):
        empty = Tracer(lambda: 0.0).table()
        assert "(no spans recorded)" in timeline_summary(empty)
