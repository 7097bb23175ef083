"""Unit tests for the deterministic span tracer."""

import pytest

from repro.obs import Tracer
from repro.sim import Simulator
from repro.sim.node import NodeFailed


class TestSpanBasics:
    def test_root_and_child_linking(self):
        tracer = Tracer(lambda: 0.0)
        root = tracer.begin("proc.attach", proc="attach")
        child = tracer.begin("hop.ue_bs", parent=root)
        assert root.is_root and root.root_id == root.span_id
        assert child.parent_id == root.span_id
        assert child.root_id == root.root_id
        assert tracer.children_of(root) == [child]
        assert tracer.roots() == [root]

    def test_phase_defaults_to_first_dotted_component(self):
        tracer = Tracer(lambda: 0.0)
        assert tracer.begin("cta.ingest").phase == "cta"
        assert tracer.begin("hop.bs_cta", phase="transit").phase == "transit"

    def test_ids_are_sequential_from_one(self):
        tracer = Tracer(lambda: 0.0)
        spans = [tracer.begin("s") for _ in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_finish_is_idempotent(self):
        tracer = Tracer(lambda: 0.0)
        span = tracer.begin("s")
        tracer.finish(span, status="ok")
        tracer.finish(span, status="error")  # late callback: no-op
        assert span.status == "ok"
        assert tracer.finished == 1

    def test_retain_false_keeps_counters_only(self):
        tracer = Tracer(lambda: 0.0, retain=False)
        tracer.finish(tracer.begin("s"))
        assert tracer.spans == []
        assert (tracer.started, tracer.finished) == (1, 1)


class TestSimIntegration:
    def test_context_manager_times_the_yield(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        seen = {}

        def proc():
            with tracer.span("work") as span:
                yield sim.timeout(0.5)
            seen["span"] = span

        sim.process(proc())
        sim.run()
        span = seen["span"]
        assert span.start == 0.0
        assert span.end == 0.5
        assert span.status == "ok"

    def test_exception_at_yield_marks_error_and_propagates(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        seen = {}

        def proc():
            root = tracer.begin("proc.x")
            try:
                with tracer.span("leg", parent=root) as span:
                    seen["span"] = span
                    ev = sim.event("doomed")
                    sim.schedule(0.25, lambda: ev.fail(NodeFailed("n")))
                    yield ev
            except NodeFailed:
                seen["caught"] = True
            tracer.finish(root, status="failed")

        sim.process(proc())
        sim.run()
        assert seen["caught"]
        assert seen["span"].status == "error"
        assert seen["span"].end == 0.25

    def test_end_on_finishes_at_event_fire_time(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        span = tracer.begin("hop")
        tracer.end_on(span, sim.timeout(0.125))
        sim.run()
        assert span.end == 0.125
        assert span.status == "ok"

    def test_parents_do_not_cross_contaminate_interleaved_processes(self):
        """Two sim processes interleave at every yield; explicit parent
        threading must keep each child under its own process's root."""
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        roots = {}

        def proc(name, dt):
            root = tracer.begin("proc." + name, proc=name)
            roots[name] = root
            for _ in range(3):
                with tracer.span("leg", parent=root):
                    yield sim.timeout(dt)
            tracer.finish(root)

        sim.process(proc("a", 0.1))
        sim.process(proc("b", 0.07))
        sim.run()
        for name, root in roots.items():
            children = tracer.children_of(root)
            assert len(children) == 3
            assert all(c.root_id == root.root_id for c in children)


class TestPhaseFolding:
    def test_children_fold_into_open_root(self):
        folds = []
        now = [0.0]
        tracer = Tracer(lambda: now[0], on_root_finish=lambda r, p: folds.append((r, p)))
        root = tracer.begin("proc.sr", proc="sr")
        child = tracer.begin("hop.x", parent=root, phase="transit")
        now[0] = 0.2
        tracer.finish(child)
        now[0] = 0.5
        tracer.finish(root)
        (got_root, phases), = folds
        assert got_root is root
        assert phases == {"transit": pytest.approx(0.2)}

    def test_phases_override_splits_one_span(self):
        folds = []
        now = [0.0]
        tracer = Tracer(lambda: now[0], on_root_finish=lambda r, p: folds.append(p))
        root = tracer.begin("proc.sr")
        handle = tracer.begin("cpf.handle", parent=root, phase="cpf")
        now[0] = 0.3
        tracer.finish(handle, phases=(("cpf_wait", 0.1), ("cpf_serve", 0.2)))
        tracer.finish(root)
        assert folds[0] == {
            "cpf_wait": pytest.approx(0.1), "cpf_serve": pytest.approx(0.2)
        }
        assert "cpf" not in folds[0]

    def test_finish_after_root_close_goes_offpath(self):
        offpath = []
        now = [0.0]
        tracer = Tracer(lambda: now[0], on_offpath_finish=offpath.append)
        root = tracer.begin("proc.sr")
        ship = tracer.begin("checkpoint.ship", parent=root, phase="checkpoint")
        now[0] = 0.1
        tracer.finish(root)  # PCT clock stops
        now[0] = 0.4
        tracer.finish(ship, status="acked")
        assert offpath == [ship]
        assert ship.status == "acked"


class TestRecordedClosed:
    """``record``: one id, one row, the bookkeeping of begin + finish."""

    def test_record_equals_begin_plus_finish(self):
        folds = []
        now = [0.0]

        def fresh():
            return Tracer(lambda: now[0], on_root_finish=lambda r, p: folds.append(p))

        bracketed, recorded = fresh(), fresh()
        now[0] = 0.0
        root_b = bracketed.begin("proc.sr", proc="sr")
        child_b = bracketed.begin("hop.x", parent=root_b, phase="transit", nbytes=7)
        now[0] = 0.25
        bracketed.finish(child_b)
        now[0] = 1.0
        bracketed.finish(root_b)

        now[0] = 0.0
        root_r = recorded.begin("proc.sr", proc="sr")
        child_r = recorded.record(
            "hop.x", root_r, "transit", 0.0, 0.25, "ok", {"nbytes": 7}
        )
        now[0] = 1.0
        recorded.finish(root_r)

        assert child_r.to_row() == child_b.to_row()
        assert folds[0] == folds[1] == {"transit": 0.25}
        assert (recorded.started, recorded.finished) == (2, 2)
        assert recorded.spans == [root_r, child_r]

    def test_record_under_a_closed_root_goes_offpath(self):
        offpath = []
        tracer = Tracer(lambda: 0.0, on_offpath_finish=offpath.append)
        root = tracer.begin("proc.sr")
        tracer.finish(root)
        late = tracer.record("hop.x", root, "transit", 0.0, 0.5)
        assert offpath == [late]

    def test_a_span_still_in_flight_at_root_close_is_off_path(self):
        """The fold rule on the smallest case: recorded at send, folded late."""
        folds, offpath = [], []
        now = [0.0]
        tracer = Tracer(
            lambda: now[0],
            on_root_finish=lambda root, phases: folds.append(phases),
            on_offpath_finish=offpath.append,
        )
        root = tracer.begin("proc.x")
        early = tracer.record("hop.a", root, "transit", 0.0, 0.25)
        late = tracer.record("hop.b", root, "transit", 0.0, 0.75)
        now[0] = 0.5
        tracer.finish(root)
        assert folds == [{"transit": 0.25}]
        assert offpath == [late] and early.end == 0.25
        assert (tracer.started, tracer.finished) == (3, 3)

    def test_recorded_root_is_decided_by_retention(self):
        from repro.obs.tracer import SpanRetention

        tracer = Tracer(lambda: 0.0, retention=SpanRetention(1))
        root = tracer.record("shard.install_migrated", None, "migrate", 0.0, 0.0)
        assert root.is_root and tracer.spans == [root]
        assert tracer.retention.roots_kept == 1

    def test_phases_override_on_a_recorded_span(self):
        folds = []
        tracer = Tracer(lambda: 1.0, on_root_finish=lambda r, p: folds.append(p))
        root = tracer.begin("proc.sr")
        tracer.record(
            "cpf.handle", root, "cpf", 0.0, 0.5,
            phases=(("cpf_wait", 0.125), ("cpf_serve", 0.375)),
        )
        tracer.finish(root)
        assert folds == [{"cpf_wait": 0.125, "cpf_serve": 0.375}]

    def test_fold_runs_in_end_order_not_written_order(self):
        """A long hop written first, a short span finished while it flies:
        the root's phase dict is keyed in the order the spans *ended*."""
        folds = []
        now = [0.0]
        tracer = Tracer(lambda: now[0], on_root_finish=lambda r, p: folds.append(p))
        root = tracer.begin("proc.sr")
        tracer.record("hop.long", root, "transit", 0.0, 0.5)
        short = tracer.begin("cpf.encode", parent=root, phase="cpf_serve")
        now[0] = 0.125
        tracer.finish(short)
        now[0] = 1.0
        tracer.finish(root)
        assert list(folds[0].items()) == [("cpf_serve", 0.125), ("transit", 0.5)]

    def test_finish_at_closes_a_begun_span_at_a_known_instant(self):
        offpath = []
        now = [0.0]
        tracer = Tracer(lambda: now[0], on_offpath_finish=offpath.append)
        root = tracer.begin("proc.sr")
        ship = tracer.begin("checkpoint.ship", parent=root, phase="checkpoint")
        tracer.finish(root)
        tracer.finish_at(ship, 0.75, "acked")  # the clock never moved
        assert (ship.start, ship.end, ship.status) == (0.0, 0.75, "acked")
        assert offpath == [ship]
