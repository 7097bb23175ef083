"""Tests for the discrete-event simulation kernel."""

import sys

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Process, Simulator
from repro.sim import core as sim_core


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_preserves_insertion_order(self, sim):
        seen = []
        for tag in "abc":
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_rejected_at_every_entry_point(self, sim):
        # NaN passes both ``== 0.0`` and ``< 0``; as a heap key it
        # compares false against everything and corrupts the order.
        nan = float("nan")
        with pytest.raises(ValueError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.timeout(nan)
        assert not sim.step() and sim._seq == 0  # nothing was queued

    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.5)
        assert sim.now == 2.5

    def test_run_until_executes_events_at_boundary(self, sim):
        seen = []
        sim.schedule(2.5, seen.append, "x")
        sim.run(until=2.5)
        assert seen == ["x"]

    def test_run_until_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_now_is_noop(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.run(until=2.0) == 2.0  # boundary run: no error, no advance
        assert sim.now == 2.0
        assert len(sim._heap) == 1  # the t=5 event is untouched

    def test_run_until_now_executes_events_due_now(self, sim):
        seen = []
        sim.run(until=3.0)
        sim.schedule(0.0, seen.append, "due-now")
        sim.run(until=3.0)
        assert seen == ["due-now"]
        assert sim.now == 3.0

    def test_run_drains_everything_without_until(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_events_scheduled_during_run_execute(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, seen.append, "nested"))
        sim.run()
        assert seen == ["nested"]
        assert sim.now == 2.0


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.fired and ev.ok
        assert ev.value == 42

    def test_double_fire_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        with pytest.raises(RuntimeError):
            ev.fail(RuntimeError("boom"))

    def test_value_before_fire_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_fail_raises_on_value_access(self, sim):
        ev = sim.event()
        ev.fail(KeyError("k"))
        assert ev.fired and not ev.ok
        with pytest.raises(KeyError):
            _ = ev.value

    def test_callback_on_already_fired_event_runs_async(self, sim):
        ev = sim.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == []  # not synchronous
        sim.run()
        assert seen == ["v"]

    def test_callback_on_already_failed_event_receives_exception(self, sim):
        # Audit: a late callback on a fired-*failed* event must still be
        # delivered with the event (and its stored exception) as the
        # argument, exactly like a waiter registered before the fail —
        # otherwise the exception is silently dropped.
        ev = sim.event("doomed")
        boom = KeyError("boom")
        ev.fail(boom)
        seen = []
        ev.add_callback(lambda e: seen.append((e.ok, e._exc)))
        assert seen == []  # not synchronous, same as the success path
        sim.run()
        assert seen == [(False, boom)]

    def test_late_callbacks_on_failed_event_interleave_in_seq_order(self, sim):
        # Fired-failed + late-callback interleaving: callbacks added
        # before the fail, after the fail, and from *inside* a delivered
        # callback all run, in registration (seq) order.
        ev = sim.event()
        order = []
        ev.add_callback(lambda e: order.append("early"))
        ev.fail(RuntimeError("boom"))
        ev.add_callback(lambda e: order.append("late"))

        def nested(e):
            order.append("outer")
            e.add_callback(lambda e2: order.append("inner"))

        ev.add_callback(nested)
        sim.run()
        assert order == ["early", "late", "outer", "inner"]

    def test_process_joining_already_failed_event_gets_exception(self, sim):
        ev = sim.event()
        ev.fail(KeyError("gone"))
        sim.run()  # the fail's dispatch (no waiters) fully drains
        caught = []

        def proc():
            try:
                yield ev
            except KeyError as err:
                caught.append(err)
            return "handled"

        result = sim.run_process(proc())
        assert result == "handled"
        assert len(caught) == 1

    def test_timeout_fires_at_right_time(self, sim):
        ev = sim.timeout(3.5, value="done")
        sim.run()
        assert sim.now == 3.5
        assert ev.value == "done"

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_cancelled_timeout_does_not_fire(self, sim):
        ev = sim.timeout(1.0, value="late")
        ev.cancel()
        sim.run()
        assert not ev.fired
        assert ev.cancelled

    def test_cancelled_timeout_leaves_event_deliverable(self, sim):
        # Regression: _fire used to succeed() a cancelled timeout, so a
        # producer reusing the abandoned event handle afterwards blew up
        # with "event already fired".
        ev = sim.timeout(0.5)
        ev.cancel()
        sim.run()
        ev.succeed("producer-delivery")  # must not raise
        assert ev.value == "producer-delivery"

    def test_timeout_fired_then_cancelled_keeps_value(self, sim):
        ev = sim.timeout(0.5, value="v")
        sim.run()
        ev.cancel()  # cancel after firing is a no-op
        assert ev.ok and ev.value == "v"


class TestCombinators:
    def test_all_of_collects_values_in_order(self, sim):
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        combined = sim.all_of(events)
        sim.run()
        assert combined.value == [3.0, 1.0, 2.0]

    def test_all_of_empty_fires_immediately(self, sim):
        combined = sim.all_of([])
        sim.run()
        assert combined.value == []

    def test_all_of_fails_if_child_fails(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        combined = sim.all_of([good, bad])
        bad.fail(RuntimeError("child"))
        sim.run()
        assert combined.fired and not combined.ok

    def test_any_of_returns_first(self, sim):
        events = [sim.timeout(3.0, value="slow"), sim.timeout(1.0, value="fast")]
        combined = sim.any_of(events)
        sim.run()
        assert combined.value == (1, "fast")

    def test_any_of_requires_children(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_all_of_failure_cancels_pending_children(self, sim):
        # Regression: a failed AllOf abandoned its still-pending
        # children without cancelling them, so producers (queues,
        # stores) kept delivering into events nobody would consume.
        slow = sim.timeout(10.0)
        pending = sim.event("pending-child")
        bad = sim.event("bad-child")
        combined = sim.all_of([slow, pending, bad])
        bad.fail(RuntimeError("boom"))
        sim.run(until=1.0)
        assert combined.fired and not combined.ok
        assert pending.cancelled and not pending.fired
        assert slow.cancelled and not slow.fired
        sim.run()  # the slow timeout's timer pops: must stay unfired
        assert not slow.fired

    def test_all_of_failure_does_not_cancel_fired_children(self, sim):
        done = sim.event()
        done.succeed(1)
        bad = sim.event()
        combined = sim.all_of([done, bad])
        bad.fail(RuntimeError("boom"))
        sim.run()
        assert combined.fired and not combined.ok
        assert done.ok and not done.cancelled

    def test_any_of_failing_child_fails_composite(self, sim):
        slow = sim.timeout(5.0, value="slow")
        bad = sim.event()
        combined = sim.any_of([slow, bad])
        bad.fail(KeyError("first"))
        sim.run(until=1.0)
        assert combined.fired and not combined.ok
        with pytest.raises(KeyError):
            _ = combined.value

    def test_any_of_cancels_losing_children(self, sim):
        # Regression: AnyOf left its losing children pending after the
        # race was decided (unlike AllOf on failure), so producers
        # (queues, stores) could deliver into abandoned events and die
        # with "event already fired".
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(10.0, value="slow")
        pending = sim.event("producer-held")
        combined = sim.any_of([fast, slow, pending])
        sim.run(until=2.0)
        assert combined.value == (0, "fast")
        assert slow.cancelled and not slow.fired
        assert pending.cancelled and not pending.fired
        # A producer following the cancellation protocol now skips the
        # abandoned event instead of delivering into it.
        if not pending.cancelled:
            pending.succeed("too late")
        sim.run()  # the slow timer pops: must stay unfired
        assert not slow.fired

    def test_any_of_failure_cancels_losing_children(self, sim):
        slow = sim.timeout(10.0)
        pending = sim.event()
        bad = sim.event()
        combined = sim.any_of([slow, pending, bad])
        bad.fail(RuntimeError("boom"))
        sim.run(until=1.0)
        assert combined.fired and not combined.ok
        assert slow.cancelled and pending.cancelled
        sim.run()
        assert not slow.fired

    def test_any_of_does_not_cancel_already_fired_children(self, sim):
        # Two children fire in the same instant: the second is already
        # fired when the first's callback wins the race, and a fired
        # event must keep its value for any other waiter holding it.
        first = sim.event()
        second = sim.event()
        combined = sim.any_of([first, second])
        first.succeed("a")
        second.succeed("b")
        sim.run()
        assert combined.value == (0, "a")
        assert second.ok and not second.cancelled
        assert second.value == "b"


class TestProcess:
    def test_process_advances_through_timeouts(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]
        assert p.value == "done"

    def test_process_receives_event_values(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="payload")
            return got

        assert sim.run_process(proc()) == "payload"

    def test_process_joining_another(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 7

        def parent():
            result = yield sim.process(child())
            return result * 2

        assert sim.run_process(parent()) == 14

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except ValueError:
                return "caught"
            return "missed"

        p = sim.process(proc())
        ev.fail(ValueError("x"))
        sim.run()
        assert p.value == "caught"

    def test_uncaught_exception_fails_the_process(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        p = sim.process(proc())
        sim.run()
        assert p.fired and not p.ok
        with pytest.raises(KeyError):
            _ = p.value

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42

        p = sim.process(proc())
        sim.run()
        assert p.fired and not p.ok

    def test_interrupt_raises_at_wait_point(self, sim):
        state = {}

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                state["cause"] = intr.cause
                state["resumed_at"] = sim.now
                return "interrupted"

        p = sim.process(proc())
        sim.schedule(1.0, p.interrupt, "node down")
        sim.run()
        assert p.value == "interrupted"
        assert state["cause"] == "node down"
        assert state["resumed_at"] == pytest.approx(1.0)

    def test_interrupting_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "ok"

        p = sim.process(proc())
        sim.run()
        p.interrupt("late")  # must not raise
        assert p.value == "ok"

    def test_interrupt_while_waiting_on_already_fired_event(self, sim):
        # The event fires and the interrupt lands in the same scheduler
        # step, with the interrupt delivered first: the process must see
        # the Interrupt, and the event's own (now stale) wakeup must be
        # ignored rather than resuming the process twice.
        ev = sim.event("contested")
        log = []

        def proc():
            try:
                got = yield ev
                log.append(("value", got))
            except Interrupt as intr:
                log.append(("interrupt", intr.cause))
                yield sim.timeout(1.0)
                log.append(("after", sim.now))
            return "done"

        p = sim.process(proc())

        def race():
            p.interrupt("failure")  # queued before the event's dispatch
            ev.succeed("too-late")

        sim.schedule(1.0, race)
        sim.run()
        assert log == [("interrupt", "failure"), ("after", 2.0)]
        assert p.value == "done"

    def test_unhandled_interrupt_fails_process(self, sim):
        def proc():
            yield sim.timeout(100.0)

        p = sim.process(proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert p.fired and not p.ok

    def test_run_process_requires_completion(self, sim):
        def proc():
            yield sim.timeout(10.0)

        with pytest.raises(RuntimeError):
            sim.run_process(proc(), until=1.0)

    def test_alive_tracks_completion(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.alive
        sim.run()
        assert not p.alive

    def test_many_concurrent_processes(self, sim):
        done = []

        def proc(i):
            yield sim.timeout(i * 0.01)
            done.append(i)

        for i in range(100):
            sim.process(proc(i))
        sim.run()
        assert done == sorted(done)
        assert len(done) == 100


class TestSleep:
    """A yielded ``float`` is a pure delay."""

    def test_sleeps_that_long_and_resumes_with_none(self, sim):
        seen = []

        def proc():
            got = yield 1.5
            seen.append((sim.now, got))
            got = yield 0.25
            seen.append((sim.now, got))

        sim.run_process(proc())
        assert seen == [(1.5, None), (1.75, None)]

    def test_zero_delay_queues_like_schedule_zero(self, sim):
        seen = []

        def proc():
            sim.schedule(0.0, seen.append, "queued-before")
            yield 0.0
            seen.append("resumed")

        sim.process(proc())
        sim.schedule(0.0, seen.append, "outside")
        sim.run()
        assert seen == ["outside", "queued-before", "resumed"]
        assert sim.now == 0.0

    def test_interrupt_mid_sleep_leaves_a_stale_entry_that_is_ignored(self, sim):
        seen = []

        def proc():
            try:
                yield 1.0
            except Interrupt as intr:
                seen.append((sim.now, intr.cause))
            yield 2.0  # the stale t=1.0 entry must not end this early
            seen.append((sim.now, "slept"))

        p = sim.process(proc())
        sim.schedule(0.25, p.interrupt, "poke")
        sim.run(until=1.0)  # the stale entry has been popped by now
        assert seen == [(0.25, "poke")] and p.alive
        sim.run()
        assert seen == [(0.25, "poke"), (2.25, "slept")]

    def test_interrupt_mid_sleep_can_end_the_process(self, sim):
        def proc():
            yield 1.0

        p = sim.process(proc())
        sim.schedule(0.5, p.interrupt)
        sim.run()
        assert p.fired and not p.ok
        assert sim.now == 1.0  # the stale entry still advanced the clock

    @pytest.mark.parametrize(
        "bad, error",
        [
            (-1.0, ValueError),
            (float("nan"), ValueError),
            (1, TypeError),  # int: say 1.0
            (True, TypeError),
            (None, TypeError),
        ],
    )
    def test_rejected_yields_name_the_accepted_types(self, sim, bad, error):
        closed = []

        def proc():
            try:
                yield bad
            finally:
                closed.append(True)

        p = sim.process(proc())
        sim.run()
        assert p.fired and not p.ok and closed == [True]
        with pytest.raises(error, match="an Event or a non-negative float"):
            _ = p.value
        assert sim._seq == 1  # the start; nothing was queued for the bad yield


class TestWakeCost:
    """What one wait costs the kernel.  Counts repeat exactly."""

    @staticmethod
    def _cost_per_wait(sim, wait):
        def body(n):
            for _ in range(n):
                yield wait()

        def cost(n):
            before = sim._seq
            sim.process(body(n))
            sim.run()
            return sim._seq - before

        return (cost(20) - cost(10)) / 10

    def test_timeout_wait_is_one_heap_entry_and_one_wakeup(self, sim):
        # PR <= 20: 2 ``_seq`` — the wake-up was re-queued, not inline.
        assert self._cost_per_wait(sim, lambda: sim.timeout(1.0)) == 1

    def test_float_wait_is_one_heap_entry_and_no_event(self, sim, monkeypatch):
        assert self._cost_per_wait(sim, lambda: 1.0) == 1
        made = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            made.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)

        def body():
            for _ in range(5):
                yield 0.5

        sim.run_process(body())
        assert made == ["Process"]

    def test_resume_is_one_process_frame(self, sim):
        # PR <= 12 took two per resume (_on_event -> _step).
        def body():
            yield sim.timeout(1.0)
            yield 1.0

        sim.process(body())
        frames = []

        def profiler(frame, event, _arg):
            code = frame.f_code
            if (
                event == "call"
                and code.co_filename == sim_core.__file__
                and code.co_name in vars(Process)
                and isinstance(frame.f_locals.get("self"), Process)
            ):
                frames.append(code.co_name)

        sys.setprofile(profiler)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
        assert frames == ["_wake"] * 3  # start + a Timeout + a float


class TestScheduleAt:
    """Absolute-time scheduling used by pre-compiled timelines."""

    def test_runs_in_time_order(self, sim):
        seen = []
        sim.schedule_at(2.0, seen.append, "b")
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_at_now_lands_on_immediate_queue(self, sim):
        # time == now must match schedule(0.0, ...)'s ordering exactly:
        # interleaved zero-delay and at-now callbacks created inside a
        # callback run in insertion order, before the clock advances.
        seen = []

        def fire():
            sim.schedule(0.0, seen.append, "zero-1")
            sim.schedule_at(sim.now, seen.append, "at-now")
            sim.schedule(0.0, seen.append, "zero-2")
            sim.schedule(0.5, seen.append, "later")

        sim.schedule(1.0, fire)
        sim.run()
        assert seen == ["zero-1", "at-now", "zero-2", "later"]

    def test_into_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_roundtrips_precomputed_floats_exactly(self, sim):
        # The reason schedule_at exists: now + (t - now) != t in floats.
        # A pre-computed timeline instant must fire at exactly t.
        t = 0.1 + 0.2 + 0.3  # 0.6000000000000001
        fired = []
        sim.schedule(0.1, lambda: sim.schedule_at(t, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [t]

    def test_same_time_preserves_insertion_order(self, sim):
        seen = []
        for tag in "abc":
            sim.schedule_at(1.0, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]
