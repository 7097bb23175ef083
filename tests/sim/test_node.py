"""Tests for the queued-server node model and failure injection."""

import pytest

from repro.sim import NodeFailed, Server, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestServer:
    def test_single_job_service_time(self, sim):
        server = Server(sim, cores=1)
        done = server.submit(0.5, value="job")
        sim.run()
        assert done.value == "job"
        assert sim.now == 0.5

    def test_fifo_queueing_single_core(self, sim):
        server = Server(sim, cores=1)
        first = server.submit(1.0, value="first")
        second = server.submit(1.0, value="second")
        completion = {}
        first.add_callback(lambda ev: completion.__setitem__("first", sim.now))
        second.add_callback(lambda ev: completion.__setitem__("second", sim.now))
        sim.run()
        assert completion["first"] == pytest.approx(1.0)
        assert completion["second"] == pytest.approx(2.0)

    def test_two_cores_run_in_parallel(self, sim):
        server = Server(sim, cores=2)
        server.submit(1.0)
        server.submit(1.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_invalid_cores_rejected(self, sim):
        with pytest.raises(ValueError):
            Server(sim, cores=0)

    def test_negative_service_rejected(self, sim):
        server = Server(sim)
        with pytest.raises(ValueError):
            server.submit(-1.0)

    def test_callback_invoked_with_value(self, sim):
        server = Server(sim)
        got = []
        server.submit(0.1, value=99, callback=got.append)
        sim.run()
        assert got == [99]

    def test_utilization_counts_busy_time(self, sim):
        server = Server(sim, cores=1)
        server.submit(1.0)
        sim.run(until=2.0)
        assert server.utilization() == pytest.approx(0.5)

    def test_jobs_done_counter(self, sim):
        server = Server(sim)
        for _ in range(5):
            server.submit(0.1)
        sim.run()
        assert server.jobs_done == 5

    def test_queue_depth_probe_sees_peak(self, sim):
        server = Server(sim, cores=1)
        for _ in range(4):
            server.submit(1.0)
        sim.run()
        assert server.queue_depth.max_value == 4


class TestServerCost:
    def test_awaited_job_costs_two_kernel_entries(self, sim):
        """One ``_seq`` per process start and per completion booking,
        whose ``_finish`` resumes the waiter inline.  PR 13-20 took 3
        (the wake-up was re-queued); the worker-process server of
        PR <= 12 took 5 (plus a ``Store.get`` wake-up and a
        ``Timeout``).  Counts repeat exactly, so this holds the saving
        without a clock.
        """
        server = Server(sim, cores=1)

        def waiter():
            yield server.submit(0.5)

        def cost(n):
            before = sim._seq
            for _ in range(n):
                sim.process(waiter())
            sim.run()
            return sim._seq - before

        assert cost(10) == 10 * 2
        assert cost(20) == 20 * 2


class TestServerFailure:
    def test_submit_to_failed_server_fails_event(self, sim):
        server = Server(sim, name="cpf-x")
        server.fail()
        done = server.submit(0.1)
        assert done.fired and not done.ok
        with pytest.raises(NodeFailed):
            _ = done.value

    def test_failure_drops_queued_jobs(self, sim):
        server = Server(sim, cores=1)
        in_service = server.submit(1.0)
        queued = server.submit(1.0)
        sim.schedule(0.5, server.fail)
        sim.run()
        assert not in_service.ok
        assert not queued.ok
        assert server.jobs_dropped == 2

    def test_failure_is_idempotent(self, sim):
        server = Server(sim)
        server.fail()
        server.fail()  # must not raise
        assert not server.up

    def test_recover_restores_service(self, sim):
        server = Server(sim)
        server.fail()
        server.recover()
        done = server.submit(0.2, value="back")
        sim.run()
        assert done.value == "back"

    def test_recover_when_up_is_noop(self, sim):
        server = Server(sim)
        server.recover()
        assert server.up

    def test_jobs_completed_before_failure_stay_ok(self, sim):
        server = Server(sim, cores=1)
        early = server.submit(0.1, value="early")
        sim.schedule(0.5, server.fail)
        sim.run()
        assert early.value == "early"

    def test_exception_carries_node_name(self, sim):
        server = Server(sim, name="cpf-7")
        server.fail()
        done = server.submit(0.1)
        try:
            _ = done.value
        except NodeFailed as exc:
            assert exc.node_name == "cpf-7"
        else:
            pytest.fail("expected NodeFailed")


class TestServerReserve:
    """Express-reservation path used by the batched cohort lane."""

    def test_reserve_idle_returns_completion_time(self, sim):
        server = Server(sim)
        end = server.reserve(0.25)
        assert end == 0.25
        assert server.jobs_done == 1
        assert server.busy_time == 0.25

    def test_reserve_chains_behind_reservation(self, sim):
        server = Server(sim)
        first = server.reserve(0.25)
        second = server.reserve(0.1)
        assert second == first + 0.1

    def test_stale_reservation_expires(self, sim):
        server = Server(sim)
        server.reserve(0.25)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert server.reserve(0.1) == sim.now + 0.1

    def test_reserve_at_future_instant(self, sim):
        # Booking "as of" a future quiet instant must equal the booking a
        # caller would make after the clock actually reached it.
        server = Server(sim)
        end = server.reserve(0.2, at=1.5)
        assert end == 1.5 + 0.2
        # a later at= booking chains behind it, not behind `at`
        assert server.reserve(0.1, at=1.6) == end + 0.1

    def test_submit_behind_reservation_routes_analytically(self, sim):
        # A queued job arriving while an express chain holds the server
        # completes exactly when a worker would have started it: at the
        # end of the chain.
        server = Server(sim, cores=1)
        chain_end = server.reserve(0.5)
        done = server.submit(0.25, value="queued")
        sim.run()
        assert done.value == "queued"
        assert sim.now == chain_end + 0.25
        assert server.jobs_done == 2

    def test_submit_behind_reservation_is_fifo(self, sim):
        server = Server(sim, cores=1)
        server.reserve(0.5)
        order = []
        server.submit(0.25, value="a", callback=lambda v: order.append((sim.now, v)))
        server.submit(0.125, value="b", callback=lambda v: order.append((sim.now, v)))
        sim.run()
        assert order == [(0.75, "a"), (0.875, "b")]

    def test_fail_drops_analytic_jobs_and_reservation(self, sim):
        server = Server(sim, cores=1)
        server.reserve(0.5)
        done = server.submit(0.25)
        sim.schedule(0.1, server.fail)
        sim.run()
        assert not done.ok
        assert server.jobs_dropped == 1
        assert server.in_system == 0

    def test_job_after_recover_starts_now_not_behind_dead_chain(self, sim):
        server = Server(sim, cores=1)
        server.reserve(5.0)
        server.submit(1.0)
        sim.run(until=0.1)
        server.fail()
        server.recover()
        done = server.submit(0.25, value="fresh")
        sim.run(until=0.1 + 0.25)
        assert done.value == "fresh"
        assert server.can_reserve()
