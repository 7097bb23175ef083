"""Differential oracle: the booked ``Server`` against the worker-process one.

``reference_server.Server`` simulates the queue (worker generators, a
``Store``, a ``Timeout`` per job); ``repro.sim.Server`` computes each
completion instant in closed form.  Driven by the same schedule they
must agree on everything a caller can observe.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Server, Simulator

from . import reference_server

# Mostly dyadic, so sums are exact and distinct jobs finish (or a clock
# advance lands) on exactly the same float instant; 0.1 and 0.3 add
# rounding, 0.0 the never-synchronous zero-service case.
SERVICES = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)
ADVANCES = (0.0, 0.25, 0.5, 0.75, 1.5)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(SERVICES)),
        st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
        st.just(("fail",)),
        st.just(("recover",)),
    ),
    max_size=60,
)


def drive(server_cls, cores, schedule):
    sim = Simulator()
    server = server_cls(sim, cores=cores)
    log = []  # (instant, job, ok) in the order completions are delivered
    jobs = 0
    for op in schedule:
        if op[0] == "submit":
            done = server.submit(op[1], value=jobs)
            done.add_callback(
                lambda ev, job=jobs: log.append((sim.now, job, ev.ok))
            )
            jobs += 1
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "fail":
            # Let the instant settle on both sides of the crash: while a
            # reference worker has popped a job but not yet resumed, or
            # holds one whose interrupt has not landed, its
            # ``len(queue) + busy`` miscounts the jobs in the system.
            sim.run(until=sim.now)
            server.fail()
            sim.run(until=sim.now)
        else:
            server.recover()
    sim.run()
    assert len(log) == jobs
    return log, {
        "jobs_done": server.jobs_done,
        "jobs_dropped": server.jobs_dropped,
        "busy_time": server.busy_time,
        "queue_peak": server.queue_depth.max_value,
    }


@pytest.mark.parametrize("cores", [1, 2, 3])
@given(schedule=OPS)
def test_booked_server_matches_worker_server(cores, schedule):
    log, counters = drive(Server, cores, schedule)
    ref_log, ref_counters = drive(reference_server.Server, cores, schedule)
    # Per job: same completion instant, same ok / NodeFailed status.
    assert sorted(log, key=lambda e: e[1]) == sorted(ref_log, key=lambda e: e[1])
    # Same completion order.  Jobs dropped by one fail() are compared as
    # a set: the reference fails queued jobs before in-service ones,
    # the booked server all of them in FIFO order.
    assert [e for e in log if e[2]] == [e for e in ref_log if e[2]]
    assert [e[0] for e in log] == [e[0] for e in ref_log]
    assert counters == ref_counters
