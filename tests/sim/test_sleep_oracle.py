"""Differential oracle: ``yield d`` against ``yield sim.timeout(d)``.

A yielded ``float`` is the kernel's cheap spelling of a ``Timeout``
wait: one scheduler entry, no event.  Both spellings allocate their one
``_seq`` at the same point of the same program, so random programs that
differ only in how they sleep must agree on every instant, on the order
of everything that happens at one instant, and on the final clock.
"""

from hypothesis import given, strategies as st

from repro.sim import Interrupt, Server, Simulator

# Mostly dyadic, so sums are exact and sleeps of different processes,
# job completions and races end on exactly the same float instant; 0.1
# and 0.3 add rounding, 0.0 the queue-for-this-instant case.
DELAYS = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)
MAX_PROCS = 4

OP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("serve"), st.sampled_from(DELAYS)),
    # first of a timer and a server job (ties on purpose)
    st.tuples(st.just("race"), st.sampled_from(DELAYS), st.sampled_from(DELAYS)),
    # lands mid-sleep, mid-job, mid-race, on a finished process, or on
    # the sender itself at its next wait
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
)
PROGRAMS = st.lists(st.lists(OP, max_size=12), min_size=1, max_size=MAX_PROCS)


def run(programs, float_sleep):
    sim = Simulator()
    server = Server(sim, cores=1)
    log = []  # (instant, label) in execution order
    procs = []

    def body(i, ops):
        for j, op in enumerate(ops):
            label = "p%d.%d %s" % (i, j, op[0])
            try:
                if op[0] == "sleep":
                    yield op[1] if float_sleep else sim.timeout(op[1])
                elif op[0] == "serve":
                    yield server.submit(op[1])
                elif op[0] == "race":
                    winner, _ = yield sim.any_of(
                        [sim.timeout(op[1]), server.submit(op[2])]
                    )
                    label += " won by %d" % winner
                else:
                    procs[op[1] % len(procs)].interrupt((i, j))
            except Interrupt as intr:
                label += " interrupted by %r" % (intr.cause,)
            log.append((sim.now, label))

    procs.extend(sim.process(body(i, ops)) for i, ops in enumerate(programs))
    sim.run()
    assert not any(p.alive for p in procs)
    return log, sim.now, sim._seq, server.jobs_done


@given(programs=PROGRAMS)
def test_float_yield_matches_timeout_yield(programs):
    assert run(programs, float_sleep=True) == run(programs, float_sleep=False)
