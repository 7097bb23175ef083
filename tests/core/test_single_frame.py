"""One frame: each executor walks a procedure's legs in one generator.

``UE.execute`` interprets the compiled legs (``core/program.py``) event
by event and ``LaneRuntime.walk`` in closed form; neither hands a step
or a leg to a sub-generator, so at every suspension on the clean path
the generator is suspended in its own frame (``gi_yieldfrom is None``).
Recovery, the Fast Handover state fetch and DPCM's detached UPF leg may
still delegate; none of them is on the clean path here.
"""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.messages.procedures import PROCEDURES
from repro.scale.engine import _Engine
from repro.scale.lane import LaneRuntime
from repro.scale.scenarios import get_scenario
from repro.sim import Simulator

STEADY = sorted(
    name
    for name in PROCEDURES
    if Deployment.build_grid(Simulator(), ControlPlaneConfig.neutrino())
    .program_of(name)
    .steady_state
)
TARGETS = {
    "intra_handover": "bs-20-1",
    "fast_handover": "bs-21-0",
    "handover": "bs-21-0",
}
#: Suspensions of a clean run with no fault injector: one per leg, but
#: a run of pure delays (hop, bs.uplink, bs.downlink) is one wake, the
#: ``pct`` mark is none, and a CPF serve is two (the booking, then the
#: re-queue before the UE hears the outcome); a migration step is five
#: (three bookings, two hops); the per-procedure checkpoint lock is one
#: more.  ``tau``: [hop bs hop] ingest [hop] serve(2) [hop] respond
#: [hop bs hop] pct, lock = 9.
SUSPENSIONS = {
    "attach": 41,
    "fast_handover": 20,
    "handover": 25,
    "intra_handover": 15,
    "service_request": 20,
    "tau": 9,
}


def probe(gen, frames):
    """Forward ``gen``'s yields and resumes, noting where it is suspended."""
    value = None
    while True:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        frames.append(gen.gi_yieldfrom)
        value = yield target


def test_steady_state_programs():
    assert STEADY == ["fast_handover", "intra_handover", "service_request", "tau"]


@pytest.mark.parametrize("proc", STEADY + ["attach", "handover"])
def test_execute_runs_in_one_frame(proc):
    sim = Simulator()
    dep = Deployment.build_grid(sim, ControlPlaneConfig.neutrino())
    if proc == "attach":
        ue = dep.new_ue("ue-1", "bs-20-0")
    else:
        ue = dep.bootstrap_ue("ue-1", "bs-20-0")
    frames = []
    gen = ue.execute(proc, target_bs=TARGETS.get(proc))
    outcome = sim.run_process(probe(gen, frames))
    assert outcome.completed and not outcome.recovered
    assert len(frames) == SUSPENSIONS[proc]
    assert all(frame is None for frame in frames)


def test_walk_runs_in_one_frame(monkeypatch):
    frames = {}  # (program, fetches) -> suspensions; checkpoint ships: None
    launch = LaneRuntime.launch

    def probed(self, gen, on_abort=None):
        w = gen.gi_frame.f_locals.get("w")
        key = None if w is None else (w.program.name, w.fetch_from is not None)
        return launch(self, probe(gen, frames.setdefault(key, [])), on_abort)

    monkeypatch.setattr(LaneRuntime, "launch", probed)
    spec = get_scenario("commute-wave").with_overrides(
        n_ue=3000, duration_s=3.0, seed=3
    )
    engine = _Engine(spec, mode="batched")
    result = engine.run()
    # no scenario moves within a region often enough: start one by hand
    driver = engine.driver
    i = next(i for i in range(driver.n) if driver.attached[i] and not driver.busy[i])
    _, region, k = driver.bs_of(i).split("-")
    driver.start_procedure(i, "intra_handover", "bs-%s-%d" % (region, 1 - int(k)))
    engine.sim.run()
    assert result.lane["gate_misses"] == 0
    clean = {key[0] for key in frames if key is not None and not key[1]}
    assert clean >= set(STEADY)
    for key, seen in frames.items():
        if key is None or not key[1]:  # a fetching walk delegates the fetch
            assert seen and all(frame is None for frame in seen), key
