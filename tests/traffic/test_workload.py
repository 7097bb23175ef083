"""Tests for the workload driver."""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.sim import Simulator
from repro.traffic import TraceConfig, TraceRecord, WorkloadDriver, generate_trace


@pytest.fixture
def dep():
    sim = Simulator()
    return Deployment.build_grid(sim, ControlPlaneConfig.neutrino())


class TestPool:
    def test_build_pool_bootstraps(self, dep):
        driver = WorkloadDriver(dep)
        pool = driver.build_pool(8)
        assert len(pool) == 8
        assert all(ue.attached for ue in pool)

    def test_pool_spreads_over_bss(self, dep):
        driver = WorkloadDriver(dep)
        pool = driver.build_pool(8)
        assert len({ue.bs_name for ue in pool}) > 1

    def test_pool_size_validated(self, dep):
        with pytest.raises(ValueError):
            WorkloadDriver(dep).build_pool(0)

    def test_pool_grows_when_all_busy(self, dep):
        driver = WorkloadDriver(dep)
        driver.build_pool(2)
        for ue in driver._pool:
            ue.busy = True
        grown = driver._take_free_ue(sorted(dep.bss))
        assert grown not in (None,)
        assert len(driver._pool) == 3


class TestScheduling:
    def test_attach_arrivals_create_fresh_ues(self, dep):
        driver = WorkloadDriver(dep)
        n = driver.schedule_attaches([0.0, 0.001, 0.002])
        assert n == 3
        dep.sim.run(until=0.5)
        assert driver.completed() == 3
        assert dep.pct["attach"].count == 3

    def test_procedure_arrivals_use_pool(self, dep):
        driver = WorkloadDriver(dep)
        driver.build_pool(4)
        driver.schedule_procedures("service_request", [0.0, 0.001])
        dep.sim.run(until=0.5)
        assert driver.completed() == 2
        assert dep.pct["service_request"].count == 2

    def test_handover_arrivals_pick_sibling_targets(self, dep):
        driver = WorkloadDriver(dep)
        driver.build_pool(4, ["bs-20-0"])
        driver.schedule_procedures(
            "handover", [0.0], ["bs-20-0"], driver.sibling_region_target()
        )
        dep.sim.run(until=0.5)
        assert dep.pct["handover"].count == 1

    def test_same_region_target(self, dep):
        driver = WorkloadDriver(dep)
        ue = dep.bootstrap_ue("x", "bs-20-0")
        assert driver.same_region_target()(ue) == "bs-20-1"

    def test_failed_counts(self, dep):
        driver = WorkloadDriver(dep)
        driver.build_pool(1)
        for name in dep.cpfs:
            dep.fail_cpf(name)
        driver.schedule_procedures("service_request", [0.0])
        dep.sim.run(until=1.0)
        assert driver.failed() == 1


class TestTraceReplay:
    def test_trace_replay_executes_records(self, dep):
        trace = generate_trace(
            TraceConfig(n_devices=5, duration_s=0.5, session_interarrival_s=0.2,
                        handover_interarrival_s=None, power_cycle_fraction=0.0, seed=1)
        )
        driver = WorkloadDriver(dep)
        driver.schedule_trace(trace)
        dep.sim.run(until=2.0)
        assert dep.pct["attach"].count == 5

    def test_unattached_ue_record_becomes_attach(self, dep):
        driver = WorkloadDriver(dep)
        driver.schedule_trace([TraceRecord(0.0, "ue-z", "service_request")])
        dep.sim.run(until=1.0)
        assert dep.pct["attach"].count == 1

    def test_busy_ue_arrival_dropped(self, dep):
        driver = WorkloadDriver(dep)
        dep.bootstrap_ue("ue-z", "bs-20-0").busy = True
        driver.schedule_trace([TraceRecord(0.0, "ue-z", "service_request")])
        dep.sim.run(until=1.0)
        assert driver.arrivals_dropped == 1

    def test_handover_without_target_dropped(self, dep):
        driver = WorkloadDriver(dep)
        dep.bootstrap_ue("ue-z", "bs-20-0")
        driver.schedule_trace([TraceRecord(0.0, "ue-z", "handover")])
        dep.sim.run(until=1.0)
        assert driver.arrivals_dropped == 1


_REPLAY_SCRIPT = """
import json
from repro.core import ControlPlaneConfig, Deployment
from repro.sim import RngRegistry, Simulator
from repro.traffic import TraceConfig, WorkloadDriver, generate_trace

dep = Deployment.build_grid(
    Simulator(), ControlPlaneConfig.neutrino(), cpfs_per_region=2,
    regions=2, rng=RngRegistry(21),
)
trace = generate_trace(
    TraceConfig(n_devices=8, duration_s=2.0, session_interarrival_s=0.5,
                handover_interarrival_s=None, power_cycle_fraction=0.0, seed=3)
)[:20]
assert len(trace) == 20
WorkloadDriver(dep).schedule_trace(trace)
dep.sim.run(until=5.0)
rows = sorted(
    (o.ue_id, dep.ue(o.ue_id).bs_name, o.name, o.pct) for o in dep.outcomes
)
tmsi = {ue.ue_id: dep.m_tmsi_of(ue.ue_id) for ue in dep.ues()}
print(json.dumps({"rows": rows, "tmsi": tmsi}, sort_keys=True))
"""


def test_trace_replay_is_independent_of_pythonhashseed():
    """Unknown UEs are homed — and M-TMSIs derived — by crc32, not
    ``hash()``: str hashes are per-process, so with ``hash()`` two
    replays of one trace placed UEs on different base stations."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    tables = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _REPLAY_SCRIPT],
            env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        tables.append(json.loads(out.stdout))
    assert tables[0]["rows"], "the replay completed nothing"
    assert tables[0] == tables[1]
