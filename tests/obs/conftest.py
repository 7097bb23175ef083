"""Traced scale runs shared by the emitter oracle and the taxonomy test."""

import pytest

from repro.obs import Observability
from repro.scale.engine import _Engine
from repro.scale.scenarios import get_scenario

#: (scenario, n_ue, duration_s, seed) — the one-site test's steady city, a
#: commute wave whose fast handovers include the intra-level-2 fetch leg,
#: and a paging storm dense enough that lane walks meet queued servers.
LANE_CASES = {
    "steady-city": ("steady-city", 400, 0.5, 3),
    "commute-wave": ("commute-wave", 4000, 1.0, 1),
    "contended": ("paging-storm", 3000, 0.5, 1),
}


def run_traced(case, mode):
    """One lane case under ``mode``, every span kept: ``(obs, result)``."""
    scenario, n_ue, duration_s, seed = LANE_CASES[case]
    spec = get_scenario(scenario).with_overrides(
        n_ue=n_ue, duration_s=duration_s, seed=seed
    )
    obs = Observability("trace", span_keep=0)
    engine = _Engine(spec, mode=mode, obs=obs, verbose_trace=True)
    return obs, engine.run()


@pytest.fixture(scope="session")
def lane_runs():
    """Every lane case under both executors."""
    return {
        case: {mode: run_traced(case, mode) for mode in ("cohort", "batched")}
        for case in LANE_CASES
    }
