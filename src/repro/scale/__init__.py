"""City-scale sharded deployment harness (paper §4.3 at population scale).

``repro.scale`` instantiates K CTAs x M level-2 regions from geo-hash
tiles — placement is driven entirely by ``geo.regions``/``geo.ring``,
never hand-wired — routes mobility-model traffic across region
boundaries, supports ring membership churn mid-run, and sustains 100k+
modeled UEs through the aggregated-UE cohort model plus streaming
percentile sketches.  Entry point: ``python -m repro scale <scenario>``.
"""

from .cohort import CohortDriver
from .engine import ScaleResult, run_replicates, run_scenario
from .scenarios import SCENARIOS, ScenarioSpec, get_scenario
from .shard import ShardMap, shard_lookahead
from .topology import CityTopology, build_city

__all__ = [
    "CityTopology",
    "build_city",
    "ScenarioSpec",
    "SCENARIOS",
    "get_scenario",
    "CohortDriver",
    "ScaleResult",
    "run_scenario",
    "run_replicates",
    "ShardMap",
    "shard_lookahead",
]
