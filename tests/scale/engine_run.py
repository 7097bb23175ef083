"""Run a scenario through ``run_scenario`` and keep the engine it built.

An unsharded run is the one-shard epoch loop, and its engine lives
inside the loop's host.  Tests that read the deployment, the driver or
the kernel after the run take it from here: the engine is captured as
it is prepared, and a lone shard's host leaves it to the collector, so
the reference keeps it whole.  Its obs instance has handed its spans
over to ``result.obs_shards[0]``.
"""

from repro.scale import shard
from repro.scale.engine import run_scenario


def run_engine(scenario, mode="cohort", **kwargs):
    """``(engine, result)`` of one unsharded :func:`run_scenario` call."""
    engines = []
    prepare = shard.ShardEngine.prepare

    def capture(engine):
        engines.append(engine)
        prepare(engine)

    shard.ShardEngine.prepare = capture
    try:
        result = run_scenario(scenario, mode=mode, **kwargs)
    finally:
        shard.ShardEngine.prepare = prepare
    (engine,) = engines
    return engine, result
