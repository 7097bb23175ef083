"""Scale accuracy oracle: every reported PCT quantile against the exact sample.

The scale engine reports per-(region, procedure) latency quantiles from
:class:`~repro.sim.monitor.QuantileSketch` cells.  These tests capture
every completed PCT at the deployment's outcome sink and hold the
reported ``region_pct_ms`` table to it:

* unsharded, every p50/p95/p99 in every cell, of any size, lies within
  ``ALPHA`` relative of the exact rank quantile
  ``sorted(xs)[floor(q * (n - 1))]``;
* sharded (2 and 4 inline shards), the merged table's count, min, max
  and quantiles equal, bit for bit, one sketch fed the union of every
  shard's observations, forward or reversed.

Unsharded == k-shard equality is *not* asserted: each shard forks its
traffic RNG streams by shard index, so a k-shard run completes a
different set of procedures than the unsharded one.  That equality waits
for RNG streams keyed by level-2 parent.
"""

import pytest

from repro.scale import run_scenario
from repro.scale.engine import ShardEngine
from repro.sim.monitor import ALPHA, QuantileSketch

QS = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


@pytest.fixture
def captured(monkeypatch):
    """(region, procedure) -> every PCT the engines' outcome sinks saw."""
    cells = {}
    init = ShardEngine.__init__

    def init_and_wrap_sink(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dep, sink = self.dep, self.dep.outcome_sink

        def capture(outcome):
            if outcome.pct is not None:
                placement = dep.placement_of(outcome.ue_id)
                region = placement.region if placement is not None else "?"
                cells.setdefault((region, outcome.name), []).append(outcome.pct)
            sink(outcome)

        dep.outcome_sink = capture

    monkeypatch.setattr(ShardEngine, "__init__", init_and_wrap_sink)
    return cells


def _cells(table):
    return sorted((region, proc) for region in table for proc in table[region])


@pytest.mark.parametrize(
    "scenario, n_ue, duration_s",
    [("autoscale-under-flash-crowd", 5000, None), ("steady-city", 20000, 1.0)],
)
def test_every_cell_is_within_alpha_of_the_rank_quantile(
    captured, scenario, n_ue, duration_s
):
    table = run_scenario(scenario, n_ue=n_ue, duration_s=duration_s, seed=1).region_pct_ms
    assert _cells(table) == sorted(captured)
    for (region, proc), xs in sorted(captured.items()):
        cell = table[region][proc]
        ordered = sorted(xs)
        assert cell["count"] == len(xs)
        for key, q in QS.items():
            exact = ordered[int(q * (len(xs) - 1))] * 1e3
            assert abs(cell[key] - exact) <= ALPHA * exact * (1 + 1e-9), (
                region, proc, key, cell[key], exact,
            )


@pytest.mark.parametrize("scenario", ["steady-city", "commute-wave"])
@pytest.mark.parametrize("shards", [2, 4])
def test_merged_shard_table_equals_the_union_sketch(captured, scenario, shards):
    table = run_scenario(
        scenario, n_ue=20000, duration_s=1.0, seed=1,
        shards=shards, shard_backend="inline",
    ).region_pct_ms
    assert _cells(table) == sorted(captured)
    for (region, proc), xs in sorted(captured.items()):
        cell = dict(table[region][proc])
        del cell["mean"]  # a float sum: exact only up to addition order
        for stream in (xs, xs[::-1]):
            union = QuantileSketch()
            for x in stream:
                union.observe(x)
            want = {
                key: value if key == "count" else value * 1e3
                for key, value in union.summary().items()
                if key != "mean"
            }
            assert cell == want, (region, proc)
