"""DESIGN §9's span table is checked against what the emitters produce.

The table is documentation a reader navigates a trace by, so it is
parsed here and its ``(span, phase)`` set must *equal* the set seen in
real runs: the lane-oracle scenarios under both executors, the Fig. 10
recovery slice (failover, replay, Re-Attach, full-handover migration)
and a migration-bearing sharded run.  A span renamed, added or retired
in ``src/`` fails this test until the table says so, and a row naming
a span nothing emits (as ``radio.uplink`` did) fails it too.
"""

import pathlib
import re

from repro.core import ControlPlaneConfig
from repro.experiments.harness import RunSpec, run_pct_point
from repro.obs import Observability
from repro.scale.engine import run_scenario

from tests.core.test_kernel_witnesses import _FIG10_SPEC
from tests.scale.test_sharded import _fault_window_spec

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"


def documented_pairs():
    """``{(span, phase)}`` and ``{span: how it is written}`` from §9."""
    text = DESIGN.read_text()
    section = text[text.index("### Span taxonomy"):text.index("### Determinism contract")]
    pairs, written = set(), {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        names = re.findall(r"`([^`]+)`", cells[0])
        (phase,) = re.findall(r"`([^`]+)`", cells[2])
        for name in names:
            pairs.add((name, phase))
            written[name] = cells[3]
    return pairs, written


def generic(name):
    """``hop.bs_cta`` -> ``hop.<class>``, ``proc.tau`` -> ``proc.<name>``."""
    head, _, _ = name.partition(".")
    return {"hop": "hop.<class>", "proc": "proc.<name>"}.get(head, name)


def test_design_span_table_equals_what_the_emitters_produce(lane_runs):
    seen = set()
    for by_mode in lane_runs.values():
        for snap, _ in by_mode.values():
            seen |= {(generic(s.name), s.phase) for s in snap["spans"]}

    obs = Observability("trace", span_keep=0)
    run_pct_point(
        ControlPlaneConfig.neutrino(), 60e3, RunSpec(**_FIG10_SPEC), obs=obs
    )
    seen |= {(generic(s.name), s.phase) for s in obs.tracer.spans}

    sharded = run_scenario(
        _fault_window_spec(), shards=2, shard_backend="inline",
        obs=Observability("trace"), verbose_trace=True,
    )
    assert sharded.counters.get("migrations_out", 0) > 0
    for shard in sharded.obs_shards:
        seen |= {(generic(s.name), s.phase) for s in shard["spans"]}

    pairs, written = documented_pairs()
    assert pairs == seen, (
        "DESIGN §9 span table and the emitters disagree: only documented %s, "
        "only emitted %s" % (sorted(pairs - seen), sorted(seen - pairs))
    )
    assert set(written.values()) == {"bracketed", "recorded"}
    assert {n for n, how in written.items() if how == "recorded"} == {
        "hop.<class>", "shard.install_migrated",
    }
