"""The six workloads: sizes, run functions and invariants.

The parent harness imports this module for the size tables only, so
nothing here imports ``repro`` at module level — every run function
does so itself, inside the child process that is being measured.

A run function takes ``(params, seed, traced, mark_setup)`` and returns
one dict:

``attempted`` / ``completed`` / ``failed``
    procedures (codec: round trips) started, finished, and lost to an
    abort, a Read-your-Writes violation or a round-trip mismatch.
``sim``
    ``{"p50_ms", "p95_ms", "samples"}`` of the headline procedure in
    *simulated* milliseconds, or None where no simulator runs (codec).
``identity``
    everything two runs of one commit, seed and size must agree on
    exactly — the determinism guard compares it between repeats and
    between the traced and untraced runs.
``checks``
    invariant name -> bool; any False fails the run.
``free``
    per-layer metrics readable from public results without tracing.
``n_ue`` / ``workers_rss_kb``
    optional: population size and the summed peak RSS of worker processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

CODECS = ("asn1per", "flatbuffers", "flatbuffers_opt", "protobuf")

#: Sizes measured on the 2-core reference host so that one untraced run
#: takes 3-5 s (commute_sharded_obs: ~9 s); see README "Time budget".
FULL = {
    "steady_batched": dict(
        kind="scale", scenario="steady-city", n_ue=500_000, duration_s=2.5,
        mode="batched", shards=1, obs=False, headline="service_request",
        min_cell=200,
    ),
    "storm_discrete": dict(
        kind="scale", scenario="iot-reattach-storm", n_ue=20_000,
        duration_s=2.0, mode="cohort", shards=1, obs=False,
        headline="attach", min_cell=200,
    ),
    "commute_sharded": dict(
        kind="scale", scenario="commute-wave", n_ue=100_000, duration_s=2.0,
        mode="batched", shards=2, obs=False, headline="fast_handover",
        min_cell=200,
    ),
    "commute_sharded_obs": dict(
        kind="scale", scenario="commute-wave", n_ue=100_000, duration_s=2.0,
        mode="batched", shards=2, obs=True, headline="fast_handover",
        min_cell=200,
    ),
    "paper_sweep": dict(
        kind="paper", fig08_rates=(60e3, 100e3), fig10_rates=(40e3,),
        procedures_target=1200,
    ),
    "codec_roundtrip": dict(kind="codec", codecs=CODECS, rounds=1000),
}

#: ``--check``: the same code paths, small enough that all six
#: workloads with repeats, reference runs and traced runs end in < 60 s.
CHECK = {
    "steady_batched": dict(FULL["steady_batched"], n_ue=20_000, duration_s=0.5, min_cell=10),
    "storm_discrete": dict(FULL["storm_discrete"], n_ue=2_000, duration_s=1.0, min_cell=10),
    "commute_sharded": dict(FULL["commute_sharded"], n_ue=8_000, duration_s=1.0, min_cell=5),
    "commute_sharded_obs": dict(FULL["commute_sharded_obs"], n_ue=8_000, duration_s=1.0, min_cell=5),
    "paper_sweep": dict(FULL["paper_sweep"], fig08_rates=(60e3,), procedures_target=300),
    "codec_roundtrip": dict(FULL["codec_roundtrip"], rounds=20),
}

SIZES = {"full": FULL, "check": CHECK}

#: reference variants of a workload (same size, one thing switched off)
VARIANTS = {
    "plain": dict(obs=False),      # commute_sharded_obs without tracing
    "unsharded": dict(shards=1),   # commute_sharded in one process
}


def params_for(workload: str, size: str, variant: str = "") -> dict:
    params = dict(SIZES[size][workload])
    if variant:
        params.update(VARIANTS[variant])
    return params


def run(params: dict, seed: int, traced: bool, mark_setup) -> dict:
    return _KINDS[params["kind"]](params, seed, traced, mark_setup)


def _hash(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


# --------------------------------------------------------------------- scale


def _weighted_quantiles(region_pct_ms: dict, proc: str, min_cell: int):
    """Count-weighted mean over regions of the per-cell p50 and p95."""
    n = p50 = p95 = 0.0
    for cells in region_pct_ms.values():
        cell = cells.get(proc)
        if cell and cell["count"] >= min_cell and cell.get("p95") is not None:
            n += cell["count"]
            p50 += cell["count"] * cell["p50"]
            p95 += cell["count"] * cell["p95"]
    if not n:
        return None
    return {"p50_ms": p50 / n, "p95_ms": p95 / n, "samples": int(n)}


def _run_scale(params, seed, traced, mark_setup):
    from repro import scale  # attribute lookup below sees the shimmed name

    sharded = params["shards"] > 1
    kwargs = {}
    if sharded:
        # the shims live in this process only: trace both shards inline
        # (bit-identical to the process backend by existing witness)
        kwargs = dict(
            shards=params["shards"],
            shard_backend="inline" if traced else "process",
        )
    if params["obs"]:
        from repro.obs import Observability

        kwargs["obs"] = Observability("trace")
    r = scale.run_scenario(
        params["scenario"], n_ue=params["n_ue"],
        duration_s=params["duration_s"], seed=seed, mode=params["mode"],
        **kwargs,
    )
    sim = _weighted_quantiles(r.region_pct_ms, params["headline"], params["min_cell"])
    lane = r.lane
    checks = {
        "violations==0": r.violations == 0,
        "aborted==0": r.aborted == 0,
        "gate_misses==0": lane.get("gate_misses", 0) == 0,
        "headline_cells": sim is not None,
    }
    if sharded and not traced:
        # never silently measure the inline fallback
        checks["backend==process"] = r.perf.get("backend") == "process"
    if params["scenario"] == "iot-reattach-storm":
        checks["recovered>0"] = r.recovered > 0
    admitted, fallback = lane.get("admitted", 0), lane.get("fallback", 0)
    counters = r.counters
    free = {
        "core.recovered": r.recovered,
        "core.reattached": r.reattached,
        "traffic.arrivals": sum(
            v for k, v in counters.items()
            if k == "procedures_started" or k.startswith("arrivals_skipped")
        ),
        "scale.cohort.procedures": counters.get("procedures_started", 0),
        "scale.lane.admitted": admitted,
        "scale.lane.fallback": fallback,
        "scale.lane.spills": lane.get("spills", 0),
        "scale.lane.admit_ratio": admitted / max(1, admitted + fallback),
    }
    if sharded:
        walls = [s["wall_s"] for s in r.shards]
        free.update({
            "scale.shard.epochs": r.perf["epochs"],
            "scale.shard.max_shard_wall_s": r.perf["max_shard_wall_s"],
            "scale.shard.max_shard_cpu_s": r.perf["max_shard_cpu_s"],
            "scale.shard.coord_overhead_s": r.perf["wall_s"] - r.perf["max_shard_wall_s"],
            "scale.shard.imbalance": max(walls) / statistics.fmean(walls),
            "scale.shard.migrations": counters.get("migrations_out", 0),
        })
    snapshot = getattr(r, "obs_snapshot", None)
    if snapshot:
        keep = snapshot.get("retention") or {}
        kept, dropped = keep.get("roots_kept", 0), keep.get("roots_dropped", 0)
        free.update({
            "obs.spans_started": snapshot["spans_started"],
            "obs.spans_finished": snapshot["spans_finished"],
            "obs.roots_kept": kept,
            "obs.roots_dropped": dropped,
            "obs.keep_ratio": kept / max(1, kept + dropped),
        })
    return {
        "attempted": counters.get("procedures_started", 0),
        "completed": r.completed,
        "failed": r.aborted + r.violations,
        "sim": sim,
        # the EventTrace digest is empty on unsharded non-verbose runs,
        # so the quantile table carries the identity there
        "identity": {
            "digest": r.digest,
            "completed": r.completed,
            "sim": sim,
            "pct_table": _hash(r.region_pct_ms),
        },
        "checks": checks,
        "free": free,
        "n_ue": r.n_ue,
        # peak RSS of the worker processes, which ru_maxrss of the
        # coordinator does not see (inline shards share its address space)
        "workers_rss_kb": r.perf["total_rss_kb"] if sharded and not traced else 0,
    }


# --------------------------------------------------------------------- paper


def _run_paper(params, seed, traced, mark_setup):
    from repro.experiments import figures
    from repro.experiments.harness import RunSpec

    target = params["procedures_target"]
    fig08 = figures.fig08_attach_uniform(
        rates=params["fig08_rates"],
        spec=RunSpec(procedure="attach", procedures_target=target, seed=seed),
        jobs=1, cache=None,
    )
    fig10 = figures.fig10_failure_handover(
        rates=params["fig10_rates"],
        spec=RunSpec(
            procedure="handover", cpfs_per_region=2, failure_cpf_index=0,
            failure_at_frac=0.5, first_region_only=True,
            procedures_target=target, seed=seed,
        ),
        jobs=1, cache=None,
    )
    points = fig08 + fig10

    def p50(batch, scheme, rate):
        return next(
            p.p50_ms for p in batch if p.scheme == scheme and p.axis_rate == rate
        )

    head = next(
        p for p in fig08 if p.scheme == "neutrino" and p.axis_rate == 60e3
    )
    neutrino = [p for p in points if p.scheme == "neutrino"]
    completed = sum(p.completed for p in points)
    violations = sum(p.violations for p in neutrino)
    fail_rate = params["fig10_rates"][0]
    return {
        "attempted": completed + violations,
        "completed": completed,
        "failed": violations,
        "sim": {"p50_ms": head.p50_ms, "p95_ms": head.p95_ms, "samples": head.count},
        "identity": {
            "digest": _hash([vars(p) for p in points]),
            "completed": completed,
            "sim": [head.p50_ms, head.p95_ms],
        },
        "checks": {
            "neutrino_violations==0": violations == 0,
            "neutrino_window_nonempty": all(
                not p.empty for p in neutrino if p.axis_rate < 140e3
            ),
        },
        "free": {
            "core.recovered": sum(p.recovered for p in points),
            "core.reattached": sum(p.reattached for p in points),
            "experiments.points": len(points),
            "experiments.attach_speedup_vs_epc_60k": (
                p50(fig08, "existing_epc", 60e3) / head.p50_ms
            ),
            "experiments.failure_speedup_vs_epc_40k": (
                p50(fig10, "existing_epc", fail_rate)
                / p50(fig10, "neutrino", fail_rate)
            ),
        },
    }


# --------------------------------------------------------------------- codec


def _run_codec(params, seed, traced, mark_setup):
    from repro.codec import get_codec
    from repro.messages.registry import CATALOG

    rounds = params["rounds"]
    messages = [(CATALOG.schema(n), CATALOG.sample(n)) for n in CATALOG.names()]
    random.Random(seed).shuffle(messages)
    clock = time.perf_counter
    free = {"codec.encode_s": 0.0, "codec.decode_s": 0.0}
    mismatches = 0
    mark_setup()
    for name in params["codecs"]:
        codec = get_codec(name)
        encode, decode = codec.encode, codec.decode
        t0 = clock()
        for _ in range(rounds):
            wire = [encode(schema, value) for schema, value in messages]
        t1 = clock()
        first = last = [
            decode(schema, data) for (schema, _v), data in zip(messages, wire)
        ]
        for _ in range(rounds - 1):
            last = [decode(schema, data) for (schema, _v), data in zip(messages, wire)]
        t2 = clock()
        for decoded in (first, last):
            mismatches += sum(
                out != value for out, (_s, value) in zip(decoded, messages)
            )
        ops = rounds * len(messages)
        free["codec.encode_s"] += t1 - t0
        free["codec.decode_s"] += t2 - t1
        free["codec.encode_us_per_msg." + name] = (t1 - t0) / ops * 1e6
        free["codec.decode_us_per_msg." + name] = (t2 - t1) / ops * 1e6
        free["codec.wire_bytes_per_msg." + name] = statistics.fmean(map(len, wire))
    trips = rounds * len(messages) * len(params["codecs"])
    return {
        "attempted": trips,
        "completed": trips,
        "failed": mismatches,
        "sim": None,
        "identity": {
            "digest": _hash([free["codec.wire_bytes_per_msg." + c] for c in params["codecs"]]),
            "completed": trips,
            "sim": None,
        },
        "checks": {"decode==sample": mismatches == 0},
        "free": free,
    }


_KINDS = {"scale": _run_scale, "paper": _run_paper, "codec": _run_codec}
