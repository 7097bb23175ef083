"""The repo's benchmark: six workloads, end-to-end metrics, per-layer attribution.

    python3 bench/run.py                      # every workload, every metric
    python3 bench/run.py --out result.json    # ... and keep the raw samples
    python3 bench/run.py --check              # tiny sizes, asserts the contract
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form is what the PR driver calls: one workload, end-to-end
metrics (``--trace 0``) or per-layer metrics (``--trace 1``), one JSON
object on the last line of stdout.

This process never imports ``repro``: every run is a fresh
``child.py`` process (cold import, clean ``ru_maxrss``), one at a time.
See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A run failed, or two runs that must agree did not."""


# ------------------------------------------------------------------ children


def run_child(workload, seed, size, traced=False, variant="", trace_out=""):
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
    ]
    if variant:
        cmd += ["--variant", variant]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s: child exceeded %d s" % (workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s: child exited with code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def same_result(a, b, what) -> None:
    """Determinism guard: abort with both values when two runs disagree."""
    if a["identity"] != b["identity"]:
        raise BenchError(
            "%s disagree — no numbers from a perturbed schedule\n  %s\n  %s"
            % (what, json.dumps(a["identity"]), json.dumps(b["identity"]))
        )


def measure(names, seed, seconds, size, min_repeats):
    """Untraced repeats, interleaved across ``names``.

    Each workload gets ``min_repeats`` runs, then more for as long as
    one more run of its median length still fits into ``seconds``.
    """
    runs = {name: [] for name in names}
    active = list(names)
    # one discarded tiny run first: the host's clock ramp-up and cold
    # page cache after an idle spell are not the program's doing
    run_child(names[0], seed, "check")
    while active:
        for name in list(active):
            record = run_child(name, seed, size)
            if runs[name]:
                same_result(runs[name][0], record, name + ": repeats")
            runs[name].append(record)
            walls = [r["wall_s"] for r in runs[name]]
            if len(walls) >= min_repeats and (
                sum(walls) + statistics.median(walls) > seconds
            ):
                active.remove(name)
    return runs


def references(name, seed, size, first, want_layers):
    """Reference runs: same size, one thing switched off."""
    refs = {}
    if name == "commute_sharded_obs":
        # schedule transparency: tracing must not change the result
        refs["plain"] = run_child(name, seed, size, variant="plain")
        same_result(first, refs["plain"], name + ": obs on vs obs off")
    if name == "commute_sharded" and want_layers:
        # does sharding pay on this host?  one process, same size
        refs["unsharded"] = run_child(name, seed, size, variant="unsharded")
    return refs


def failed_checks(records):
    return sorted({
        "%s: %s" % (r["workload"], check)
        for r in records for check, ok in r["checks"].items() if not ok
    })


# ------------------------------------------------------------------- metrics


def end_to_end(spec, records):
    out = {}
    for metric in spec["end_to_end"]:
        samples = [r[metric["name"]] for r in records]
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(samples),
            "q1": q1, "q3": q3, "n": len(samples), "samples": samples,
        }
    return out


def per_layer(untraced, traced, refs, repeats, loadavg):
    """Every per-layer metric of one workload, by name."""
    layers = traced["layers"]
    calls, inclusive = layers["calls"], layers["inclusive_s"]
    free = untraced["free"]

    def n(*keys):
        return sum(calls.get(key, 0) for key in keys)

    def layer_calls(layer):
        return sum(
            count for key, count in calls.items()
            if key.startswith(layer + ":") and not key.endswith("~")
        )

    out = {layer + ".self_s": s for layer, s in layers["self_s"].items()}
    out["scale.topology.build_city_s"] = out.pop("scale.topology.self_s")
    events = layers["sim_events"]
    sim = untraced["sim"] or {"p50_ms": 0.0, "p95_ms": 0.0, "samples": 0}
    out.update({
        "sim.events": events,
        "sim.us_per_event": out["sim.self_s"] / events * 1e6 if events else 0.0,
        "sim.server_calls": n("sim:Server.submit", "sim:Server.reserve"),
        "core.hops": n("core:Deployment.hop"),
        "core.log_appends": n("core:MessageLog.append"),
        "core.replays": n("core:CPF.replay_message"),
        "core.audit_serves": n("core:RYWAuditor.record_serve"),
        "codec.cost_calls": n(
            "codec:CostModel.serialize_cost", "codec:CostModel.deserialize_cost"
        ),
        "messages.catalog_calls": layer_calls("messages"),
        "geo.ring_lookups": n("geo:HashRing.lookup", "geo:HashRing.successors"),
        # scale runs count arrivals themselves; paper points draw them
        # from poisson_arrivals, one resume each plus the closing one
        "traffic.arrivals": n("traffic:poisson_arrivals~") - n("traffic:poisson_arrivals"),
        "faults.transit_events": n("faults:FaultInjector.transit_event"),
        "faults.ops_fired": n("faults:FaultInjector.fire"),
        "scale.cohort.bootstrap_s": inclusive.get("scale.cohort:CohortDriver.bootstrap", 0.0),
        "scale.cohort.rss_bytes_per_ue": untraced["rss_bytes_per_ue"],
        "scale.shard.advance_s": inclusive.get("scale.shard:ShardEngine.advance", 0.0),
        "scale.shard.deliver_s": inclusive.get("scale.shard:ShardEngine.deliver", 0.0),
        "scale.shard.finish_payload_s": inclusive.get("scale.shard:ShardEngine.finish_payload", 0.0),
        "scale.shard.finish_payload_bytes": layers["finish_payload_bytes"],
        "experiments.point_s_p50": statistics.median(layers["point_s"] or [0.0]),
        "bench.root_s": layers["root_s"],
        "bench.spans": layers["spans"],
        "bench.trace_overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "bench.loadavg_1m": loadavg,
        "bench.repeats": repeats,
        "bench.failed_share": untraced["failed"] / untraced["attempted"],
        "bench.sim_p50_ms": sim["p50_ms"],
        "bench.sim_p95_ms": sim["p95_ms"],
        "bench.sim_samples": sim["samples"],
    })
    out.update(free)
    plain, unsharded = refs.get("plain"), refs.get("unsharded")
    out["obs.overhead_ratio"] = untraced["wall_s"] / plain["wall_s"] if plain else 0.0
    out["scale.shard.unsharded_wall_s"] = unsharded["wall_s"] if unsharded else 0.0
    out["scale.shard.speedup_vs_unsharded"] = (
        unsharded["wall_s"] / untraced["wall_s"] if unsharded else 0.0
    )
    return out


def attribute(spec, name, args, untraced, refs, repeats, loadavg):
    """The traced run of one workload -> ``{metric: {"value", "unit"}}``."""
    traced = run_child(name, args.seed, args.size, traced=True, trace_out=args.trace_out)
    same_result(untraced, traced, name + ": traced vs untraced")
    values = per_layer(untraced, traced, refs, repeats, loadavg)
    table = {
        # a metric the layers do not produce on this workload reads 0:
        # no calls, no time
        m["name"]: {"value": values.pop(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    if values:
        raise BenchError("%s: metrics missing from BENCHMARK.json: %s" % (name, sorted(values)))
    return table, traced


# -------------------------------------------------------------------- output


def show(name, doc):
    for metric, row in doc.get("end_to_end", {}).items():
        print("%-20s %-34s %14.6g %-6s q1 %.6g  q3 %.6g  n=%d" % (
            name, metric, row["median"], row["unit"], row["q1"], row["q3"], row["n"],
        ))
    for metric, row in doc.get("per_layer", {}).items():
        print("%-20s %-34s %14.6g %s" % (name, metric, row["value"], row["unit"]))
    print("%-20s elapsed %.1f s (%d untraced runs)" % (name, doc["elapsed_s"], doc["repeats"]))


def provenance(args):
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m_start": os.getloadavg()[0],
        "argv": sys.argv[1:],
    }


#: the correctness checks every run of a workload must have executed
EXPECTED_CHECKS = {
    "scale": {"violations==0", "aborted==0", "gate_misses==0", "headline_cells", "setup_marked"},
    "paper": {"neutrino_violations==0", "neutrino_window_nonempty", "setup_marked"},
    "codec": {"decode==sample", "setup_marked"},
}


def contract_problems(spec, name, doc):
    """``--check``: every metric once with its unit, every check executed."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in doc[group].items()}
        if want != got:
            problems.append("%s: %s metrics differ from BENCHMARK.json: %s" % (
                name, group, sorted(set(want.items()) ^ set(got.items())),
            ))
    expected = set(EXPECTED_CHECKS[doc["params"]["kind"]])
    if name == "storm_discrete":
        expected.add("recovered>0")
    for record in doc["runs"]:
        want = set(expected)
        if doc["params"].get("shards", 1) > 1 and not record["traced"]:
            want.add("backend==process")
        if set(record["checks"]) != want:
            problems.append("%s: checks executed %s, expected %s" % (
                name, sorted(record["checks"]), sorted(want),
            ))
    if name == "commute_sharded_obs" and "plain" not in doc["references"]:
        problems.append(name + ": schedule-transparency reference did not run")
    return problems


def run(spec, args):
    """Untraced repeats of every selected workload, then its traced run.

    The PR driver's form (``--workload`` without ``--check``) does one
    of the two halves: ``--trace 0`` the repeats, ``--trace 1`` a single
    untraced run beside the traced one.
    """
    t_start = time.perf_counter()
    driver = bool(args.workload) and not args.check
    want_e2e = not (driver and args.trace)
    want_layers = not (driver and not args.trace)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    loadavg = os.getloadavg()[0]
    runs = measure(
        names, args.seed, args.seconds if want_e2e else 0.0, args.size,
        MIN_REPEATS if want_e2e else 1,
    )
    docs, problems = {}, []
    for name in names:
        t0 = time.perf_counter()
        records = runs[name]
        refs = references(name, args.seed, args.size, records[0], want_layers)
        doc = docs[name] = {
            "params": records[0]["params"], "repeats": len(records),
            "runs": records, "references": refs,
        }
        if want_e2e:
            doc["end_to_end"] = end_to_end(spec, records)
        if want_layers:
            doc["per_layer"], traced = attribute(
                spec, name, args, records[0], refs, len(records), loadavg
            )
            doc["runs"] = records + [traced]
        doc["attempted"] = sum(r["attempted"] for r in doc["runs"])
        doc["failed"] = sum(r["failed"] for r in doc["runs"])
        doc["elapsed_s"] = sum(r["wall_s"] for r in records) + time.perf_counter() - t0
        show(name, doc)
        problems += failed_checks(doc["runs"] + list(refs.values()))
        if args.check:
            problems += contract_problems(spec, name, doc)
    total = time.perf_counter() - t_start
    print("total elapsed %.1f s" % total)
    if args.out:
        with open(args.out, "w") as out:
            json.dump({
                "schema": "bench/1",
                "provenance": provenance(args),
                # bounds travel with the samples, so that compare.py
                # needs nothing but the two files
                "end_to_end": spec["end_to_end"],
                "size": args.size,
                "elapsed_s": total,
                "workloads": docs,
            }, out, indent=1)
            out.write("\n")
    for line in problems:
        print("FAILED " + line, file=sys.stderr)
    if args.check and not problems:
        print("check ok: %d workloads, %d end-to-end and %d per-layer metrics each" % (
            len(names), len(spec["end_to_end"]), len(spec["per_layer"]),
        ))
    if driver:
        doc = docs[args.workload]
        table = doc["end_to_end"] if want_e2e else doc["per_layer"]
        print(json.dumps({
            "correct": not problems,
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                k: {"value": v["median"] if want_e2e else v["value"], "unit": v["unit"]}
                for k, v in table.items()
            },
        }))
    return 1 if problems else 0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="keep repeating a workload while one more run fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--out", default="", help="write samples and provenance here")
    parser.add_argument("--trace-out", default="",
                        help="with --workload: Chrome trace JSON of the traced run's spans")
    parser.add_argument("--check", action="store_true",
                        help="tiny sizes; assert the BENCHMARK.json contract")
    args = parser.parse_args()
    args.size = "check" if args.check else "full"
    if args.check:
        args.seconds = 0.0
    if args.trace_out and not args.workload:
        parser.error("--trace-out needs --workload (one file per traced run)")
    try:
        return run(spec, args)
    except BenchError as err:
        print("ABORTED: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
