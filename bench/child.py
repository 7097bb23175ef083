"""One run of one workload in a fresh process; prints one JSON record.

The parent (``run.py``) starts this file once per repeat so that every
run pays a cold import and owns a clean ``ru_maxrss``.  Host-time
metrics are cut here:

* ``wall_s``  — first line of this file -> workload result verified;
* ``setup_s`` — first line of this file -> simulated time first
  advances (first ``Simulator.run``; process-sharded: the coordinator's
  first epoch step, sent once every worker reported ready; codec: the
  first timed encode).  One flag-checking wrapper, nothing else is
  wrapped in untraced runs.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (bench/ is sys.path[0])

#: what each kind of workload imports before it can start; the peak RSS
#: right after is the floor that ``scale.cohort.rss_bytes_per_ue`` subtracts
IMPORTS = {
    "scale": ("repro.scale", "repro.obs"),
    "paper": ("repro.experiments.figures",),
    "codec": ("repro.codec", "repro.messages.registry"),
}


def _hook_setup(kind: str, mark_setup) -> None:
    """Call ``mark_setup`` on the first entry to the simulated-time loop."""
    if kind == "codec":
        return  # no kernel: the workload marks its first timed encode
    from repro.sim.core import Simulator

    def marked(inner):
        def call(*args, **kwargs):
            mark_setup()
            return inner(*args, **kwargs)
        return call

    Simulator.run = marked(Simulator.run)
    if kind == "scale":
        # the process backend's coordinator never runs a kernel itself
        from repro.scale import shard

        shard._ProcessHost.step_send = marked(shard._ProcessHost.step_send)


def _pin_workers() -> None:
    """Give every shard worker a core of its own.

    Left alone, Linux wake-affinity sometimes stacks both workers on the
    coordinator's core for a whole run, and wall time flips between two
    values 35% apart (README "Sharding on this host").  One worker per
    core is the deployment the sharded workloads mean to measure.
    """
    from repro.scale import shard

    inner = shard.spawn_workers

    def spawn_workers(target, args_list):
        handles = inner(target, args_list)
        cpus = sorted(os.sched_getaffinity(0))
        for k, handle in enumerate(handles):
            os.sched_setaffinity(handle.process.pid, {cpus[k % len(cpus)]})
        return handles

    shard.spawn_workers = spawn_workers


def _cpu_s() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--variant", choices=sorted(workloads.VARIANTS), default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    params = workloads.params_for(args.workload, args.size, args.variant)
    for module in IMPORTS[params["kind"]]:
        importlib.import_module(module)
    rss_import_kb = _peak_rss_kb()

    mark = []

    def mark_setup() -> None:
        if not mark:
            mark.append(time.perf_counter())

    _hook_setup(params["kind"], mark_setup)
    if params.get("shards", 1) > 1:
        _pin_workers()
    rec = None
    root = contextlib.nullcontext()
    if args.traced:
        import trace as shims  # bench/trace.py shadows the stdlib module here

        rec = shims.Recorder()
        shims.install(rec)
        root = rec.span("bench", "root")
    with root:
        out = workloads.run(params, args.seed, args.traced, mark_setup)
    t_end = time.perf_counter()

    out["checks"]["setup_marked"] = bool(mark)
    wall_s = t_end - T0
    setup_s = (mark[0] if mark else t_end) - T0
    workers_kb = out.pop("workers_rss_kb", 0)
    n_ue = out.pop("n_ue", 0)
    peak_kb = _peak_rss_kb() + workers_kb
    out.update({
        "workload": args.workload,
        "variant": args.variant,
        "seed": args.seed,
        "size": args.size,
        "traced": args.traced,
        "params": params,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "procs_per_s": out["completed"] / (wall_s - setup_s),
        "cpu_s": _cpu_s(),
        "peak_rss_mb": peak_kb / 1024.0,
        "rss_bytes_per_ue": (
            (peak_kb - rss_import_kb) * 1024.0 / n_ue if n_ue else 0.0
        ),
        "layers": None,
    })
    if rec is not None:
        layers = rec.summary()
        layers["point_s"] = rec.durations("experiments", "run_pct_point")
        out["layers"] = layers
        if args.trace_out:
            rec.write_chrome_trace(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
