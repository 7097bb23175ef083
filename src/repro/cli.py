"""Command-line interface: regenerate the paper's figures and ablations.

Usage::

    python -m repro list
    python -m repro figure fig08            # default (benchmark) scale
    python -m repro figure fig18 --full     # paper-scale sweep
    python -m repro figure fig07 --jobs 8   # fan points out over 8 workers
    python -m repro figure fig07 --smoke    # tiny spec (CI smoke runs)
    python -m repro sweep --configs neutrino,existing_epc \\
        --procedure attach --rates 20e3,40e3,60e3 --jobs 4
    python -m repro ablation georep_level
    python -m repro trace --devices 200 --duration 30 out.jsonl
    python -m repro chaos replay schedule.json    # bit-for-bit replay
    python -m repro chaos example schedule.json   # write a sample plan
    python -m repro profile fig08 --top 20        # cProfile a figure run
    python -m repro obs fig07                     # traced run + breakdown
    python -m repro obs fig07 --timeline          # + slowest-procedure trees
    python -m repro orch upgrade-under-commute-wave --shards 4
    python -m repro orch autoscale-under-flash-crowd --compare-baseline

Figure ids follow the paper's numbering (fig03, fig07-fig11, fig13-fig20).

Sweep-backed subcommands (``figure`` on PCT figures, ``sweep``, the
``n_backups`` ablation) accept ``--jobs N`` (worker processes; 0 = one
per core), ``--cache-dir PATH`` (content-addressed result cache,
default ``.repro-cache/``), and ``--no-cache``.  Cached reruns perform
zero simulation work; the footer line reports hits/misses/stale.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional

from .experiments import RunSpec, figures
from .experiments.ablations import (
    ablate_ack_timeout,
    ablate_georep_level,
    ablate_n_backups,
    ablate_serialization_bandwidth,
)
from .experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from .experiments.harness import PCTPoint
from .experiments.parallel import SweepReport, run_sweep
from .experiments.report import format_dict_rows, format_pct_table, format_run_footer
from .scale.scenarios import scenario_names
from .traffic.models import model_names

__all__ = ["main"]


def _reduced_spec(smoke: bool, **overrides) -> RunSpec:
    """The default (benchmark-scale) spec, or the tiny one for CI smoke
    runs: shape only, seconds not minutes."""
    if smoke:
        base = dict(procedures_target=150, min_duration_s=0.02, max_duration_s=0.06)
    else:
        base = dict(procedures_target=600, min_duration_s=0.03, max_duration_s=0.15)
    return RunSpec(**{**base, **overrides})


def _emit(result, title: str) -> None:
    if result and isinstance(result[0], PCTPoint):
        print(format_pct_table(result, title))
    else:
        print(format_dict_rows(result, title))


class _Figure(NamedTuple):
    """One row of the figure (or ablation) table that ``list``,
    ``figure``, ``ablation`` and ``profile`` all read.

    The paper-scale axes and specs are the figure functions' own
    defaults; a row holds only what the other scales change.
    """

    title: str
    fn: Callable
    #: keyword overrides at the default (benchmark) scale, under
    #: ``--smoke`` (on top of the chosen scale) and at ``--full`` scale
    quick: Mapping[str, Any] = {}
    smoke: Mapping[str, Any] = {}
    full: Mapping[str, Any] = {}
    #: procedure of the reduced RunSpec the default and smoke scales use
    procedure: Optional[str] = None

    @property
    def params(self) -> Mapping[str, inspect.Parameter]:
        return inspect.signature(self.fn).parameters


_FIGURES: Dict[str, _Figure] = {
    "fig03": _Figure(
        "Fig. 3", figures.fig03_plt_and_video,
        quick=dict(rates=(180e3, 240e3, 300e3)),
    ),
    "fig07": _Figure(
        "Fig. 7 — service request PCT (median ms)", figures.fig07_service_request,
        quick=dict(rates=(100e3, 140e3, 180e3, 220e3)), procedure="service_request",
    ),
    "fig08": _Figure(
        "Fig. 8 — attach PCT (median ms)", figures.fig08_attach_uniform,
        quick=dict(rates=(40e3, 60e3, 80e3, 100e3, 120e3, 140e3)), procedure="attach",
    ),
    "fig09": _Figure(
        "Fig. 9 — bursty attach PCT", figures.fig09_attach_bursty,
        quick=dict(users=(10e3, 100e3, 500e3, 2e6)), smoke=dict(users=(10e3, 100e3)),
    ),
    "fig10": _Figure(
        "Fig. 10 — handover PCT under failure", figures.fig10_failure_handover,
        quick=dict(rates=(40e3, 60e3, 100e3)),
    ),
    "fig11": _Figure(
        "Fig. 11 — fast handover PCT", figures.fig11_fast_handover,
        quick=dict(rates=(40e3, 60e3, 100e3)),
    ),
    "fig13": _Figure(
        "Fig. 13 — self-driving missed deadlines", figures.fig13_self_driving
    ),
    "fig14": _Figure("Fig. 14 — VR missed deadlines", figures.fig14_vr),
    "fig15": _Figure(
        "Fig. 15 — sync schemes", figures.fig15_sync_schemes,
        quick=dict(rates=(20e3, 60e3, 100e3)), procedure="attach",
    ),
    "fig16": _Figure(
        "Fig. 16 — logging overhead", figures.fig16_logging_overhead,
        quick=dict(rates=(20e3, 60e3, 100e3)), procedure="attach",
    ),
    "fig17": _Figure(
        "Fig. 17 — max CTA log size", figures.fig17_log_size,
        smoke=dict(users=(10e3, 50e3)),
    ),
    "fig18": _Figure(
        "Fig. 18 — codec speedup vs ASN.1", figures.fig18_codec_speedup,
        full=dict(measured_repeats=200),
    ),
    "fig19": _Figure(
        "Fig. 19 — real message times (µs)", figures.fig19_real_message_times,
        full=dict(measured_repeats=200),
    ),
    "fig20": _Figure("Fig. 20 — encoded sizes (bytes)", figures.fig20_encoded_sizes),
}


def _run_figure(row: _Figure, full: bool, jobs: int = 1, cache=None, smoke: bool = False) -> None:
    params = row.params
    kwargs = dict(row.full if full else row.quick)
    if smoke:
        kwargs.update(row.smoke)
        if "rates" in params:  # every other rate of the chosen axis
            kwargs["rates"] = kwargs.get("rates", params["rates"].default)[::2]
    if row.procedure is not None and (smoke or not full):
        kwargs["spec"] = _reduced_spec(smoke, procedure=row.procedure)
    if "jobs" in params:  # points run through the parallel/cached sweep runner
        kwargs.update(jobs=jobs, cache=cache)
    _emit(row.fn(**kwargs), row.title)


#: only sweep-backed ablations honour --jobs / the cache (the rest drive
#: one deployment directly).
_ABLATIONS: Dict[str, _Figure] = {
    name: _Figure("Ablation — %s" % name, fn)
    for name, fn in (
        ("n_backups", ablate_n_backups),
        ("georep_level", ablate_georep_level),
        ("ack_timeout", ablate_ack_timeout),
        ("serialization_bandwidth", ablate_serialization_bandwidth),
    )
}

#: presets selectable by name in ``python -m repro sweep --configs``.
_SWEEP_CONFIGS = ("neutrino", "existing_epc", "skycore", "dpcm")

#: ``python -m repro obs`` figure points: one representative rate per
#: PCT figure, run per-scheme with tracing on.  Cases are
#: (label, config factory kwargs tuple, procedure, spec overrides).
_OBS_FIGURES: Dict[str, dict] = {
    "fig07": dict(
        rate=140e3,
        cases=[
            (label, (label, {}), "service_request", {})
            for label in ("existing_epc", "dpcm", "skycore", "neutrino")
        ],
    ),
    "fig08": dict(
        rate=80e3,
        cases=[
            (label, (label, {}), "attach", {})
            for label in ("existing_epc", "neutrino")
        ],
    ),
    "fig10": dict(
        rate=60e3,
        cases=[
            (
                label,
                (label, {}),
                "handover",
                dict(
                    cpfs_per_region=2,
                    failure_cpf_index=0,
                    failure_at_frac=0.5,
                    first_region_only=True,
                ),
            )
            for label in ("existing_epc", "neutrino")
        ],
    ),
    "fig11": dict(
        rate=60e3,
        cases=[
            (
                "existing_epc", ("existing_epc", {}), "handover",
                dict(first_region_only=True),
            ),
            (
                "neutrino_default",
                ("neutrino", dict(name="neutrino_default", proactive_georep=False)),
                "handover",
                dict(first_region_only=True),
            ),
            (
                "neutrino_proactive",
                ("neutrino", dict(name="neutrino_proactive")),
                "fast_handover",
                dict(first_region_only=True),
            ),
        ],
    ),
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Neutrino reproduction: regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command")

    list_parser = sub.add_parser("list", help="list available figures and ablations")
    list_parser.set_defaults(func=_run_list)

    def add_runner_flags(p):
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for sweep points (0 = one per core)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="always re-simulate, never read or write the result cache",
        )
        p.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="PATH",
            help="result cache directory (default: %(default)s)",
        )

    fig_parser = sub.add_parser("figure", help="regenerate one figure")
    fig_parser.add_argument("id", choices=list(_FIGURES))
    fig_parser.add_argument(
        "--full", action="store_true", help="paper-scale sweep (slower)"
    )
    fig_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny reduced spec (CI smoke; overrides --full)",
    )
    add_runner_flags(fig_parser)
    fig_parser.set_defaults(func=_run_figure_command, table=_FIGURES)

    abl_parser = sub.add_parser("ablation", help="run one extra ablation")
    abl_parser.add_argument("id", choices=sorted(_ABLATIONS))
    add_runner_flags(abl_parser)
    abl_parser.set_defaults(
        func=_run_figure_command, table=_ABLATIONS, full=False, smoke=False
    )

    sweep_parser = sub.add_parser(
        "sweep", help="ad-hoc custom sweep over configs x rates"
    )
    sweep_parser.add_argument(
        "--configs", default="neutrino,existing_epc", metavar="A,B",
        help="comma-separated presets from: %s" % ",".join(_SWEEP_CONFIGS),
    )
    sweep_parser.add_argument(
        "--procedure", default="attach",
        help="procedure to sweep (attach, service_request, handover, ...)",
    )
    sweep_parser.add_argument(
        "--rates", default="20e3,40e3,60e3,80e3", metavar="R1,R2",
        help="comma-separated system-wide procedures/s (paper axis)",
    )
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument(
        "--procedures-target", type=int, default=600, metavar="N",
        help="procedures per measurement point",
    )
    sweep_parser.add_argument("--regions", type=int, default=2)
    sweep_parser.add_argument("--cpfs-per-region", type=int, default=1)
    add_runner_flags(sweep_parser)
    sweep_parser.set_defaults(func=_run_sweep_command)

    prof_parser = sub.add_parser(
        "profile",
        help="run one figure under cProfile and report the top-N hot functions",
        description=(
            "Profile a figure regeneration. The run is always serial and "
            "uncached: cProfile cannot see into worker processes, and a "
            "cache hit would profile zero simulation work."
        ),
    )
    prof_parser.add_argument("id", choices=list(_FIGURES))
    prof_parser.set_defaults(func=_run_profile)
    prof_parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="how many functions to report (default: %(default)s)",
    )
    prof_parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key (default: %(default)s)",
    )
    prof_parser.add_argument(
        "--full", action="store_true", help="paper-scale sweep (slower)"
    )
    prof_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny reduced spec (fast profile; overrides --full)",
    )
    prof_parser.add_argument(
        "--output", metavar="FILE",
        help="also dump raw pstats data to FILE (for snakeviz etc.)",
    )

    obs_parser = sub.add_parser(
        "obs",
        help="run one traced figure point; export Perfetto JSON + breakdown",
        description=(
            "Run one representative measurement point per scheme of a PCT "
            "figure with tracing enabled, write a Chrome/Perfetto "
            "trace_event JSON per scheme plus a merged metrics snapshot, "
            "and print the per-phase latency breakdown."
        ),
    )
    obs_parser.add_argument("id", choices=sorted(_OBS_FIGURES))
    obs_parser.set_defaults(func=_run_obs)
    obs_parser.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="override the point's system-wide procedures/s",
    )
    obs_parser.add_argument(
        "--out", default="obs-out", metavar="DIR",
        help="output directory for trace/metrics files (default: %(default)s)",
    )
    obs_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny reduced spec (CI smoke runs)",
    )
    obs_parser.add_argument(
        "--timeline", action="store_true",
        help="also print the slowest procedures' span trees",
    )

    def add_scale_flags(p, seeds=True):
        p.add_argument("scenario", choices=scenario_names())
        p.add_argument(
            "--n-ue", type=int, default=None, metavar="N",
            help="population size (default: the scenario's, typically 20000)",
        )
        p.add_argument(
            "--duration", type=float, default=None, metavar="SECONDS",
            help="simulated duration (fault/churn phases scale with it)",
        )
        p.add_argument("--seed", type=int, default=None)
        if seeds:
            p.add_argument(
                "--seeds", default=None, metavar="S1,S2",
                help="replicate sweep over comma-separated seeds "
                "(runs through the parallel runner + result cache)",
            )
        p.add_argument(
            "--mode", choices=["cohort", "individual", "batched"],
            default="cohort",
            help="population model (individual = N persistent UE objects, "
            "the conformance witness; batched = analytic steady-state lane, "
            "same results faster; default: %(default)s)",
        )
        p.add_argument(
            "--shards", default="1", metavar="N|auto",
            help="partition the city by level-2 region across N worker "
            "processes (auto = one per core; default: %(default)s). The "
            "merged run is deterministic for a fixed shard count.",
        )
        p.add_argument(
            "--shard-backend", choices=["auto", "inline", "process"],
            default="auto",
            help="shard execution vehicle: process = one worker per shard, "
            "inline = same engines serially in-process (bit-identical "
            "results; the CI witness path), auto = processes when multiple "
            "cores are available (default: %(default)s)",
        )
        p.add_argument(
            "--obs", nargs="?", const="metrics", default=None,
            choices=["metrics", "trace"],
            help="install observability (bare --obs = bounded metrics mode; "
            "trace mode on sharded runs stitches one Chrome/Perfetto trace "
            "with per-shard process tracks and cross-shard flow events)",
        )
        p.add_argument(
            "--obs-stream", default=None, metavar="FILE|-",
            help="write the epoch-aligned NDJSON heartbeat stream here "
            "('-' = stdout); heartbeats piggyback on the lockstep epoch "
            "messages of sharded runs — zero extra round trips",
        )
        p.add_argument(
            "--span-keep", type=int, default=None, metavar="K",
            help="bounded span retention for --obs trace: keep the slowest "
            "K roots per procedure plus every fault/recovery/migration "
            "tree (default: 32, sharded or not; 0 keeps every span)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="Chrome/Perfetto trace output path for --obs trace "
            "(default: scale-<scenario>.trace.json)",
        )
        p.add_argument(
            "--ledger", default=None, metavar="FILE",
            help="write the structured end-of-run ledger (JSON, schema "
            "repro.run_ledger/v1: config + code fingerprints, per-shard "
            "perf/health, latency quantiles, auditor verdict)",
        )
        p.add_argument(
            "--verbose-trace", action="store_true",
            help="record every message in the event trace (digest witness; "
            "unbounded — small populations only)",
        )
        p.add_argument(
            "--json", action="store_true", help="emit the result as JSON"
        )
        add_runner_flags(p)

    scale_parser = sub.add_parser(
        "scale",
        help="run a city-scale sharded deployment scenario",
        description=(
            "Instantiate a geo-hash-tile city (K CTAs x M level-2 regions), "
            "drive mobility-model traffic over an aggregated-UE cohort, and "
            "report per-region latency percentiles plus the RYW audit. "
            "Scenarios: steady-city, commute-wave, stadium-flash-crowd, "
            "region-failover, ring-churn, plus the measured-model signaling "
            "storms iot-reattach-storm, paging-storm, midnight-tau-spike."
        ),
    )
    add_scale_flags(scale_parser)
    scale_parser.set_defaults(func=_run_scale, policy=None, compare_baseline=False)

    orch_parser = sub.add_parser(
        "orch",
        help="run a scale scenario under the closed-loop controller",
        description=(
            "Run a city-scale scenario with the repro.orch closed-loop "
            "controller driving day-2 operations off the epoch-aligned "
            "heartbeat feed: CPF scale-out/scale-in on queue hysteresis, "
            "rolling CPF upgrades (drain -> migrate state -> replace), and "
            "auto-heal racing the paper's two-level recovery.  The policy "
            "comes from --policy (JSON, inline or a file) or the "
            "scenario's built-in one (upgrade-under-commute-wave, "
            "autoscale-under-flash-crowd).  The exit code is still the "
            "auditor verdict — orchestration never trades consistency "
            "for capacity — and every run is bit-reproducible for a "
            "fixed (policy, seed, shard count)."
        ),
    )
    add_scale_flags(orch_parser, seeds=False)
    orch_parser.add_argument(
        "--policy", default=None, metavar="FILE|JSON",
        help="orchestration policy (repro.orch.OrchPolicy DSL): a JSON "
        "object inline or a path to a JSON file; default: the "
        "scenario's built-in policy",
    )
    orch_parser.add_argument(
        "--compare-baseline", action="store_true",
        help="also run the identical scenario with the controller off "
        "(fixed capacity) and record both worst-region attach p99s, "
        "plus the verdict, under the ledger's orch.compare section",
    )
    orch_parser.set_defaults(func=_run_orch, seeds=None)

    cal_parser = sub.add_parser(
        "calibrate",
        help="statistically calibrate a measured traffic model",
        description=(
            "Replay a traffic model's generators on a pinned seed and run "
            "every goodness-of-fit check its claims admit (KS on "
            "inter-arrivals per device class and procedure, diurnal "
            "rate-envelope checks, storm size/intensity/shape). Exit 0 iff "
            "every check passes — the same suite CI runs in "
            "tests/traffic/test_calibration.py."
        ),
    )
    cal_parser.add_argument("model", choices=model_names())
    cal_parser.set_defaults(func=_run_calibrate)
    cal_parser.add_argument(
        "--n-ue", type=int, default=20000, metavar="N",
        help="population the aggregate processes scale to (default: %(default)s)",
    )
    cal_parser.add_argument(
        "--duration", type=float, default=600.0, metavar="SECONDS",
        help="emitted stream length (default: %(default)s)",
    )
    cal_parser.add_argument("--seed", type=int, default=1)
    cal_parser.add_argument(
        "--rate-scale", type=float, default=1.0, metavar="X",
        help="rate multiplier, as ScenarioSpec.traffic_rate_scale",
    )
    cal_parser.add_argument(
        "--alpha", type=float, default=None, metavar="P",
        help="significance level (default: calibration.DEFAULT_ALPHA)",
    )

    trace_parser = sub.add_parser("trace", help="generate a synthetic trace")
    trace_parser.add_argument("output")
    trace_parser.set_defaults(func=_run_trace)
    trace_parser.add_argument("--devices", type=int, default=100)
    trace_parser.add_argument("--duration", type=float, default=60.0)
    trace_parser.add_argument("--seed", type=int, default=0)

    chaos_parser = sub.add_parser(
        "chaos", help="deterministic fault-injection schedules"
    )
    chaos_parser.set_defaults(func=_run_chaos)
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command")
    replay_parser = chaos_sub.add_parser(
        "replay", help="run a saved FaultPlan twice and verify bit-for-bit replay"
    )
    replay_parser.add_argument("plan", help="FaultPlan JSON file")
    replay_parser.add_argument(
        "--runs", type=int, default=2, help="replay count (default 2)"
    )
    replay_parser.add_argument(
        "--show-trace", action="store_true", help="print the recorded event trace"
    )
    replay_parser.add_argument(
        "--obs", action="store_true",
        help="run with tracing installed so violations carry span ids "
        "(the digest check proves tracing changed nothing)",
    )
    example_parser = chaos_sub.add_parser(
        "example", help="write a sample chaos FaultPlan to a JSON file"
    )
    example_parser.add_argument("output")
    example_parser.add_argument("--seed", type=int, default=7)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    return args.func(args)


def _run_list(args) -> int:
    print("figures  :", " ".join(_FIGURES))
    print("ablations:", " ".join(sorted(_ABLATIONS)))
    print("sweep    : custom config x rate sweeps (see sweep --help)")
    print("scenarios:", " ".join(scenario_names()))
    print("models   :", " ".join(model_names()))
    return 0


def _run_figure_command(args) -> int:
    """``figure`` and ``ablation``: one row of ``args.table``."""
    row = args.table[args.id]
    cache = _make_cache(args) if "cache" in row.params else None
    _run_figure(row, args.full, jobs=args.jobs, cache=cache, smoke=args.smoke)
    if cache is not None:
        print(format_run_footer(cache=cache))
    return 0


def _run_trace(args) -> int:
    from .traffic import TraceConfig, generate_trace, save_trace

    config = TraceConfig(
        n_devices=args.devices, duration_s=args.duration, seed=args.seed
    )
    records = generate_trace(config)
    with open(args.output, "w") as fp:
        count = save_trace(records, fp)
    print("wrote %d records to %s" % (count, args.output))
    return 0


def _make_cache(args):
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _run_calibrate(args) -> int:
    from .traffic.calibration import DEFAULT_ALPHA, calibrate_model
    from .traffic.models import get_model

    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    report = calibrate_model(
        get_model(args.model),
        n_ue=args.n_ue,
        duration_s=args.duration,
        seed=args.seed,
        alpha=alpha,
        rate_scale=args.rate_scale,
    )
    print(report.format_report())
    return 0 if report.ok else 1


def _run_orch(args) -> int:
    """``python -m repro orch``: a scale run under the closed-loop
    controller.  Resolves the policy (--policy JSON/file or the
    scenario's built-in one), validates it eagerly for a readable
    error, then delegates to the scale runner with the spec override —
    the exit code stays the auditor verdict."""
    from .orch import OrchPolicy
    from .scale.scenarios import get_scenario

    spec = get_scenario(args.scenario)
    policy_data = spec.orch_policy
    if args.policy:
        text = args.policy
        if os.path.exists(text):
            with open(text) as fp:
                text = fp.read()
        try:
            policy_data = json.loads(text)
        except ValueError as err:
            print(
                "error: --policy is neither a file nor valid JSON: %s"
                % err, file=sys.stderr,
            )
            return 2
    if policy_data is None:
        print(
            "error: scenario %r has no built-in orchestration policy; "
            "pass one with --policy (JSON object or file)"
            % args.scenario, file=sys.stderr,
        )
        return 2
    try:
        OrchPolicy.from_dict(policy_data)
    except (TypeError, ValueError) as err:
        print("error: bad --policy: %s" % err, file=sys.stderr)
        return 2
    return _run_scale(args, replace(spec, orch_policy=dict(policy_data)))


def _ms_or_na(value: Optional[float]) -> str:
    """A latency cell; a tiny run may have recorded no sample for it."""
    return "n/a" if value is None else "%.3fms" % value


def _run_scale(args, spec=None) -> int:
    """``python -m repro scale``; ``spec`` is ``orch``'s policy-carrying
    override of the named scenario."""
    from .scale import ScaleResult, run_replicates, run_scenario

    if args.shards == "auto":
        shards = 0  # run_sharded resolves to one per core
    else:
        try:
            shards = int(args.shards)
        except ValueError:
            print(
                "error: --shards takes an integer or 'auto', got %r"
                % args.shards, file=sys.stderr,
            )
            return 2
    if shards != 1:
        # reject combinations the sharded coordinator cannot honour,
        # loudly, before any simulation work starts
        if args.seeds:
            print(
                "error: --shards and --seeds are incompatible (the "
                "replicate sweep parallelises over seeds; run one seed "
                "per invocation when sharding)", file=sys.stderr,
            )
            return 2
        if args.mode == "individual":
            print(
                "error: --shards requires --mode cohort or batched "
                "(the individual conformance driver is single-process "
                "by design)", file=sys.stderr,
            )
            return 2
    if args.seeds and (args.obs_stream or args.ledger or args.trace_out):
        print(
            "error: --obs-stream/--ledger/--trace-out describe one run; "
            "they are incompatible with the --seeds replicate sweep",
            file=sys.stderr,
        )
        return 2

    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir, decode=ScaleResult.from_dict)
        report = SweepReport()
        results = run_replicates(
            args.scenario,
            seeds,
            n_ue=args.n_ue,
            duration_s=args.duration,
            mode=args.mode,
            jobs=args.jobs,
            cache=cache,
            report=report,
        )
        if args.json:
            print(json.dumps(
                [r.to_dict() for r in results], indent=2, sort_keys=True
            ))
        else:
            for result in results:
                print(result.format_report())
                print()
        violations = sum(r.violations for r in results)
        print(
            "replicates=%d violations=%d digests=%s"
            % (len(results), violations, ",".join(r.digest for r in results))
        )
        print(format_run_footer(report=report, cache=cache))
        return 0 if violations == 0 else 1

    obs = None
    if args.obs is not None:
        from .obs import Observability

        obs = Observability(args.obs, span_keep=args.span_keep)
    stream = closer = None
    if args.obs_stream:
        from .obs.stream import open_stream

        stream, closer = open_stream(args.obs_stream)
    run_kwargs = dict(
        n_ue=args.n_ue,
        duration_s=args.duration,
        seed=args.seed,
        mode=args.mode,
        shards=shards,
        shard_backend=args.shard_backend,
    )
    try:
        result = run_scenario(
            args.scenario if spec is None else spec,
            obs=obs,
            stream=stream,
            verbose_trace=args.verbose_trace,
            **run_kwargs,
        )
    except ValueError as err:
        # e.g. more shards than level-2 regions
        print("error: %s" % err, file=sys.stderr)
        return 2
    finally:
        if closer is not None:
            closer.close()

    if args.compare_baseline:
        # same scenario, controller off: the fixed-capacity control run
        # whose worst-region attach p99 the orchestrated one must beat
        # (an ``orch``-only flag, so ``spec`` is set)
        from .orch import orch_compare

        baseline = run_scenario(replace(spec, orch_policy=None), **run_kwargs)
        result.orch_compare = orch_compare(result, baseline)

    trace_path = None
    flow_events = None
    if args.obs == "trace":
        from .obs.export import (
            chrome_trace_events,
            stitch_chrome_trace,
            validate_chrome_trace,
        )

        trace_path = args.trace_out or "scale-%s.trace.json" % args.scenario
        obs_shards = getattr(result, "obs_shards", None)
        if obs_shards is not None:
            data = stitch_chrome_trace(obs_shards)
            flow_events = data["metadata"]["flow_events"]
        else:
            data = chrome_trace_events(obs.tracer)
        validate_chrome_trace(data)
        with open(trace_path, "w") as fp:
            json.dump(data, fp)
            fp.write("\n")
    if args.ledger:
        from .obs.ledger import write_run_ledger

        write_run_ledger(
            args.ledger,
            result,
            argv=sys.argv[1:],
            stream_path=args.obs_stream,
            trace_path=trace_path,
        )

    if args.json:
        payload = result.to_dict()
        for attr in ("orch_policy", "orch_log", "orch_summary",
                     "orch_compare"):
            value = getattr(result, attr, None)
            if value is not None:
                payload[attr] = value
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.format_report())
        orch_summary = getattr(result, "orch_summary", None)
        if orch_summary is not None:
            kinds = orch_summary.get("by_kind", {})
            print(
                "orch: ticks=%d actions=%d%s heartbeats=%d"
                % (
                    orch_summary.get("ticks", 0),
                    orch_summary.get("actions", 0),
                    " (%s)" % ", ".join(
                        "%s=%d" % (k, v) for k, v in sorted(kinds.items())
                    ) if kinds else "",
                    orch_summary.get("heartbeats_seen", 0),
                )
            )
        compare = getattr(result, "orch_compare", None)
        if compare is not None:
            print(
                "orch-compare: attach p99 worst-region %s orchestrated "
                "vs %s fixed-capacity -> %s (baseline violations=%d)"
                % (
                    _ms_or_na(compare["orch_attach_p99_ms"]),
                    _ms_or_na(compare["baseline_attach_p99_ms"]),
                    "improved" if compare["improved"] else "NOT improved",
                    compare["baseline_violations"],
                )
            )
    snapshot = getattr(result, "obs_snapshot", None)
    if snapshot is None and obs is not None and obs.metrics is not None:
        snapshot = obs.snapshot()
    if snapshot is not None:
        counters = (snapshot.get("metrics") or {}).get("counters", [])
        hop_messages = sum(
            c["value"] for c in counters if c["name"] == "hop_messages"
        )
        print(
            "obs: spans=%s/%s hop_messages=%d (mode=%s)"
            % (
                snapshot["spans_started"],
                snapshot["spans_finished"],
                hop_messages,
                args.obs,
            )
        )
    if trace_path is not None:
        line = "trace: wrote %s" % trace_path
        if flow_events is not None:
            line += " (%d shard tracks, %d cross-shard flow events)" % (
                result.n_shards, flow_events,
            )
        print(line)
    if args.ledger:
        print("ledger: wrote %s" % args.ledger)
    # the exit code is the merged auditor verdict across every shard
    return 0 if result.violations == 0 else 1


def _run_profile(args) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_figure(_FIGURES[args.id], args.full, smoke=args.smoke)
    finally:
        profiler.disable()
    if args.output:
        profiler.dump_stats(args.output)
        print("wrote raw profile data to %s" % args.output)
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print()
    print("== %s: top %d functions by %s ==" % (args.id, args.top, args.sort))
    stats.print_stats(args.top)
    return 0


def _run_sweep_command(args) -> int:
    from .core.config import ControlPlaneConfig

    presets = {name: getattr(ControlPlaneConfig, name) for name in _SWEEP_CONFIGS}
    configs = []
    for name in args.configs.split(","):
        name = name.strip()
        if name not in presets:
            print("unknown config %r (choose from: %s)" % (name, ", ".join(_SWEEP_CONFIGS)))
            return 1
        configs.append(presets[name]())
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print("bad --rates %r (want comma-separated numbers, e.g. 20e3,40e3)" % args.rates)
        return 1
    if not rates:
        print("no rates given")
        return 1
    spec = RunSpec(
        procedure=args.procedure,
        seed=args.seed,
        procedures_target=args.procedures_target,
        regions=args.regions,
        cpfs_per_region=args.cpfs_per_region,
    )
    cache = _make_cache(args)
    report = SweepReport()
    grouped = run_sweep(configs, rates, spec, jobs=args.jobs, cache=cache, report=report)
    points = [p for series in grouped.values() for p in series]
    print(format_pct_table(points, "Sweep — %s" % args.procedure))
    print(format_run_footer(report=report, cache=cache))
    return 0


def _run_obs(args) -> int:
    from .core.config import ControlPlaneConfig
    from .experiments.harness import run_pct_point
    from .experiments.report import format_latency_breakdown
    from .obs import Observability
    from .obs.export import (
        timeline_summary,
        validate_chrome_trace,
        write_chrome_trace,
    )

    table = _OBS_FIGURES[args.id]
    rate = args.rate if args.rate is not None else table["rate"]
    os.makedirs(args.out, exist_ok=True)

    labeled = []
    for label, (preset, kwargs), procedure, overrides in table["cases"]:
        config = getattr(ControlPlaneConfig, preset)(**kwargs)
        spec = _reduced_spec(args.smoke, procedure=procedure, **overrides)
        obs = Observability("trace")
        point = run_pct_point(config, rate, spec, obs=obs)
        print(point.row())
        trace_path = os.path.join(args.out, "%s-%s.trace.json" % (args.id, label))
        data = write_chrome_trace(
            trace_path, obs.tracer, process_name="repro %s %s" % (args.id, label)
        )
        n_events = validate_chrome_trace(data)
        print("  trace ok (%d events) -> %s" % (n_events, trace_path))
        if args.timeline:
            print(timeline_summary(obs.tracer, limit=2))
        labeled.append((label, obs.snapshot()))

    metrics_path = os.path.join(args.out, "%s-metrics.json" % args.id)
    with open(metrics_path, "w") as fp:
        json.dump({label: snap for label, snap in labeled}, fp, indent=1)
        fp.write("\n")
    print("metrics snapshot -> %s" % metrics_path)
    print()
    print(
        format_latency_breakdown(
            labeled, title="Latency breakdown — %s @ %.0f procedures/s" % (args.id, rate)
        )
    )
    return 0


def _run_chaos(args) -> int:
    from .faults import FaultPlan, replay

    if args.chaos_command == "example":
        plan = FaultPlan(seed=args.seed, note="sample chaos schedule")
        plan.perturb("cta_cpf", drop_p=0.1, dup_p=0.05, reorder_p=0.1)
        plan.step("proc", proc="service_request")
        plan.step("fail_cpf", "cpf-20-0")
        plan.step("proc", proc="service_request")
        plan.step("wait", dt=0.01)
        plan.step("recover_cpf", "cpf-20-0")
        plan.step("proc", proc="handover")
        plan.save(args.output)
        print("wrote sample FaultPlan to %s" % args.output)
        return 0
    if args.chaos_command == "replay":
        plan = FaultPlan.load(args.plan)
        report = replay(plan, runs=args.runs, obs_mode="trace" if args.obs else None)
        result = report.results[0]
        for i, digest in enumerate(report.digests):
            print("run %d: digest=%s" % (i + 1, digest))
        print(result.brief())
        if result.violations:
            print("READ-YOUR-WRITES VIOLATIONS:")
            for violation in result.violations:
                print("  %r" % (violation,))
                if violation.span_id is not None:
                    print(
                        "    span: trace_id=%d span_id=%d (searchable in the "
                        "exported Perfetto trace)"
                        % (violation.trace_id, violation.span_id)
                    )
                for event in violation.trace:
                    print("    %r" % (event,))
        if args.show_trace:
            for line in result.trace.lines():
                print("  " + line)
        if not report.deterministic:
            print("NOT DETERMINISTIC: trace digests differ across runs")
            return 1
        print("deterministic: %d/%d runs produced identical traces" % (args.runs, args.runs))
        return 0 if result.ok else 1
    print("usage: python -m repro chaos {replay,example} ...")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
