"""Per-figure reproduction definitions.

One function per evaluation figure of the paper.  Each returns
structured rows (and can print them via :mod:`.report`); the benchmark
files under ``benchmarks/`` are thin wrappers that execute these at
reduced scale, and EXPERIMENTS.md records full-scale outputs.

Figure index (see DESIGN.md §3 for the full mapping):

* fig03 — page load time & video startup vs load, ASN.1 vs Neutrino.
* fig07 — service request PCT: EPC / DPCM / SkyCore / Neutrino.
* fig08 — attach PCT, uniform traffic: EPC vs Neutrino.
* fig09 — attach PCT, bursty IoT traffic.
* fig10 — handover PCT under CPF failure.
* fig11 — Fast Handover: EPC / Neutrino-Default / Neutrino-Proactive.
* fig13 — self-driving-car missed deadlines.
* fig14 — VR missed deadlines.
* fig15 — state-synchronization factor analysis.
* fig16 — message-logging overhead.
* fig17 — CTA max log size vs active users.
* fig18 — codec encode+decode speedup vs #elements (custom message).
* fig19 — encode+decode time on real S1 messages.
* fig20 — encoded sizes on real S1 messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..codec.base import UnsupportedSchema, get_codec
from ..codec.costs import CostModel, measure_interleaved
from ..codec.schema import (
    ArrayType,
    BytesType,
    Field,
    IntType,
    StringType,
    TableType,
)
from ..core.config import ControlPlaneConfig
from ..messages.registry import CATALOG
from .harness import (
    PCTPoint,
    RunSpec,
    estimated_utilization,
    overload_pct_at_horizon,
)
from .parallel import SweepJob, run_jobs

__all__ = [
    "fig03_plt_and_video",
    "fig07_service_request",
    "fig08_attach_uniform",
    "fig09_attach_bursty",
    "fig10_failure_handover",
    "fig11_fast_handover",
    "fig13_self_driving",
    "fig14_vr",
    "fig15_sync_schemes",
    "fig16_logging_overhead",
    "fig17_log_size",
    "fig18_codec_speedup",
    "fig19_real_message_times",
    "fig20_encoded_sizes",
    "custom_message",
]

# ---------------------------------------------------------------------------
# PCT figures
# ---------------------------------------------------------------------------

DEFAULT_FIG07_RATES = (100e3, 120e3, 140e3, 160e3, 180e3, 200e3, 220e3)
DEFAULT_FIG08_RATES = (40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3)


def fig07_service_request(
    rates: Sequence[float] = DEFAULT_FIG07_RATES,
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """Service request PCT for all four designs (paper Fig. 7)."""
    spec = spec or RunSpec(procedure="service_request")
    configs = [
        ControlPlaneConfig.existing_epc(),
        ControlPlaneConfig.dpcm(),
        ControlPlaneConfig.skycore(),
        ControlPlaneConfig.neutrino(),
    ]
    return run_jobs(
        [SweepJob(c, r, spec) for c in configs for r in rates],
        jobs=jobs,
        cache=cache,
    )


def fig08_attach_uniform(
    rates: Sequence[float] = DEFAULT_FIG08_RATES,
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """Attach PCT, uniform traffic: EPC vs Neutrino (paper Fig. 8)."""
    spec = spec or RunSpec(procedure="attach")
    configs = [ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()]
    return run_jobs(
        [SweepJob(c, r, spec) for c in configs for r in rates],
        jobs=jobs,
        cache=cache,
    )


#: paper Fig. 9 x-axis (total active users bursting); we simulate a
#: documented 1/50 slice of each burst.
DEFAULT_FIG09_USERS = (10e3, 50e3, 100e3, 500e3, 1e6, 2e6)
FIG09_BURST_SLICE = 1.0 / 50.0


def fig09_attach_bursty(
    users: Sequence[float] = DEFAULT_FIG09_USERS,
    burst_slice: float = FIG09_BURST_SLICE,
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """Attach PCT under synchronized IoT bursts (paper Fig. 9)."""
    configs = [ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()]
    sweep_jobs = []
    axes = []
    for config in configs:
        for n in users:
            sim_users = max(64, int(n * burst_slice))
            run = spec or RunSpec(procedure="attach")
            run = RunSpec(
                **{
                    **run.__dict__,
                    "bursty_users": sim_users,
                    "burst_window_s": 0.02,
                    "drain_s": 30.0,
                    "warmup_frac": 0.0,
                }
            )
            sweep_jobs.append(SweepJob(config, 1.0, run))
            axes.append(n)
    points = run_jobs(sweep_jobs, jobs=jobs, cache=cache)
    for point, n in zip(points, axes):
        point.axis_rate = n  # report the paper's axis, not the slice
    return points


def fig10_failure_handover(
    rates: Sequence[float] = (40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3),
    spec: Optional[RunSpec] = None,
    fault_plan=None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """Handover PCT under a CPF failure (paper Fig. 10).

    A 2x2 grid (two CPFs per region) so that backups survive the kill;
    the PCT distribution reported is over procedures that experienced
    the failure (``recovered``), matching the paper's accounting.

    The kill is injected through :mod:`repro.faults`; pass a
    :class:`~repro.faults.FaultPlan` as ``fault_plan`` to overlay
    message-level chaos (seeded drop/dup/reorder on any hop) on the
    same sweep.  Every point's ``violations`` field carries the
    always-on Read-your-Writes audit — zero for Neutrino by design.
    """
    spec = spec or RunSpec(
        procedure="handover",
        cpfs_per_region=2,
        failure_cpf_index=0,
        failure_at_frac=0.5,
        first_region_only=True,
    )
    if fault_plan is not None:
        spec = RunSpec(**{**spec.__dict__, "fault_plan": fault_plan})
    configs = [ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()]
    return run_jobs(
        [SweepJob(c, r, spec) for c in configs for r in rates],
        jobs=jobs,
        cache=cache,
    )


def fig11_fast_handover(
    rates: Sequence[float] = (40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3),
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """EPC vs Neutrino-Default vs Neutrino-Proactive (paper Fig. 11)."""
    cases = [
        (ControlPlaneConfig.existing_epc(), "handover"),
        (
            ControlPlaneConfig.neutrino(
                name="neutrino_default", proactive_georep=False
            ),
            "handover",
        ),
        (ControlPlaneConfig.neutrino(name="neutrino_proactive"), "fast_handover"),
    ]
    sweep_jobs = []
    for config, procedure in cases:
        for rate in rates:
            run = spec or RunSpec()
            run = RunSpec(
                **{
                    **run.__dict__,
                    "procedure": procedure,
                    "first_region_only": True,
                }
            )
            sweep_jobs.append(SweepJob(config, rate, run))
    return run_jobs(sweep_jobs, jobs=jobs, cache=cache)


# ---------------------------------------------------------------------------
# Application figures
# ---------------------------------------------------------------------------


def fig03_plt_and_video(
    rates: Sequence[float] = (180e3, 200e3, 220e3, 240e3, 260e3, 280e3, 300e3),
    video_spec=None,
    web_spec=None,
) -> List[Dict[str, Any]]:
    """Page load time & video startup, ASN.1 vs faster serialization."""
    # imported lazily: repro.apps imports this package's harness
    from ..apps.video import run_video_startup
    from ..apps.web import run_page_load

    rows = []
    for config in (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()):
        for rate in rates:
            video = run_video_startup(config, rate, video_spec)
            web = run_page_load(config, rate, web_spec)
            # The paper ran 60 s: in overload the queue (and thus the
            # startup delay) keeps growing for the whole run.  Our runs
            # are shorter, so extrapolate the overload delay to the
            # paper's horizon with the fluid limit (DESIGN.md §4).
            rho = estimated_utilization(config, "service_request", rate)
            extrapolated = overload_pct_at_horizon(rho, 60.0)
            sr_60s = max(video.sr_pct_p50_ms / 1e3, extrapolated)
            player = video.startup_p50_s - video.sr_pct_p50_ms / 1e3
            page = web.plt_p50_s - web.sr_pct_p50_ms / 1e3
            rows.append(
                {
                    "scheme": config.name,
                    "rate": rate,
                    "video_startup_p50_s": video.startup_p50_s,
                    "plt_p50_s": web.plt_p50_s,
                    "sr_pct_p50_ms": video.sr_pct_p50_ms,
                    "est_rho": rho,
                    "est_video_startup_60s_s": player + sr_60s,
                    "est_plt_60s_s": page + sr_60s,
                }
            )
    return rows


def fig13_self_driving(
    users: Sequence[float] = (50e3, 100e3, 200e3, 500e3),
    handovers: Tuple[int, int] = (1, 4),
    **spec_overrides,
) -> List[Dict[str, Any]]:
    """Missed self-driving-car deadlines, single & multiple HO."""
    from ..apps.selfdriving import run_self_driving, self_driving_spec

    rows = []
    for config in (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()):
        for n_ho, label in zip(handovers, ("single_ho", "multiple_ho")):
            for n_users in users:
                result = run_self_driving(
                    config,
                    n_users,
                    spec=self_driving_spec(handovers=n_ho, **spec_overrides),
                )
                rows.append(
                    {
                        "scheme": config.name,
                        "scenario": label,
                        "active_users": n_users,
                        "missed": result.missed,
                        "total": result.total,
                        "stall_s": result.stall_time_s,
                    }
                )
    return rows


def fig14_vr(
    users: Sequence[float] = (10e3, 50e3, 100e3, 200e3, 500e3),
    handovers: Tuple[int, int] = (1, 4),
    **spec_overrides,
) -> List[Dict[str, Any]]:
    """Missed VR frame deadlines, single & multiple HO."""
    from ..apps.vr import run_vr, vr_spec

    rows = []
    for config in (ControlPlaneConfig.existing_epc(), ControlPlaneConfig.neutrino()):
        for n_ho, label in zip(handovers, ("single_ho", "multiple_ho")):
            for n_users in users:
                result = run_vr(
                    config, n_users, spec=vr_spec(handovers=n_ho, **spec_overrides)
                )
                rows.append(
                    {
                        "scheme": config.name,
                        "scenario": label,
                        "active_users": n_users,
                        "missed": result.missed,
                        "total": result.total,
                        "stall_s": result.stall_time_s,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Factor analysis (Figs. 15-17)
# ---------------------------------------------------------------------------


def fig15_sync_schemes(
    rates: Sequence[float] = (20e3, 40e3, 60e3, 80e3, 100e3),
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """No-rep vs per-message vs per-procedure sync (paper Fig. 15)."""
    spec = spec or RunSpec(procedure="attach")
    base = ControlPlaneConfig.neutrino
    configs = [
        base(name="no_rep", sync_mode="none", n_backups=0),
        base(name="per_msg_rep", sync_mode="per_message"),
        base(name="per_proc_rep", sync_mode="per_procedure"),
    ]
    return run_jobs(
        [SweepJob(c, r, spec) for c in configs for r in rates],
        jobs=jobs,
        cache=cache,
    )


def fig16_logging_overhead(
    rates: Sequence[float] = (20e3, 40e3, 60e3, 80e3, 100e3, 120e3, 140e3),
    spec: Optional[RunSpec] = None,
    jobs: int = 1,
    cache=None,
) -> List[PCTPoint]:
    """Message logging on vs off (paper Fig. 16)."""
    spec = spec or RunSpec(procedure="attach")
    configs = [
        ControlPlaneConfig.neutrino(name="logging"),
        ControlPlaneConfig.neutrino(
            name="no_logging", message_logging=False, recovery="reattach"
        ),
    ]
    return run_jobs(
        [SweepJob(c, r, spec) for c in configs for r in rates],
        jobs=jobs,
        cache=cache,
    )


#: Fig. 17 slice: fraction of each user population simulated (log size
#: per UE is independent, so the total extrapolates linearly).
FIG17_USER_SLICE = 1.0 / 50.0


def fig17_log_size(
    users: Sequence[float] = (10e3, 50e3, 100e3, 200e3),
    user_slice: float = FIG17_USER_SLICE,
    procedures: Sequence[str] = ("attach", "handover"),
    jobs: int = 1,
    cache=None,
) -> List[Dict[str, Any]]:
    """Max CTA log size vs active users (paper Fig. 17)."""
    sweep_jobs = []
    meta = []
    for procedure in procedures:
        for n_users in users:
            sim_users = max(64, int(n_users * user_slice))
            spec = RunSpec(
                procedure=procedure,
                bursty_users=sim_users,
                burst_window_s=0.05,
                drain_s=30.0,
                warmup_frac=0.0,
                cpfs_per_region=2 if procedure == "handover" else 1,
                first_region_only=(procedure == "handover"),
            )
            sweep_jobs.append(SweepJob(ControlPlaneConfig.neutrino(), 1.0, spec))
            meta.append((procedure, n_users, sim_users))
    points = run_jobs(sweep_jobs, jobs=jobs, cache=cache)
    rows = []
    for point, (procedure, n_users, sim_users) in zip(points, meta):
        scaled = point.max_log_bytes / user_slice
        rows.append(
            {
                "procedure": procedure,
                "active_users": n_users,
                "sim_users": sim_users,
                "max_log_bytes_sim": point.max_log_bytes,
                "max_log_mb_extrapolated": scaled / 1e6,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Serialization figures (18-20)
# ---------------------------------------------------------------------------

#: codecs compared against ASN.1 in Fig. 18 (paper §6.7.4).
FIG18_CODECS = ("cdr", "flatbuffers", "flexbuffers", "lcm", "protobuf")


def custom_message(n_fields: int) -> Tuple[TableType, Dict[str, Any]]:
    """The Fig. 18 custom message with ``n_fields`` information elements.

    Field types cycle through signed ints, strings, and byte blobs —
    all expressible by every codec including LCM (no unions, no
    unsigned), as the paper's custom-message comparison requires.
    """
    if n_fields < 1:
        raise ValueError("need at least one field")
    fields: List[Field] = []
    value: Dict[str, Any] = {}
    for i in range(n_fields):
        kind = i % 3
        name = "f%02d" % i
        if kind == 0:
            fields.append(Field(name, IntType(32, signed=True)))
            value[name] = 1000 + i
        elif kind == 1:
            fields.append(Field(name, StringType(max_len=32)))
            value[name] = "elem-%d" % i
        else:
            fields.append(Field(name, BytesType(max_len=16)))
            value[name] = bytes((i % 250, i % 7, 0x42))
    return TableType("Custom%d" % n_fields, fields), value


def fig18_codec_speedup(
    element_counts: Sequence[int] = (1, 3, 5, 7, 10, 15, 20, 25, 30, 35),
    codecs: Sequence[str] = FIG18_CODECS,
    measured_repeats: int = 0,
) -> List[Dict[str, Any]]:
    """Encode+decode speedup vs ASN.1 per element count (paper Fig. 18).

    The primary series uses the calibrated cost model (what the
    simulator charges); with ``measured_repeats > 0`` a second series
    times the *real* Python codecs in this repository for an ordering
    cross-check.
    """
    cost = CostModel()
    rows = []
    for n in element_counts:
        schema, value = custom_message(n)
        base_modeled = cost.codec_cost("asn1per").total(n)
        measured = {}
        if measured_repeats:
            # ASN.1 and every codec it is compared with, timed together
            names = ["asn1per"] + [
                c for c in codecs if c != "asn1per" and _expresses(c, schema, value)
            ]
            measured = {
                name: enc + dec
                for name, (enc, dec) in measure_interleaved(
                    names, schema, value, measured_repeats
                ).items()
            }
        for codec_name in codecs:
            row = {
                "codec": codec_name,
                "elements": n,
                "speedup_modeled": base_modeled / cost.codec_cost(codec_name).total(n),
            }
            if measured_repeats:
                took = measured.get(codec_name)
                row["speedup_measured"] = (
                    None if took is None else measured["asn1per"] / took
                )
            rows.append(row)
    return rows


def _expresses(codec_name: str, schema, value) -> bool:
    """Whether ``codec_name`` can encode ``schema`` (LCM has no unions)."""
    try:
        get_codec(codec_name).encode(schema, value)
    except UnsupportedSchema:
        return False
    return True


#: the real S1 messages shown in the paper's Figs. 19-20.
FIG19_MESSAGES = (
    "InitialContextSetup",
    "InitialContextSetupResponse",
    "eRABSetupRequest",
    "eRABModifyRequest",
    "InitialUEMessage",
)


def fig19_real_message_times(
    messages: Sequence[str] = FIG19_MESSAGES,
    codecs: Sequence[str] = ("flatbuffers_opt", "flatbuffers", "asn1per"),
    measured_repeats: int = 0,
) -> List[Dict[str, Any]]:
    """Encode+decode times on real S1 messages (paper Fig. 19)."""
    cost = CostModel()
    rows = []
    for msg in messages:
        n = CATALOG.element_count(msg)
        measured = {}
        if measured_repeats:
            measured = measure_interleaved(
                codecs, CATALOG.schema(msg), CATALOG.sample(msg), measured_repeats
            )
        for codec_name in codecs:
            row = {
                "message": msg,
                "codec": codec_name,
                "elements": n,
                "modeled_us": cost.codec_cost(codec_name).total(n) * 1e6,
            }
            if measured_repeats:
                enc, dec = measured[codec_name]
                row["measured_us"] = (enc + dec) * 1e6
            rows.append(row)
    return rows


def fig20_encoded_sizes(
    messages: Sequence[str] = FIG19_MESSAGES,
    codecs: Sequence[str] = ("flatbuffers_opt", "flatbuffers", "asn1per"),
) -> List[Dict[str, Any]]:
    """Encoded message sizes — real bytes from the real codecs (Fig. 20)."""
    rows = []
    for msg in messages:
        for codec_name in codecs:
            rows.append(
                {
                    "message": msg,
                    "codec": codec_name,
                    "bytes": CATALOG.wire_size(msg, codec_name),
                }
            )
    return rows
