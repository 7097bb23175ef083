"""The run ledger: a structured end-of-run report for scale runs.

Every ``python -m repro scale`` invocation can write one JSON document
(``--ledger PATH``) capturing what ran and what it produced: the
config fingerprint (so a ledger can be matched to the exact code +
spec that made it), per-shard perf and health, the per-(region,
procedure) latency quantiles, and the auditor verdict.  The schema is
stable — ``schema`` names it and bumps only on breaking changes — so
downstream tooling (dashboards, the planned ``repro.orch`` controller,
regression diffing across PRs) can parse ledgers from different
versions of the tree.

Volatile fields (timestamps, wall-clock, RSS) live under ``perf`` and
``written_at``; everything else is deterministic for a fixed spec and
shard count, exactly like the merged trace digest recorded alongside.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = [
    "LEDGER_SCHEMA",
    "build_run_ledger",
    "code_fingerprint",
    "write_run_ledger",
]

#: bump only on breaking layout changes.
LEDGER_SCHEMA = "repro.run_ledger/v1"

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` file under ``src/repro`` (cached per process).

    A ledger records it, and the result cache stamps every entry with
    it: any source change — simulator, codecs, harness — invalidates
    every cached point, since re-validating stale entries would require
    knowing which module can influence which figure, and being wrong
    silently corrupts a reproduction.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        pkg_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _config_fingerprint(config: Dict[str, Any]) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_run_ledger(
    result,
    argv: Optional[list] = None,
    stream_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the ledger dict from a :class:`ScaleResult`."""
    config = {
        "scenario": result.scenario,
        "mode": result.mode,
        "n_ue": result.n_ue,
        "duration_s": result.duration_s,
        "seed": result.seed,
        "n_shards": result.n_shards,
    }
    try:
        code_fp = code_fingerprint()
    except Exception:  # pragma: no cover - fingerprint walk must not wedge
        code_fp = ""
    obs_snapshot = getattr(result, "obs_snapshot", None)
    obs_summary = None
    if obs_snapshot is not None:
        obs_summary = {
            "mode": obs_snapshot.get("mode"),
            "spans_started": obs_snapshot.get("spans_started", 0),
            "spans_finished": obs_snapshot.get("spans_finished", 0),
            "retention": obs_snapshot.get("retention"),
        }
    ledger = {
        "schema": LEDGER_SCHEMA,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config,
        "config_fingerprint": _config_fingerprint(config),
        "code_fingerprint": code_fp,
        "auditor": {
            "serves": result.serves,
            "writes": result.writes,
            "violations": result.violations,
            "ok": result.violations == 0,
        },
        "procedures": {
            "completed": result.completed,
            "aborted": result.aborted,
            "recovered": result.recovered,
            "reattached": result.reattached,
        },
        "counters": dict(result.counters),
        "fault_counters": dict(result.fault_counters),
        "latency_ms": result.region_pct_ms,
        "lane": dict(result.lane),
        "perf": dict(result.perf),
        "shards": list(result.shards),
        "digest": result.digest,
        "trace_events": result.trace_events,
        "end_time_s": result.end_time_s,
        "regions_final": result.regions_final,
        "artifacts": {
            "trace": trace_path,
            "stream": stream_path,
        },
    }
    if obs_summary is not None:
        ledger["obs"] = obs_summary
    orch_policy = getattr(result, "orch_policy", None)
    if orch_policy is not None:
        ledger["orch"] = {
            "policy": dict(orch_policy),
            "summary": dict(getattr(result, "orch_summary", {}) or {}),
            "actions": list(getattr(result, "orch_log", []) or []),
        }
        compare = getattr(result, "orch_compare", None)
        if compare is not None:
            # --compare-baseline: the fixed-capacity control run's
            # verdict, recorded in the same ledger as the orchestrated
            # run so the improvement claim is self-contained
            ledger["orch"]["compare"] = dict(compare)
    if argv is not None:
        ledger["argv"] = list(argv)
    return ledger


def write_run_ledger(
    path: str,
    result,
    argv: Optional[list] = None,
    stream_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Build and write the ledger; records the path on the result."""
    ledger = build_run_ledger(
        result, argv=argv, stream_path=stream_path, trace_path=trace_path
    )
    with open(path, "w") as fp:
        json.dump(ledger, fp, indent=1, sort_keys=True)
        fp.write("\n")
    result.ledger_path = path
    return ledger
