"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON + text timelines.

The Chrome trace-event format (loadable by Perfetto's UI and
``chrome://tracing``) wants microsecond timestamps, integer pid/tid,
and ``"X"`` complete events with a duration.  We map:

* pid 1 = the whole simulated deployment (one metadata event names it);
* one tid per *procedure* (per root span), named after the root, so the
  UI draws each procedure as its own track with nested child slices;
* ``args`` = the span's attrs plus its ids, so a violation's
  ``trace_id``/``span_id`` can be searched in the UI.

Sharded runs use :func:`stitch_chrome_trace` instead: one pid per
shard (pid = shard + 1) and ``"s"``/``"f"`` flow events linking each
emigrating procedure's span to the destination shard's
``shard.install_migrated`` continuation.
"""

from __future__ import annotations

import json
from typing import Collection, Dict, List, Optional, Sequence

from .tracer import Span, SpanTable

__all__ = [
    "chrome_trace_events",
    "stitch_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "timeline_summary",
]

_PID = 1


def _append_span_events(
    events: List[Dict[str, object]], table: SpanTable, pid: int,
    anchors: Collection[int] = (),
) -> Dict[int, int]:
    """Emit metadata + ``"X"`` events for ``table``'s rows under ``pid``.

    Returns the tid of each span id in ``anchors`` that the table holds,
    so the stitcher can anchor flow events on that span's track.
    """
    tids: Dict[int, int] = {}  # root id -> tid
    anchored: Dict[int, int] = {}
    for span_id, parent, root, name, phase, start, end, status, attrs in (
        table.rows()
    ):
        tid = tids.get(root)
        if tid is None:
            tid = tids[root] = len(tids) + 1
        if span_id in anchors:
            anchored[span_id] = tid
        if parent is None:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "name": ("%s #%d %s" % (
                            name, root, attrs.get("ue", "")
                        )).strip()
                    },
                }
            )
        args = {"span_id": span_id, "trace_id": root, "status": status}
        if parent is not None:
            args["parent_id"] = parent
        for key, value in attrs.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        unfinished = end is None
        if unfinished:
            args["unfinished"] = True
        events.append(
            {
                "name": name,
                "cat": phase,
                "ph": "X",
                "ts": start * 1e6,
                "dur": 0.0 if unfinished else max(0.0, end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return anchored


def chrome_trace_events(
    table: SpanTable, process_name: str = "repro-sim"
) -> Dict[str, object]:
    """A span table -> a ``{"traceEvents": [...]}`` dict (Perfetto-loadable).

    ``table`` is a tracer's :meth:`~repro.obs.tracer.Tracer.table` (or
    the hand-over form, :meth:`~repro.obs.tracer.Tracer.take_table`).
    """
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    _append_span_events(events, table, _PID)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def stitch_chrome_trace(
    shard_snapshots: Sequence[Dict[str, object]],
    process_name: str = "repro-sim",
) -> Dict[str, object]:
    """Per-shard obs snapshots -> one multi-process Chrome trace.

    Input is the ``obs`` entry of each shard's finish payload *in shard
    order*: its :class:`SpanTable` (``spans``), read row by row without
    building a :class:`Span`, plus the migration flow tables
    (``flows_out`` / ``flows_in``).  Shard ``k`` becomes pid ``k+1``
    with its own ``process_name`` metadata, so the Perfetto UI shows
    one process track group per shard.

    Cross-shard migrations become flow events: the emigrating
    procedure's root span (recorded by the source shard at emission
    time) links to the destination shard's ``shard.install_migrated``
    continuation span, matched by the trace-link id that rode on the
    obs channel next to the migration record.  Flow ids are assigned
    deterministically over the sorted link ids.
    """
    events: List[Dict[str, object]] = []
    span_tid: Dict[tuple, int] = {}  # (shard, span_id) -> tid
    flows_out: Dict[str, tuple] = {}  # link -> (shard, row)
    flows_in: Dict[str, tuple] = {}
    for k, snap in enumerate(shard_snapshots):
        pid = k + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "%s shard %d" % (process_name, k)},
            }
        )
        outs, ins = snap["flows_out"], snap["flows_in"]
        for row in outs:
            flows_out[row["link"]] = (k, row)
        for row in ins:
            flows_in[row["link"]] = (k, row)
        anchors = {row.get("span") for row in outs}
        anchors.update(row.get("span") for row in ins)
        for span_id, tid in _append_span_events(
            events, snap["spans"], pid, anchors
        ).items():
            span_tid[(k, span_id)] = tid
    flow_id = 0
    stitched = 0
    for link in sorted(set(flows_out) & set(flows_in)):
        src_shard, src = flows_out[link]
        dst_shard, dst = flows_in[link]
        src_tid = span_tid.get((src_shard, src.get("span")))
        dst_tid = span_tid.get((dst_shard, dst.get("span")))
        if src_tid is None or dst_tid is None:
            continue  # the anchoring span fell to bounded retention
        flow_id += 1
        stitched += 1
        common = {"name": "shard.migrate", "cat": "flow", "id": flow_id}
        events.append(
            dict(
                common,
                ph="s",
                pid=src_shard + 1,
                tid=src_tid,
                ts=src["t"] * 1e6,
                args={"ue": src.get("ue", ""), "link": link},
            )
        )
        events.append(
            dict(
                common,
                ph="f",
                bp="e",
                pid=dst_shard + 1,
                tid=dst_tid,
                ts=dst["t"] * 1e6,
                args={"ue": dst.get("ue", ""), "link": link},
            )
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "shards": len(shard_snapshots),
            "flow_events": stitched,
        },
    }


def write_chrome_trace(
    path: str, table: SpanTable, process_name: str = "repro-sim"
) -> Dict[str, object]:
    """Write ``table``'s Chrome trace JSON to ``path``; returns the dict."""
    data = chrome_trace_events(table, process_name=process_name)
    with open(path, "w") as fp:
        json.dump(data, fp)
        fp.write("\n")
    return data


def validate_chrome_trace(data: Dict[str, object]) -> int:
    """Schema-check a trace dict; returns the event count or raises.

    Checks the invariants Perfetto's importer relies on: a
    ``traceEvents`` list, string names, known phases, numeric
    timestamps, integer pid/tid, and non-negative durations on ``"X"``
    events.  Used by the export tests and the ``obs`` CLI smoke step.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("trace must be a dict with a traceEvents list")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, ev in enumerate(events):
        where = "traceEvents[%d]" % i
        if not isinstance(ev, dict):
            raise ValueError(where + " is not an object")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(where + " has no name")
        if ev.get("ph") not in ("X", "B", "E", "M", "i", "C", "s", "t", "f"):
            raise ValueError(where + " has unknown phase %r" % (ev.get("ph"),))
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            raise ValueError(where + " pid/tid must be ints")
        if ev["ph"] == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
                raise ValueError(where + " X event needs numeric ts/dur")
            if dur < 0:
                raise ValueError(where + " has negative duration")
        elif ev["ph"] in ("s", "t", "f"):
            # flow events: Perfetto's importer needs a numeric ts and a
            # binding id shared by the start/finish pair
            if not isinstance(ev.get("ts"), (int, float)):
                raise ValueError(where + " flow event needs numeric ts")
            if "id" not in ev:
                raise ValueError(where + " flow event needs an id")
    return len(events)


def timeline_summary(
    table: SpanTable, limit: int = 3, slowest: bool = True
) -> str:
    """Indented text timeline of the ``limit`` slowest (or first) roots."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in table:
        children.setdefault(span.parent_id, []).append(span)
    roots = children.get(None, [])
    if slowest:
        roots = sorted(roots, key=lambda s: -s.duration)
    roots = roots[:limit]

    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        lines.append(
            "%s%-28s %10.3f ms  [%s] %s"
            % (
                "  " * depth,
                span.name,
                span.duration * 1e3,
                span.phase,
                span.status,
            )
        )
        for child in sorted(
            children.get(span.span_id, ()), key=lambda s: (s.start, s.span_id)
        ):
            emit(child, depth + 1)

    for root in roots:
        lines.append(
            "-- trace %d: %s (t=%.6f s, %.3f ms) --"
            % (root.root_id, root.name, root.start, root.duration * 1e3)
        )
        emit(root, 0)
    if not roots:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
