"""Timing shims on the public entry points of each layer.

Installed only in the traced child run.  Each shim records one span —
name, start, end, parent — in column arrays that stay in memory until
the run ends.  A layer's *self time* is the duration of its spans minus
what their child spans cover, so the layers' self times sum to the root
span by construction.

Three rules widen the ``SHIMS`` table to deferred work, so that time
the kernel spends running another module's code is not booked to ``sim``:

* a shimmed function that returns a generator gets the generator
  wrapped, and every resume is its own span (``name~``);
* ``Simulator.process(gen)`` wraps ``gen`` the same way, under the
  layer of the module that defines it;
* a callback handed to ``Simulator.schedule`` / ``schedule_at`` or
  ``Event.add_callback`` runs in a span (``name^``) of the layer of the
  module that defines it; the kernel's own callbacks stay bare.

To shim a new entry point add a row to ``SHIMS``; to add a layer also
add its name to ``LAYERS`` and its metrics to ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from array import array
from contextlib import contextmanager
from types import GeneratorType

LAYERS = (
    "sim", "core", "codec", "messages", "geo", "traffic", "faults", "obs",
    "experiments", "scale.topology", "scale.cohort", "scale.lane",
    "scale.engine", "scale.shard", "bench",
)

#: (layer, module, class or None for module-level functions, attributes)
SHIMS = (
    ("sim", "repro.sim.core", "Simulator", ("run", "step")),
    ("sim", "repro.sim.node", "Server", ("submit", "reserve")),
    ("sim", "repro.sim.network", "Link", ("transit", "send")),
    ("core", "repro.core.deployment", "Deployment",
     ("hop", "ensure_placement", "bootstrap_state", "install_migrated")),
    ("core", "repro.core.cta", "CTA",
     ("ingest", "respond", "procedure_completed", "failover")),
    ("core", "repro.core.cpf", "CPF",
     ("handle_uplink", "complete_procedure", "replay_message")),
    ("core", "repro.core.ue", "UE", ("execute",)),
    ("core", "repro.core.log", "MessageLog", ("append", "ack")),
    ("core", "repro.core.consistency", "RYWAuditor", ("record_serve",)),
    ("codec", "repro.codec.base", "Codec", ("encode", "decode")),
    ("codec", "repro.codec.costs", "CostModel",
     ("serialize_cost", "deserialize_cost")),
    ("messages", "repro.messages.registry", "MessageCatalog",
     ("wire_size", "composed_wire_size", "element_count")),
    ("geo", "repro.geo.ring", "HashRing", ("lookup", "successors")),
    ("geo", "repro.geo.regions", "RegionMap", ("primary_for", "replicas_for")),
    ("traffic", "repro.traffic.models", None, ("process_stream", "storm_times")),
    ("traffic", "repro.traffic.arrivals", None, ("poisson_arrivals",)),
    ("traffic", "repro.traffic.workload", "WorkloadDriver",
     ("schedule_attaches", "schedule_procedures", "schedule_trace")),
    ("traffic", "repro.traffic.mobility", "MobilityModel", ("next_tile",)),
    ("faults", "repro.faults.injector", "FaultInjector",
     ("transit_event", "fire")),
    ("obs", "repro.obs.tracer", "Tracer", ("begin", "finish", "end_on")),
    ("obs", "repro.obs", "Observability", ("on_hop", "snapshot")),
    ("obs", "repro.obs.tracer", "SpanRetention", ("admit",)),
    ("scale.topology", "repro.scale.topology", None, ("build_city",)),
    ("scale.cohort", "repro.scale.cohort", "CohortDriver",
     ("bootstrap", "run_procedure")),
    ("scale.cohort", "repro.scale.cohort", "BatchedDriver",
     ("start_procedure", "setup_lane")),
    ("scale.lane", "repro.scale.lane", "LaneRuntime", ("launch", "walk")),
    ("scale.shard", "repro.scale.shard", None, ("partition_population",)),
    ("scale.shard", "repro.scale.shard", "ShardEngine",
     ("prepare", "advance", "deliver", "take_outbox", "finish_payload")),
    ("experiments", "repro.experiments.harness", None, ("run_pct_point",)),
    ("scale.engine", "repro.scale.engine", None, ("run_scenario",)),
)


class Recorder:
    """In-memory span store: one entry per column per span."""

    def __init__(self):
        self.names = []           # name id -> (layer, name)
        self._name_ids = {}
        self.ids = array("i")     # span -> name id
        self.parents = array("i")  # span -> parent span, -1 at the top
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self._callback_ids = {}   # code object -> name id, -1 = leave bare
        self.sim_events = 0       # events scheduled, over every kernel
        self.payload_bytes = 0

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.ids)
        self.ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        i = self.begin(self.name_id(layer, name))
        try:
            yield
        finally:
            self.end(i)

    # -- shims --------------------------------------------------------------

    def shim(self, fn, layer: str, name: str):
        """``fn`` timed per call; a generator it returns, per resume."""
        nid = self.name_id(layer, name)
        resume_nid = self.name_id(layer, name + "~")
        ids, parents, starts, ends, stack = (
            self.ids, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            # begin()/end() inlined: this wrapper runs millions of times
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if type(out) is GeneratorType:
                return _Resumable(rec, out, resume_nid)
            return out

        return shim

    def wrap_process(self, gen):
        """Per-resume spans for a process body, by its defining module."""
        if type(gen) is not GeneratorType:
            return gen  # already wrapped by a shim, or not ours to wrap
        code = gen.gi_code
        return _Resumable(
            self, gen,
            self.name_id(_layer_of_file(code.co_filename), code.co_name + "~"),
        )

    def wrap_callback(self, fn):
        """A span around ``fn`` when another layer than ``sim`` defines it."""
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        nid = self._callback_ids.get(code)
        if nid is None:
            # bare: builtins, the kernel's own callbacks, and shims
            # (which record their own span)
            layer = "sim" if code is None else _layer_of_file(code.co_filename)
            nid = -1
            if layer != "sim" and code.co_filename != __file__:
                nid = self.name_id(layer, code.co_name + "^")
            self._callback_ids[code] = nid
        if nid < 0:
            return fn
        begin, end = self.begin, self.end

        def timed(*args):
            i = begin(nid)
            try:
                return fn(*args)
            finally:
                end(i)

        return timed

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer; calls and inclusive time per span name."""
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        n = len(ids)
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls, inclusive = {}, {}
        names = self.names
        for i in range(n):
            layer, name = names[ids[i]]
            dur = ends[i] - starts[i]
            self_s[layer] += dur - covered[i]
            key = layer + ":" + name
            calls[key] = calls.get(key, 0) + 1
            inclusive[key] = inclusive.get(key, 0.0) + dur
        return {
            "self_s": self_s,
            "calls": calls,
            "inclusive_s": inclusive,
            "spans": n,
            "root_s": ends[0] - starts[0] if n else 0.0,
            "sim_events": self.sim_events,
            "finish_payload_bytes": self.payload_bytes,
        }

    def durations(self, layer: str, name: str) -> list:
        nid = self._name_ids.get((layer, name))
        return [
            self.ends[i] - self.starts[i]
            for i in range(len(self.ids)) if self.ids[i] == nid
        ]

    def write_chrome_trace(self, path: str) -> None:
        """Chrome/Perfetto trace-event JSON, one complete event per span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write('{"traceEvents":[\n')
            for i in range(len(self.ids)):
                layer, name = self.names[self.ids[i]]
                out.write("%s%s" % (",\n" if i else "", json.dumps({
                    "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (self.starts[i] - t0) * 1e6,
                    "dur": (self.ends[i] - self.starts[i]) * 1e6,
                    "args": {"span": i, "parent": self.parents[i]},
                })))
            out.write("\n]}\n")


class _Resumable:
    """A generator whose every resume is one span."""

    __slots__ = ("gen", "rec", "nid")

    def __init__(self, rec: Recorder, gen, nid: int):
        self.gen, self.rec, self.nid = gen, rec, nid

    def _drive(self, op, *args):
        rec = self.rec
        i = rec.begin(self.nid)
        try:
            return op(*args)
        finally:
            rec.end(i)

    def __iter__(self):
        return self

    def __next__(self):
        return self._drive(self.gen.send, None)

    def send(self, value):
        return self._drive(self.gen.send, value)

    def throw(self, *exc):
        return self._drive(self.gen.throw, *exc)

    def close(self):
        return self.gen.close()

    def __getattr__(self, name):
        return getattr(self.gen, name)


def _layer_of_file(path: str) -> str:
    """``.../repro/scale/lane.py`` -> ``scale.lane``; unknown -> ``bench``."""
    parts = os.path.splitext(path)[0].split(os.sep)
    if "repro" not in parts:
        return "bench"
    tail = parts[len(parts) - parts[::-1].index("repro"):]
    for candidate in (".".join(tail[:2]), tail[0]):
        if candidate in LAYERS:
            return candidate
    return "scale.engine" if tail and tail[0] == "scale" else "bench"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(rec: Recorder) -> None:
    """Patch every ``SHIMS`` entry point, subclass overrides included.

    Functions imported by name (``from .topology import build_city``)
    are patched in every loaded ``repro`` namespace that holds them.
    A name that no longer exists raises: a renamed entry point must
    fail the benchmark, not silently drop out of its layer.
    """
    for layer, module_name, class_name, attrs in SHIMS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for attr in attrs:
                original = getattr(module, attr)
                patched = rec.shim(original, layer, attr)
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original
                    ):
                        setattr(mod, attr, patched)
            continue
        cls = getattr(module, class_name)
        for attr in attrs:
            getattr(cls, attr)  # AttributeError if the entry point is gone
            for owner in (cls, *_subclasses(cls)):
                if attr in vars(owner):
                    setattr(owner, attr, rec.shim(
                        vars(owner)[attr], layer, owner.__name__ + "." + attr
                    ))

    from repro.sim.core import Event, Simulator

    inner_process, inner_run = Simulator.process, Simulator.run
    inner_schedule, inner_schedule_at = Simulator.schedule, Simulator.schedule_at
    inner_add_callback = Event.add_callback
    wrap_callback = rec.wrap_callback

    def process(self, gen, name=""):
        return inner_process(self, rec.wrap_process(gen), name)

    def schedule(self, delay, fn, *args):
        return inner_schedule(self, delay, wrap_callback(fn), *args)

    def schedule_at(self, time, fn, *args):
        return inner_schedule_at(self, time, wrap_callback(fn), *args)

    def add_callback(self, cb):
        return inner_add_callback(self, wrap_callback(cb))

    def run(self, until=None):
        try:
            return inner_run(self, until)
        finally:
            # events scheduled on this kernel since it was last seen
            # here; ``_seq`` is the one private read in the benchmark
            rec.sim_events += self._seq - getattr(self, "_bench_seen", 0)
            self._bench_seen = self._seq

    Simulator.process, Simulator.run = process, run
    Simulator.schedule, Simulator.schedule_at = schedule, schedule_at
    Event.add_callback = add_callback

    from repro.scale.shard import ShardEngine

    inner_payload = ShardEngine.finish_payload

    def finish_payload(self):
        payload = inner_payload(self)
        with rec.span("bench", "measure_payload"):
            rec.payload_bytes += len(pickle.dumps(payload))
        return payload

    ShardEngine.finish_payload = finish_payload
