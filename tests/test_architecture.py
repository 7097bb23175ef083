"""Architecture rules of ``src/repro``, checked on the parsed source.

Import layers: ``experiments`` runs the paper's figures on top of
``apps`` and ``obs``; neither of those may import it back, not even
through a deferred import inside a function (which is how an import
cycle hides).

Constructs, in ``scale``:

* the shard host (``scale/shard.py``) hosts, steps and merges shard
  engines and addresses no UE itself: slot <-> global id is
  ``CohortDriver``'s decision (``ids``, ``slot``, ``bucket``,
  ``add_slot``), reached through the engine in ``scale/engine.py``.  It
  defines no driver class and none of the engine's population helpers,
  and reads attributes it knows exist (no ``getattr``);
* the engine is one class, ``ShardEngine``: no ``_Engine`` base;
* a run's :class:`~repro.scale.engine.ScaleResult` is built in one
  place, the shard host's merge;
* the batched lane (``scale/lane.py``) holds timing, not protocol: it
  decides *when*, while what happens is a method of the component that
  owns the state (``CTA.log_uplink``, ``CPF.serve`` / ``commit`` /
  ``install_checkpoint``, ``UPF.apply``) and what it costs is the
  compiled step program.  It names none of the state mutators, pricing
  calls or records those components own;
* tracing is not a gate: the cohort drivers (``scale/cohort.py``) never
  read an ``obs`` attribute, so an installed ``Observability`` cannot
  decide how a procedure runs; and ``Tracer.span``'s context manager is
  a plain ``__enter__`` / ``__exit__`` object (``obs/tracer.py``
  imports no ``contextlib``).

Each §4.2 replica rule has one home, anywhere in ``src/repro``:

* the freshness gate: only ``core/state.py`` reads or writes a copy's
  ``up_to_date`` flag (as an attribute or a keyword), so every "may
  this copy serve?" test goes through ``StateStore.current``;
* the replica set: only ``core/deployment.py`` calls
  ``RegionMap.replicas_for`` (``Deployment._desired_backups``);
* outdated marking: only ``core/deployment.py`` (dropped holders) and
  ``core/cta.py`` (the §4.2.4 ACK scan) call ``StateStore.mark_outdated``.
"""

import ast
from pathlib import Path

import pytest

from repro.codec.costs import CostModel
from repro.core.consistency import RYWAuditor
from repro.core.cpf import CPF
from repro.core.log import MessageLog
from repro.core.state import StateEntry, StateStore
from repro.core.upf import Session
from repro.geo.regions import RegionMap
from repro.messages.registry import MessageCatalog

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package -> packages its modules must never import
FORBIDDEN = {
    "apps": ("experiments",),
    "obs": ("experiments",),
}


def imported_packages(tree: ast.AST, module: str) -> set:
    """Every ``repro`` subpackage ``module``'s code imports, anywhere.

    ``module`` is the dotted name under ``repro`` (``obs.ledger``); its
    package anchors relative imports.
    """
    package = module.split(".")[:-1]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                target = base + (node.module.split(".") if node.module else [])
                names = [".".join(["repro"] + target)]
                if not node.module:  # from .. import experiments
                    names = [
                        ".".join(["repro"] + target + [alias.name])
                        for alias in node.names
                    ]
            else:
                names = [node.module or ""]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def violations(root: Path = SRC) -> list:
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).with_suffix("")
        banned = FORBIDDEN.get(rel.parts[0], ()) if len(rel.parts) > 1 else ()
        if banned:
            used = imported_packages(ast.parse(path.read_text()), ".".join(rel.parts))
            out += [
                "%s imports repro.%s" % (rel, name) for name in banned if name in used
            ]
    return out


def test_apps_and_obs_never_import_experiments():
    assert violations() == []


#: population helpers of the engine the shard host must not define
ENGINE_ONLY_DEFS = frozenset({
    "_pick_idle", "_class_count", "_bucket", "_evacuees", "_slot_for",
    "_bootstrap_population", "_make_driver",
})


#: what the lane leaves to the owning components: state mutators, the
#: auditor's serve record, the UPF's session record and message pricing.
#: Read off the components, so renaming one there renames the rule.
LANE_FORBIDDEN = frozenset(member.__name__ for member in (
    RYWAuditor.record_serve,
    StateStore.install_snapshot,
    StateEntry.apply_message,
    StateEntry.complete_procedure,
    CPF.complete_procedure,
    Session,
    CostModel.serialize_cost,
    CostModel.deserialize_cost,
    MessageCatalog.element_count,
    MessageCatalog.wire_size,
))

#: ``<x>.log.append``: a CTA's message log grows only in ``CTA.log_uplink``
LOG_APPEND = ("log", MessageLog.append.__name__)


#: a copy's outdated flag, which only ``core/state.py`` touches
FRESHNESS_FLAG = "up_to_date"

#: call -> the only modules that may make it
CALL_HOMES = {
    RegionMap.replicas_for.__name__: ("core.deployment",),
    StateStore.mark_outdated.__name__: ("core.deployment", "core.cta"),
}


def _name(node: ast.AST) -> str:
    """The identifier a ``Name`` or ``Attribute`` node ends in, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", "")


def construct_violations(tree: ast.AST, module: str) -> list:
    """Forbidden constructs in ``module`` (dotted under ``repro``)."""
    host = module == "scale.shard"
    lane = module == "scale.lane"
    cohort = module == "scale.cohort"
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if host and "Driver" in node.name:
                out.append("%s defines class %s" % (module, node.name))
            if module.startswith("scale.") and node.name == "_Engine":
                out.append("%s defines class _Engine" % module)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if host and node.name in ENGINE_ONLY_DEFS:
                out.append("%s defines %s" % (module, node.name))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = _name(node)
            if host and name == "getattr" and isinstance(node, ast.Name):
                out.append("%s uses getattr" % module)
            if lane and (
                name in LANE_FORBIDDEN
                or (name == LOG_APPEND[1] and _name(node.value) == LOG_APPEND[0])
            ):
                out.append("%s names %s" % (module, name))
            if cohort and name == "obs":
                out.append("%s reads obs" % module)
            if (
                name == FRESHNESS_FLAG
                and isinstance(node, ast.Attribute)
                and module != "core.state"
            ):
                out.append("%s touches %s" % (module, name))
        elif isinstance(node, ast.keyword):
            if node.arg == FRESHNESS_FLAG and module != "core.state":
                out.append("%s touches %s" % (module, FRESHNESS_FLAG))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            else:
                names = [name.split(".")[0] for name in names]
            if lane and LANE_FORBIDDEN.intersection(names):
                out.append("%s imports %s" % (module, sorted(LANE_FORBIDDEN.intersection(names))))
            if module == "obs.tracer" and "contextlib" in names:
                out.append("%s imports contextlib" % module)
        elif isinstance(node, ast.Call):
            name = _name(node.func)
            if name == "ScaleResult" and not host:
                out.append("%s builds a ScaleResult" % module)
            if name in CALL_HOMES and module not in CALL_HOMES[name]:
                out.append("%s calls %s" % (module, name))
            if (
                name in ("getattr", "setattr")
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) == FRESHNESS_FLAG
                and module != "core.state"
            ):
                out.append("%s touches %s" % (module, FRESHNESS_FLAG))
            if (
                cohort
                and name == "getattr"
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) == "obs"
            ):
                out.append("%s reads obs" % module)
    return out


def test_scale_constructs():
    assert FRESHNESS_FLAG in StateEntry.__slots__
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        out += construct_violations(ast.parse(path.read_text()), module)
    assert out == []


@pytest.mark.parametrize(
    "module, source",
    [
        ("scale.shard", "class ShardDriver:\n    pass\n"),
        ("scale.shard", "class Host:\n    def _pick_idle(self):\n        pass\n"),
        ("scale.shard", "def _slot_for(ue_id):\n    pass\n"),
        ("scale.shard", "x = getattr(engine, 'driver', None)\n"),
        ("scale.shard", "read = getattr\n"),
        ("scale.engine", "class _Engine:\n    pass\n"),
        ("scale.cohort", "class _Engine(object):\n    pass\n"),
        ("scale.engine", "result = ScaleResult(scenario='s')\n"),
        ("cli", "from repro.scale import engine\nr = engine.ScaleResult()\n"),
        # the lane holds timing, not protocol
        ("scale.lane", "self.dep.auditor.record_serve(ue, 1, 1, c, None, t)\n"),
        ("scale.lane", "cta.log.append(clock, ue, msg, size)\n"),
        ("scale.lane", "log.append(clock, ue, msg, size)\n"),
        ("scale.lane", "tgt.store.install_snapshot(ue, snap, clock)\n"),
        ("scale.lane", "entry.apply_message()\n"),
        ("scale.lane", "serving.complete_procedure(ue, name, clock)\n"),
        ("scale.lane", "mutate = entry.complete_procedure\n"),
        ("scale.lane", "upf.sessions[ue] = Session(bs)\n"),
        ("scale.lane", "from ..core.upf import Session as S\n"),
        ("scale.lane", "t += costs.serialize_cost(codec, n)\n"),
        ("scale.lane", "t += costs.deserialize_cost(codec, n)\n"),
        ("scale.lane", "n = CATALOG.element_count(msg)\n"),
        ("scale.lane", "size = CATALOG.wire_size(msg, codec)\n"),
        # tracing is not a gate
        ("scale.cohort", "if self.dep.obs is not None:\n    pass\n"),
        ("scale.cohort", "traced = dep.obs\n"),
        ("scale.cohort", "traced = getattr(self.dep, 'obs', None)\n"),
        ("obs.tracer", "import contextlib\n"),
        ("obs.tracer", "from contextlib import contextmanager\n"),
        ("obs.tracer", "import contextlib as ctx\n"),
        # each §4.2 replica rule has one home
        ("core.cpf", "if entry is None or not entry.up_to_date:\n    pass\n"),
        ("scale.lane", "entry.up_to_date = False\n"),
        ("core.deployment", "fresh = entry.up_to_date and entry.attached\n"),
        ("scale.engine", "fresh = getattr(entry, 'up_to_date')\n"),
        ("scale.cohort", "setattr(entry, 'up_to_date', True)\n"),
        ("scale.engine", "e = StateEntry(up_to_date=False)\n"),
        ("scale.engine", "b = dep.region_map.replicas_for(ue, region, 2, 2)\n"),
        ("core.cta", "b = self.dep.region_map.replicas_for(ue, region, 1)\n"),
        ("scale.engine", "cpf.store.mark_outdated(ue)\n"),
        ("core.cpf", "self.store.mark_outdated(ue)\n"),
    ],
)
def test_the_construct_rules_reject_each_spelling(module, source):
    assert construct_violations(ast.parse(source), module)


@pytest.mark.parametrize(
    "module, source",
    [
        ("scale.shard", "r = ScaleResult(scenario='s')\n"),
        ("sim.core", "class _Engine:\n    pass\n"),
        ("scale.engine", "getattr(x, 'y')\n"),
        ("core.cpf", "entry.apply_message()\nself.store.install_snapshot(u, s, c)\n"),
        ("scale.lane", "self.buffered.append(row)\ncta.log.ack(ue, clock, name)\n"),
        ("scale.lane", "cpf.serve(ue, v, clock, False, t, span)\n"),
        ("scale.engine", "obs = self.dep.obs\n"),
        ("obs.__init__", "import contextlib\n"),
        ("core.state", "if entry is None or not entry.up_to_date:\n    pass\n"),
        ("core.state", "entry = StateEntry(*snapshot, up_to_date=True)\n"),
        ("core.deployment", "rmap.replicas_for(ue, region, n, level)\n"),
        ("core.deployment", "cpf.store.mark_outdated(ue)\n"),
        ("core.cta", "replica.store.mark_outdated(ue)\nup_to_date_sources = []\n"),
        ("scale.engine", "entry = cpf.store.current(ue, need)\n"),
    ],
)
def test_the_construct_rules_pass_the_allowed_homes(module, source):
    assert construct_violations(ast.parse(source), module) == []


@pytest.mark.parametrize(
    "module, source",
    [
        ("obs.ledger", "from ..experiments.cache import task_key"),
        ("obs.ledger", "def f():\n    from ..experiments import cache\n"),
        ("apps.web", "from .. import experiments"),
        ("apps.web", "import repro.experiments.harness"),
        ("apps.web", "from repro.experiments import figures"),
    ],
)
def test_the_rule_rejects_each_spelling(module, source):
    assert "experiments" in imported_packages(ast.parse(source), module)


def test_the_rule_passes_sibling_and_lower_imports():
    source = "from .datapath import x\nfrom ..core.config import y\nimport repro.sim\n"
    assert imported_packages(ast.parse(source), "apps.mobility") == {
        "apps", "core", "sim",
    }
