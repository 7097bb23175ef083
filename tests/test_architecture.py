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
  place, the shard host's merge.
"""

import ast
from pathlib import Path

import pytest

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


def construct_violations(tree: ast.AST, module: str) -> list:
    """Forbidden constructs in ``module`` (dotted under ``repro``)."""
    host = module == "scale.shard"
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
        elif isinstance(node, ast.Name):
            if host and node.id == "getattr":
                out.append("%s uses getattr" % module)
        elif isinstance(node, ast.Call) and not host:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "ScaleResult":
                out.append("%s builds a ScaleResult" % module)
    return out


def test_scale_constructs():
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
