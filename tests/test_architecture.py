"""Import-layer rules of ``src/repro``, checked on the parsed source.

``experiments`` runs the paper's figures on top of ``apps`` and ``obs``;
neither of those may import it back, not even through a deferred import
inside a function (which is how an import cycle hides).
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
