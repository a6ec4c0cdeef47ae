"""The package holds only what the program runs.

Every top-level def or class of every package module must be reached from
live code: the module-level code of the package modules (the CLI's
``__main__`` call among it), the benchmark's span targets in
``perfbench/spans.py``, or an import in ``perfbench/``.  A def is live only
when something live refers to it, so a helper that only another dead helper
calls is reported too.  ``__init__.py`` holds the package docstring and
version and imports nothing, so every name has one import path, its module.
Referees that only the tests use belong in ``tests/oracle.py``, outside the
package.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coneideal"
PERFBENCH = ROOT / "perfbench"


def _package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _span_roots() -> set[tuple[str, str]]:
    """(module, top-level name) of each target, read as
    ``tests/test_span_targets.py`` reads them."""
    spans = PERFBENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(module, qual.split(".")[0]) for module, qual, _ in mod.TARGETS}


def _perfbench_roots() -> set[tuple[str, str]]:
    """(module, name) of each package name a ``perfbench/`` file imports,
    directly or as an attribute of an imported package module."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module == "coneideal":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module and node.module.startswith("coneideal."):
                home = node.module.split(".")[1]
                roots.update((home, a.name) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    roots.add((modules[node.value.id], node.attr))
    return roots


def _referenced(node: ast.AST, module: str, local: set[str], imported: dict) -> set:
    """The (module, name) pairs of package defs that the names in node denote."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in local:
                out.add((module, sub.id))
            elif sub.id in imported:
                out.add(imported[sub.id])
    return out


def unreachable(sources: dict[str, str], roots: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each top-level def or class in sources that no
    live code reaches, in source order."""
    edges: dict[tuple[str, str], set] = {}
    live: set[tuple[str, str]] = set(roots)
    for module, text in sources.items():
        tree = ast.parse(text)
        defs = [
            node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        local = {node.name for node in defs}
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for node in defs:
            edges[(module, node.name)] = _referenced(node, module, local, imported)
        for node in tree.body:
            if node not in defs:
                live |= _referenced(node, module, local, imported)
    todo = list(live)
    while todo:
        for ref in edges.get(todo.pop(), ()):
            if ref not in live:
                live.add(ref)
                todo.append(ref)
    return [f"{module}.{name}" for module, name in edges if (module, name) not in live]


def _roots() -> set[tuple[str, str]]:
    return _span_roots() | _perfbench_roots()


def test_engine_modules_hold_only_live_code():
    dead = unreachable(_package_sources(), _roots())
    assert not dead, (
        "only the tests or the oracle use these; move them to tests/oracle.py: "
        + ", ".join(dead)
    )


def test_guard_reports_a_referee_put_back():
    """The check itself: ``oracle.restrict`` moved back into ``walks.py``,
    where only the oracle and the tests would call it, is reported."""
    oracle_text = (ROOT / "tests" / "oracle.py").read_text(encoding="utf-8")
    restrict = next(
        node
        for node in ast.parse(oracle_text).body
        if isinstance(node, ast.FunctionDef) and node.name == "restrict"
    )
    sources = _package_sources()
    sources["walks"] += "\n\n" + ast.get_source_segment(oracle_text, restrict) + "\n"
    assert unreachable(sources, _roots()) == ["walks.restrict"]


def test_package_root_loads_no_module():
    """A fresh ``import coneideal`` loads none of the engine, walk, field
    and code modules: the root re-exports nothing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    code = "import sys, coneideal; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    modules = ("slicing", "symmetric", "walks", "codes", "fields")
    loaded = [m for m in modules if f"coneideal.{m}" in done.stdout.split()]
    assert not loaded, loaded


def _imports_oracle(text: str) -> bool:
    """Whether the source imports a module named ``oracle``, in any form."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "oracle" for name in names):
            return True
    return False


def test_referees_live_outside_the_package():
    assert importlib.util.find_spec("coneideal.oracle") is None
    shipped = sorted(PACKAGE.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
    importers = [
        str(path.relative_to(ROOT))
        for path in shipped
        if _imports_oracle(path.read_text(encoding="utf-8"))
    ]
    assert not importers, "these import the test referees: " + ", ".join(importers)


@pytest.mark.parametrize(
    "line",
    [
        "import oracle",
        "from oracle import ideal_of",
        "from . import oracle",
        "from .oracle import ideal_of",
        "from coneideal.oracle import ideal_of",
        "import coneideal.oracle as o",
    ],
)
def test_oracle_import_check_sees_each_form(line):
    assert _imports_oracle(line)
    assert not _imports_oracle(line.replace("oracle", "order"))
