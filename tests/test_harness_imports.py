"""The benchmark harness in perfbench/ reads names from nncalc; a change to
src/ that deletes or renames one must fail here, not only in a benchmark run.

The harness files are parsed, never imported or run.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

HARNESS = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


_MISSING = object()


def _resolve(module: str, name: str | None):
    """What ``from module import name`` binds (the module itself when name is
    None), or _MISSING; as in Python, name may also be a submodule."""
    try:
        mod = importlib.import_module(module)
        if name is None:
            return mod
        if hasattr(mod, name):
            return getattr(mod, name)
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return _MISSING


def _nncalc_references(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) for each name a harness file takes from nncalc.

    That is each ``from nncalc[.x] import name``, each ``import nncalc[.x]``
    (name None), and each ``m.attr`` where m is a module the file imported
    by name, as in ``from nncalc import lln`` ... ``lln.simulate``.
    """
    refs, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "nncalc":
            for alias in node.names:
                refs.append((node.module, alias.name))
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            refs += [(alias.name, None) for alias in node.names
                     if alias.name.split(".")[0] == "nncalc"]
    refs += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules]
    return refs


def test_the_harness_reads_nncalc():
    # the guard below is only as good as its parse: it must see the imports
    refs = [ref for path in HARNESS for ref in _nncalc_references(ast.parse(path.read_text()))]
    assert ("nncalc.generator", "eval_iterate") in refs
    assert ("nncalc.lln", "simulate") in refs
    assert ("nncalc.cli", None) in refs


@pytest.mark.parametrize("path", HARNESS, ids=lambda p: p.name)
def test_every_nncalc_name_the_harness_reads_resolves(path):
    missing = []
    for module, name in _nncalc_references(ast.parse(path.read_text(), filename=str(path))):
        if _resolve(module, name) is _MISSING:
            missing.append(module if name is None else f"{module}.{name}")
    assert not missing, f"{path.name} reads names nncalc no longer has: {missing}"
