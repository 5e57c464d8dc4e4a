"""Process switches: the package reads only the environment variables
listed here, each in one function.

A variable that picks what a call computes — an engine, an analysis —
makes results depend on the process instead of on the program, and
every cache key would have to hash it.  So a new ``os.environ`` or
``os.getenv`` read anywhere under ``src/repro`` fails this test until it
joins the allowlist with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module, function, variable) -> why the process may set it
_ALLOWED = {
    ("runtime/parallel.py", "default_workers", "REPRO_WORKERS"): (
        "pins the parallel engine's worker count (perfbench sets it)"
    ),
    ("service/faults.py", "active_plan", "REPRO_FAULTS"): (
        "the only way to inject faults outside `repro batch --faults`"
    ),
    ("service/faults.py", "fallbacks_enabled", "REPRO_FALLBACKS"): (
        "the degradation ladder's kill-switch"
    ),
    ("analysis/framework.py", "incremental_enabled", "REPRO_INCREMENTAL"): (
        "turns the memo tables off: the reference of the key-completeness tests"
    ),
}


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_reads(tree: ast.Module) -> "list[tuple[str, str]]":
    """``(function, variable)`` for every environment read in ``tree``;
    the variable is a string literal or a module-level string constant
    (``?`` when it is neither), the function ``<module>`` at top level."""
    constants = {
        t.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def name_of(arg: "ast.AST | None") -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return constants.get(arg.id, "?")
        return "?"

    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "os":
                for alias in child.names:
                    if alias.name in ("environ", "getenv"):
                        found.append((func, f"os.{alias.name} imported"))
            elif isinstance(child, ast.Call) and (
                _is_os_attr(child.func, "getenv")
                or (
                    isinstance(child.func, ast.Attribute)
                    and _is_os_attr(child.func.value, "environ")
                )
            ):
                found.append((func, name_of(child.args[0] if child.args else None)))
                continue
            elif isinstance(child, ast.Subscript) and _is_os_attr(child.value, "environ"):
                found.append((func, name_of(child.slice)))
                continue
            elif isinstance(child, ast.Compare) and any(
                _is_os_attr(c, "environ") for c in child.comparators
            ):
                found.append((func, name_of(child.left)))
                continue
            elif _is_os_attr(child, "environ") or _is_os_attr(child, "getenv"):
                found.append((func, "?"))  # e.g. dict(os.environ)
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_env_reads_are_allowlisted():
    found = set()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        rel = path.relative_to(PACKAGE_DIR).as_posix()
        for func, var in _env_reads(ast.parse(path.read_text())):
            found.add((rel, func, var))
    assert found == set(_ALLOWED)


def test_scanner_sees_every_read_form():
    src = '''
import os
from os import environ
NAME = "REPRO_X"
def a():
    return os.environ.get(NAME, "1")
def b():
    return os.getenv("REPRO_Y")
def c():
    return os.environ["REPRO_Z"]
def d():
    return "REPRO_W" in os.environ
def e():
    return dict(os.environ)
'''
    assert sorted(_env_reads(ast.parse(src))) == [
        ("<module>", "os.environ imported"),
        ("a", "REPRO_X"),
        ("b", "REPRO_Y"),
        ("c", "REPRO_Z"),
        ("d", "REPRO_W"),
        ("e", "?"),
    ]
