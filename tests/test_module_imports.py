"""Import hygiene of the package, checked by parsing every module.

* No module imports a name it never uses.  An import kept only for its
  side effect (a module that registers its memo tables on import) says
  so with ``# noqa: F401`` on its line.
* Only the IR builder reads the parser's AST: outside ``frontend/``,
  ``ir/builder.py`` is the one module that imports from
  ``repro.frontend``, apart from ``ir/nodes.py``, whose statements carry
  a source position (``frontend.source.Loc``).  Everything downstream
  prints, keys and analyzes the IR.
* ``import repro`` loads no SciPy: only the NPB CG matrix builder and
  the sparse workload generators use it, and they import it when called.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"


def _modules():
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        yield path.relative_to(PACKAGE_DIR).as_posix(), path.read_text()


def _annotation_string_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations (``x: "FaultPlan | None"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        anns: list[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            anns += [p.annotation for p in params if p is not None and p.annotation]
            if node.returns is not None:
                anns.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            anns.append(node.annotation)
        for ann in anns:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_string_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_an_unused_name():
    found = [
        f"{rel}:{line}: {name}"
        for rel, source in _modules()
        if not rel.endswith("__init__.py")
        for line, name in unused_imports(source)
    ]
    assert found == []


def test_unused_import_scanner():
    src = '''
from __future__ import annotations
import os
import os.path
from typing import TYPE_CHECKING, Callable, Mapping
from a import b as c, d
from e import f  # noqa: F401 — registers on import
if TYPE_CHECKING:
    from g import Plan
def h(x: "Plan | None") -> Mapping:
    return d(x)
'''
    assert unused_imports(src) == [(3, "os"), (5, "Callable"), (6, "c")]


def _frontend_imports(source: str) -> set[str]:
    """Every ``repro.frontend`` module ``source`` imports from."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("repro.frontend"):
                found.add(node.module)
            elif node.module == "repro" and any(a.name == "frontend" for a in node.names):
                found.add("repro.frontend")
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("repro.frontend")}
    return found


def test_only_the_builder_reads_the_ast():
    found = {
        (rel, module)
        for rel, source in _modules()
        if not rel.startswith("frontend/")
        for module in _frontend_imports(source)
    }
    assert {(rel, m) for rel, m in found if rel != "ir/builder.py"} == {
        ("ir/nodes.py", "repro.frontend.source"),
        # times parse_function as a stage of its own and hands the AST
        # straight to build_function, reading none of it
        ("analysis/bench.py", "repro.frontend"),
    }
    assert {m for rel, m in found if rel == "ir/builder.py"}


def test_import_repro_loads_no_scipy():
    probe = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
