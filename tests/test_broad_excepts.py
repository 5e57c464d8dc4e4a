"""Lint: every broad ``except`` in ``src/repro`` maps to a fault site.

A clause that catches ``Exception``, ``BaseException`` or everything
(bare ``except:``) turns an unknown failure into a recovery path.  That
path is only tested if a registered fault site (:data:`repro.service.
faults.SITES`) can drive a failure into it, so each such clause is
listed here with the sites whose injection reaches it, or in the
allowlist with the reason no site does.  A new broad clause fails the
test until it is mapped; a mapping whose clause is gone fails it too.
Clauses are named by file, enclosing function, and their order within
that function, so moving code around does not disturb the map.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.service.faults import SITES

SRC = Path(repro.__file__).parent

#: (file, enclosing function, index within it) -> the sites whose
#: injection reaches the clause
REACHED_BY = {
    ("runtime/engines.py", "execute", 0): ("analysis.passes",),
    ("runtime/engines.py", "execute", 1): ("engine.compiled",),
    ("runtime/oracle.py", "check_loop_independence", 0): ("engine.compiled",),
    ("runtime/parallel.py", "_inspect_gate", 0): (
        "engine.inspector.predicate",
        "engine.inspector.cache",
    ),
    ("runtime/parallel.py", "_run_scheduled", 0): (
        "engine.parallel.worker",
        "engine.parallel.shm",
        "engine.parallel.arena",
        "engine.parallel.pool_reuse",
    ),
    ("runtime/parallel.py", "_ParRun.share_arrays", 0): ("engine.parallel.arena",),
    ("service/engine.py", "_worker_run", 0): ("worker.error", "analysis.passes"),
    ("service/engine.py", "BatchEngine._compute_pool", 1): ("worker.crash", "worker.hang"),
}

#: clauses no fault site reaches, each with the reason
ALLOWED = {
    ("runtime/fabric.py", "_fabric_chunk", 0): (
        "a chunk's own failure in a fabric worker, shipped back as data for "
        "_run_scheduled to classify; no site fires inside a worker's chunk"
    ),
    ("service/engine.py", "BatchEngine.run", 0): (
        "a frontend bug while fingerprinting one request costs that request's "
        "row (the chaos suite sabotages _prepare to reach it)"
    ),
    ("service/engine.py", "BatchEngine._kill_pool", 0): (
        "best-effort SIGKILL of pool processes that may already be gone"
    ),
    ("service/engine.py", "BatchEngine._compute_pool", 0): (
        "a finished future whose result cannot come back (an unpicklable "
        "payload); worker.error is recorded inside the worker instead"
    ),
}

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in _BROAD for t in types)


class _Clauses(ast.NodeVisitor):
    """Collects ``(file, enclosing function, index)`` of every broad
    clause of one file."""

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.scope: list[str] = []
        self.counts: dict[str, int] = {}
        self.found: list[tuple[str, str, int]] = []

    def _scoped(self, node: ast.AST) -> None:
        self.scope.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_broad(node):
            name = ".".join(self.scope)
            self.found.append((self.rel, name, self.counts.get(name, 0)))
            self.counts[name] = self.counts.get(name, 0) + 1
        self.generic_visit(node)


def _broad_clauses() -> list[tuple[str, str, int]]:
    found: list[tuple[str, str, int]] = []
    for path in sorted(SRC.rglob("*.py")):
        clauses = _Clauses(path.relative_to(SRC).as_posix())
        clauses.visit(ast.parse(path.read_text()))
        found += clauses.found
    return found


def test_every_broad_except_maps_to_a_fault_site_or_the_allowlist():
    clauses = _broad_clauses()
    unmapped = [c for c in clauses if c not in REACHED_BY and c not in ALLOWED]
    assert unmapped == [], f"broad except with no fault site or allowlist entry: {unmapped}"
    stale = sorted((set(REACHED_BY) | set(ALLOWED)) - set(clauses))
    assert stale == [], f"mapped clauses that no longer exist: {stale}"
    assert not set(REACHED_BY) & set(ALLOWED)
    unknown = {site for sites in REACHED_BY.values() for site in sites} - set(SITES)
    assert unknown == set(), f"not registered in faults.SITES: {unknown}"
    assert all(reason.strip() for reason in ALLOWED.values())
