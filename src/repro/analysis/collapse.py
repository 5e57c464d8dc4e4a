"""Loop-collapse helpers of the pass framework.

The domains of :mod:`repro.analysis.domains` advance a
:class:`~repro.analysis.env.PropertyEnv` over a collapsed loop with
these: resolve Λ-relative scalar posts against the entry environment,
re-express update guards over the element placeholder, and evaluate
straight-line expressions against known ranges (the
:class:`~repro.analysis.framework.PassManager` evaluates every
assignment's right-hand side with :func:`eval_static`).
"""

from __future__ import annotations

from repro.analysis.env import ELEM, PropertyEnv
from repro.analysis.phase2 import LoopSummary, SectionFact
from repro.ir.symx import CondAtom, ir_to_sym
from repro.symbolic.expr import (
    ArrayTerm,
    Atom,
    Sym,
    SymKind,
    loopvar,
    sub as ssub,
)
from repro.symbolic.ranges import SymRange, UNKNOWN_RANGE, range_subst_range


def elem_guards(fact: SectionFact, summary: LoopSummary) -> tuple:
    """Re-express update guards (over the defining loop's variable) as
    subset predicates over the element index placeholder ``ELEM``."""
    if not fact.subset_guards:
        return ()
    if fact.written_offset is None:
        return fact.subset_guards
    lv = loopvar(summary.loop_var)
    repl = ssub(ELEM, fact.written_offset)

    def fn(atom):
        return repl if atom == lv else None

    out = []
    for g in fact.subset_guards:
        lhs = g.lhs.subst(fn)
        rhs = g.rhs.subst(fn)
        if lhs.is_bottom or rhs.is_bottom:
            return ()
        # guards mentioning iteration-local state cannot be lifted
        if any(s.kind is SymKind.ITER0 for s in lhs.free_syms() | rhs.free_syms()):
            return ()
        out.append(CondAtom(g.op, lhs, rhs))
    return tuple(out)


def resolve_post(post: SymRange, env: PropertyEnv) -> SymRange | None:
    """Resolve a Λ-relative scalar post-range against the walking
    environment (``None`` when a needed entry value is unknown)."""
    mapping: dict[Atom, SymRange] = {}
    for ep in (post.lo, post.hi):
        if ep.is_infinite or ep.is_bottom:
            continue
        for atom in ep.atoms():
            if isinstance(atom, Sym) and atom.kind is SymKind.LOOP0:
                cur = env.scalar_range(atom.name)
                if cur is None:
                    return None
                mapping[atom] = cur
            elif isinstance(atom, Sym) and atom.kind is SymKind.VAR:
                cur = env.scalar_range(atom.name)
                if cur is not None:
                    mapping[atom] = cur
    return range_subst_range(post, mapping)


def eval_static(e, env: PropertyEnv) -> SymRange:  # noqa: ANN001 — IExpr
    """Evaluate a straight-line IR expression against the environment's
    known scalar ranges and array point values."""
    sym = ir_to_sym(e)
    if sym.is_bottom:
        return UNKNOWN_RANGE
    mapping: dict[Atom, SymRange] = {}
    for atom in sym.atoms():
        if isinstance(atom, Sym) and atom.kind is SymKind.VAR:
            cur = env.scalar_range(atom.name)
            if cur is not None:
                mapping[atom] = cur
        elif isinstance(atom, ArrayTerm):
            pt = env.point_at(atom.array, atom.index)
            if pt is not None:
                mapping[atom] = pt
    return range_subst_range(SymRange.point(sym), mapping)
