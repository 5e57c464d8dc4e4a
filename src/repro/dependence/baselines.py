"""Baseline dependence tests: GCD and Banerjee.

These are the classic affine-subscript tests every parallelizing compiler
ships.  They serve two purposes in the reproduction:

* completing the dependence framework (cheap first-line filters);
* the ablation benchmark — like the production compilers the paper
  surveys (Cetus, Rose, ICC, PGI), they fail on every subscripted
  subscript pattern, which is exactly the paper's motivation.

Both operate on *point* accesses affine in the iteration symbols
(``a·i + c`` with constant ``a``); anything else is "assume dependent".
"""

from __future__ import annotations

import math

from repro.dependence.accesses import Access
from repro.ir.nodes import SLoop
from repro.ir.symx import ir_to_sym
from repro.symbolic.compare import Prover, Tri
from repro.symbolic.expr import Const, Expr, Sym, as_linear, loopvar, sub
from repro.symbolic.facts import FactEnv


def _affine(e: Expr, lv: Sym) -> tuple[int, Expr] | None:
    lin = as_linear(e, lv)
    if lin is None:
        return None
    a, c = lin
    if not isinstance(a, Const) or a.value.denominator != 1:
        return None
    return int(a.value), c


def _point_dims(a: Access, b: Access) -> list[tuple[Expr, Expr]]:
    """Paired per-dimension point subscripts of two accesses.  A
    dependence needs *every* dimension to collide, so refuting any one
    pair suffices; non-point dimensions simply cannot be refuted by the
    affine tests and are skipped."""
    if a.index is None or b.index is None or a.index.rank != b.index.rank:
        return []
    return [
        (da.point, db.point)
        for da, db in zip(a.index.dims, b.index.dims)
        if da.point is not None and db.point is not None
    ]


def gcd_test(a: Access, b: Access, loop: SLoop) -> Tri:
    """GCD test on ``a1·i + c1 = a2·i' + c2`` with ``i ≠ i'`` (only
    loop-*carried* dependences matter), applied per dimension.  Returns
    TRUE for *independent*."""
    for pa, pb in _point_dims(a, b):
        if _gcd_points(pa, pb, loop) is Tri.TRUE:
            return Tri.TRUE
    return Tri.UNKNOWN


def _gcd_points(pa: Expr, pb: Expr, loop: SLoop) -> Tri:
    lv = loopvar(loop.var)
    fa = _affine(pa, lv)
    fb = _affine(pb, lv)
    if fa is None or fb is None:
        return Tri.UNKNOWN
    a1, c1 = fa
    a2, c2 = fb
    dc = sub(c2, c1)
    if not isinstance(dc, Const) or dc.value.denominator != 1:
        return Tri.UNKNOWN
    diff = int(dc.value)
    g = math.gcd(abs(a1), abs(a2))
    if g == 0:
        return Tri.TRUE if diff != 0 else Tri.UNKNOWN
    if diff % g != 0:
        return Tri.TRUE  # no integer solution at all ⟹ independent
    if a1 == a2 and diff == 0 and a1 != 0:
        # a·i + c = a·i' + c forces i = i': same-iteration only, which is
        # not a loop-carried dependence
        return Tri.TRUE
    return Tri.UNKNOWN


def banerjee_test(a: Access, b: Access, loop: SLoop, facts: FactEnv | None = None) -> Tri:
    """Direction-aware Banerjee bounds test.

    A loop-carried dependence needs ``a1·i + c1 = a2·i' + c2`` with
    ``i ≠ i'`` and both in bounds.  Substituting ``i' = i + d`` with
    ``d ∈ [1 : U-L]`` (and, symmetrically, ``d ∈ [-(U-L) : -1]``), we
    bound ``h(i, d) = (a1-a2)·i - a2·d + (c1-c2)`` by intervals; if zero
    lies outside the bounds for *both* directions the pair is
    independent.  Applied per dimension (any refuted dimension refutes
    the pair).  Returns TRUE for *independent*.
    """
    for pa, pb in _point_dims(a, b):
        if _banerjee_points(pa, pb, loop, facts) is Tri.TRUE:
            return Tri.TRUE
    return Tri.UNKNOWN


def _banerjee_points(
    pa: Expr, pb: Expr, loop: SLoop, facts: FactEnv | None = None
) -> Tri:
    lv = loopvar(loop.var)
    fa = _affine(pa, lv)
    fb = _affine(pb, lv)
    if fa is None or fb is None:
        return Tri.UNKNOWN
    a1, c1 = fa
    a2, c2 = fb
    lb = ir_to_sym(loop.lb)
    ub = ir_to_sym(loop.ub)
    if lb.is_bottom or ub.is_bottom:
        return Tri.UNKNOWN
    env = facts.copy() if facts is not None else FactEnv()
    prover = Prover(env)
    from repro.symbolic.expr import add, mul

    last = sub(ub, 1)
    span = sub(last, lb)  # max |d|
    delta = sub(c1, c2)

    def excluded(d_lo: Expr, d_hi: Expr) -> bool:
        lo_terms = []
        hi_terms = []
        coeff_i = a1 - a2
        if coeff_i >= 0:
            lo_terms.append(mul(coeff_i, lb))
            hi_terms.append(mul(coeff_i, last))
        else:
            lo_terms.append(mul(coeff_i, last))
            hi_terms.append(mul(coeff_i, lb))
        if -a2 >= 0:
            lo_terms.append(mul(-a2, d_lo))
            hi_terms.append(mul(-a2, d_hi))
        else:
            lo_terms.append(mul(-a2, d_hi))
            hi_terms.append(mul(-a2, d_lo))
        h_lo = add(*lo_terms, delta)
        h_hi = add(*hi_terms, delta)
        return prover.gt(h_lo, 0) is Tri.TRUE or prover.lt(h_hi, 0) is Tri.TRUE

    forward = excluded(const_expr(1), span)
    backward = excluded(mul(-1, span), const_expr(-1))
    if forward and backward:
        return Tri.TRUE
    return Tri.UNKNOWN


def const_expr(v: int) -> Expr:
    from repro.symbolic.expr import const

    return const(v)
