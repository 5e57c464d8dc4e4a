"""The built-in abstract domains of the pass framework.

* :class:`RangeDomain` owns the *numeric* slice of the state: scalar
  value ranges and known array element point values (``rowptr[0] = 0``).
* :class:`PropertyDomain` owns the *structural* slice: per-array
  :class:`~repro.analysis.env.ArrayRecord` property facts (and composite
  monotonicity assertions), including the framework-only **derivation
  rules** that run as summary refinements:

  - ``permutation-scatter`` — a must-write ``a[p[i]] = ±i + b`` through a
    permutation ``p`` sweeping exactly ``p``'s section makes ``a``
    injective (a permutation again when the values are the section
    itself): the inverse-permutation pattern.
  - ``guarded-counter`` — ``if (g) { a[i+k] = count; count += t } else
    { a[i+k] = e }`` with ``t ≥ 1`` and ``e`` below the counter's start
    writes strictly increasing values on the guarded subset: ``a`` is
    strictly monotonic (hence injective) on the elements with
    ``a[x] >= threshold`` — the paper's "injective subset" pattern,
    *derived* instead of asserted.

**Adding a rule**: write a function ``rule(arr, loop, effect, summary,
env_here) -> SectionFact | None``, give the returned fact a ``rule``
name and append it to ``PropertyDomain.rules``.  No cache key needs
touching: in-memory tables start empty in every process, and the batch
disk cache keys on a digest of the analysis sources.  **Adding a
domain**: subclass :class:`~repro.analysis.framework.AbstractDomain`,
implement the transfer/join/widen trio over your own slice of the
state, and add an instance to :func:`default_domains`.
"""

from __future__ import annotations

from repro.analysis.collapse import elem_guards, eval_static, resolve_post
from repro.analysis.env import ELEM, ArrayRecord, PropertyEnv
from repro.analysis.framework import AbstractDomain, PassContext
from repro.analysis.phase1 import IterationEffect
from repro.analysis.phase2 import LoopSummary, SectionFact
from repro.analysis.properties import Prop
from repro.analysis.provenance import array_subject, scalar_subject
from repro.ir.nodes import IArrayRef, IVar, SAssign, SLoop
from repro.ir.symx import CondAtom, ir_to_sym
from repro.symbolic.compare import Prover, Tri
from repro.symbolic.expr import (
    ArrayTerm,
    Const,
    Sym,
    SymKind,
    ZERO,
    add,
    array_term,
    as_linear,
    const,
    lam,
    loopvar,
    mul,
    occurs_in,
    sub,
)
from repro.symbolic.ranges import MultiSection, symrange


class RangeDomain(AbstractDomain):
    """Symbolic value ranges of scalars and array element point values."""

    def transfer_assign(self, stmt: SAssign, value, ctx: PassContext) -> None:
        env = ctx.env
        if isinstance(stmt.target, IVar):
            name = stmt.target.name
            if value.is_unknown:
                env.kill_scalar(name)
            else:
                env.set_scalar(name, value)
            return
        assert isinstance(stmt.target, IArrayRef)
        arr = stmt.target.array
        env.kill_array_points(arr)
        idxs = tuple(eval_static(ix, env) for ix in stmt.target.indices)
        if all(ix.is_point for ix in idxs) and not value.is_unknown:
            key = tuple(ix.lo for ix in idxs)
            env.set_point(arr, key, value)
            subs = "".join(f"[{i}]" for i in key)
            ctx.log.record(
                array_subject(arr),
                "established",
                f"'{_short(stmt)}'",
                rule="point-assignment",
                detail=f"{arr}{subs} = {value}",
            )

    def join(self, modified_scalars, written_arrays, site, ctx: PassContext) -> None:
        env = ctx.env
        for name in modified_scalars:
            env.kill_scalar(name)
        for arr in written_arrays:
            env.kill_array_points(arr)

    def widen_loop(self, loop: SLoop, summary: LoopSummary, ctx: PassContext) -> None:
        env = ctx.env
        for arr in summary.written_arrays | summary.bottom_arrays:
            env.kill_array_points(arr)
        for name in summary.bottom_scalars:
            env.kill_scalar(name)
        for name, post in summary.scalar_post.items():
            resolved = resolve_post(post, env)
            if resolved is None or resolved.is_unknown:
                env.kill_scalar(name)
            else:
                env.set_scalar(name, resolved)
                ctx.log.record(
                    scalar_subject(name),
                    "updated",
                    f"loop {loop.label}",
                    rule="phase2-scalar",
                    detail=f"{name} : {resolved}",
                )


class PropertyDomain(AbstractDomain):
    """Array property records: the paper's lattice plus the
    framework-only derivation rules."""

    def __init__(self) -> None:
        self.rules = (
            refine_permutation_scatter,
            refine_permutation_compose,
            refine_guarded_counter,
        )

    def setup(self, ctx: PassContext) -> None:
        for rec in ctx.env.records.values():
            ctx.log.record(
                array_subject(rec.array),
                "seeded",
                rec.source or "assertion environment",
                rule="assertion",
                detail=rec.describe(),
            )

    def transfer_assign(self, stmt: SAssign, value, ctx: PassContext) -> None:
        if isinstance(stmt.target, IArrayRef):
            self._kill(stmt.target.array, f"'{_short(stmt)}'", "killed", ctx)

    def join(self, modified_scalars, written_arrays, site, ctx: PassContext) -> None:
        for arr in written_arrays:
            self._kill(arr, site, "weakened", ctx)

    def widen_loop(self, loop: SLoop, summary: LoopSummary, ctx: PassContext) -> None:
        for arr in sorted(summary.written_arrays | summary.bottom_arrays):
            self._kill(arr, f"loop {loop.label}", "killed", ctx)
        for arr, fact in summary.array_facts.items():
            if not fact.must and not fact.subset_guards:
                continue  # a may-write with no usable guard: nothing sound to keep
            value_range = fact.value_range if fact.must else None
            ctx.env.set_record(
                ArrayRecord(
                    array=arr,
                    section=fact.section,
                    props=fact.props,
                    value_range=value_range,
                    subset_guards=elem_guards(fact, summary),
                    source=summary.loop_label,
                )
            )
            ctx.log.record(
                array_subject(arr),
                "established",
                f"loop {loop.label}",
                rule=fact.rule,
                detail=fact.describe(),
            )

    def refine_summary(
        self,
        loop: SLoop,
        effect: IterationEffect,
        summary: LoopSummary,
        env_here: PropertyEnv,
        ctx: PassContext,
    ) -> None:
        if loop.step != 1:
            return
        candidates = sorted(
            set(summary.bottom_arrays)
            # rules may also *strengthen* a property-less section fact
            # (e.g. comp[i] = q[p[i]] aggregates to a plain must-section)
            | {a for a, f in summary.array_facts.items() if not f.props}
        )
        for arr in candidates:
            existing = summary.array_facts.get(arr)
            for rule in self.rules:
                fact = rule(arr, loop, effect, summary, env_here)
                if fact is None:
                    continue
                if existing is not None and not fact.props:
                    continue  # only a strictly stronger fact may replace one
                summary.bottom_arrays.discard(arr)
                summary.array_facts[arr] = fact
                ctx.log.record(
                    array_subject(arr),
                    "derived",
                    f"loop {loop.label}",
                    rule=fact.rule,
                    detail=fact.describe(),
                )
                break

    def _kill(self, arr: str, site: str, action: str, ctx: PassContext) -> None:
        had = ctx.env.record(arr) is not None
        ctx.env.kill_array_records(arr)
        if had:
            ctx.log.record(array_subject(arr), action, site)


def default_domains() -> list[AbstractDomain]:
    """The default pass pipeline, in order."""
    return [RangeDomain(), PropertyDomain()]


def _short(stmt: SAssign) -> str:
    from repro.ir.printer import stmt_to_c

    return stmt_to_c(stmt).strip()


# --------------------------------------------------------------------------
# derivation rules (framework-only refinements)
# --------------------------------------------------------------------------


def _loop_edges(loop: SLoop):
    """``(first, last, trip)`` of a unit-stride loop, or ``None``."""
    lb = ir_to_sym(loop.lb)
    ub = ir_to_sym(loop.ub)
    if lb.is_bottom or ub.is_bottom:
        return None
    return lb, sub(ub, 1), sub(ub, lb)


def refine_permutation_scatter(
    arr: str,
    loop: SLoop,
    effect: IterationEffect,
    summary: LoopSummary,
    env_here: PropertyEnv,
) -> SectionFact | None:
    """``a[p[i]] = c*i + b`` (|c| = 1) with ``Permutation(p)`` over exactly
    the loop's index range: ``a`` is injective over ``p``'s section —
    itself a permutation when the written values are the section."""
    if arr in effect.bottom_arrays:
        return None  # also written unanalyzably (opaque while/call/inner loop)
    upds = effect.updates.get(arr)
    if upds is None or len(upds) != 1:
        return None
    upd = upds[0]
    if upd.rank != 1 or not upd.always or upd.guards:
        return None
    idx = upd.index
    lv = loopvar(loop.var)
    if not isinstance(idx, ArrayTerm) or idx.index != lv:
        return None
    # the subscript array itself must be loop-invariant: a write to it
    # anywhere in the body makes the entry-env permutation record stale
    # for the iterations that read the overwritten elements
    if idx.array in effect.updates or idx.array in effect.bottom_arrays:
        return None
    rec = env_here.record(idx.array)
    if rec is None or rec.subset_guards:
        return None
    section = rec.index_section
    if section is None:
        return None
    if not rec.has(Prop.PERMUTATION):
        return None
    edges = _loop_edges(loop)
    if edges is None:
        return None
    first, last, _trip = edges
    prover = Prover(env_here.to_facts())
    if prover.eq(first, section.lo) is not Tri.TRUE:
        return None
    if prover.eq(last, section.hi) is not Tri.TRUE:
        return None
    if not upd.value.is_point:
        return None
    val = upd.value.lo
    if any(s.kind is SymKind.ITER0 for s in val.free_syms()):
        return None
    lin = as_linear(val, lv)
    if lin is None:
        return None
    c, b = lin
    if not isinstance(c, Const) or abs(c.value) != 1 or occurs_in(lv, b):
        return None
    lo_v = add(mul(c, first if c.value > 0 else last), b)
    hi_v = add(mul(c, last if c.value > 0 else first), b)
    props = (
        frozenset({Prop.PERMUTATION})
        if c.value == 1 and b == ZERO
        else frozenset({Prop.INJECTIVE})
    )
    return SectionFact(
        array=arr,
        section=rec.section,
        props=props,
        value_range=symrange(lo_v, hi_v),
        subset_guards=(),
        must=True,
        written_offset=None,
        rule="permutation-scatter",
    )


def refine_permutation_compose(
    arr: str,
    loop: SLoop,
    effect: IterationEffect,
    summary: LoopSummary,
    env_here: PropertyEnv,
) -> SectionFact | None:
    """``comp[i] = q[p[i]]`` sweeping exactly the shared section of two
    permutations ``p`` and ``q``: the composition ``q ∘ p`` is itself a
    permutation of that section (ROADMAP open item)."""
    if arr in effect.bottom_arrays:
        return None
    upds = effect.updates.get(arr)
    if upds is None or len(upds) != 1:
        return None
    upd = upds[0]
    if upd.rank != 1 or not upd.always or upd.guards:
        return None
    lv = loopvar(loop.var)
    if upd.index != lv:
        return None  # the write must sweep the section identically
    if not upd.value.is_point:
        return None
    outer = upd.value.lo
    if not isinstance(outer, ArrayTerm):
        return None
    inner = outer.index
    if not isinstance(inner, ArrayTerm) or inner.index != lv:
        return None
    p_name, q_name = inner.array, outer.array
    # both index arrays must be loop-invariant permutations of the same
    # section, and that section must be exactly the iteration range
    for name in (p_name, q_name):
        if name in effect.updates or name in effect.bottom_arrays:
            return None
    rec_p = env_here.record(p_name)
    rec_q = env_here.record(q_name)
    if rec_p is None or rec_q is None:
        return None
    if rec_p.subset_guards or rec_q.subset_guards:
        return None
    if not (rec_p.has(Prop.PERMUTATION) and rec_q.has(Prop.PERMUTATION)):
        return None
    sec_p = rec_p.index_section
    sec_q = rec_q.index_section
    if sec_p is None or sec_q is None:
        return None
    edges = _loop_edges(loop)
    if edges is None:
        return None
    first, last, _trip = edges
    prover = Prover(env_here.to_facts())
    for lo, hi in ((sec_p.lo, sec_p.hi), (sec_q.lo, sec_q.hi)):
        if prover.eq(first, lo) is not Tri.TRUE:
            return None
        if prover.eq(last, hi) is not Tri.TRUE:
            return None
    return SectionFact(
        array=arr,
        section=MultiSection.of(symrange(first, last)),
        props=frozenset({Prop.PERMUTATION}),
        value_range=symrange(first, last),
        subset_guards=(),
        must=True,
        written_offset=ZERO,
        rule="permutation-compose",
    )


def refine_guarded_counter(
    arr: str,
    loop: SLoop,
    effect: IterationEffect,
    summary: LoopSummary,
    env_here: PropertyEnv,
) -> SectionFact | None:
    """``if (g) { a[i+k] = count + u; count += t } else { a[i+k] = e }``
    with ``t >= 1``, ``count`` untouched elsewhere and starting at a known
    constant, and ``e`` below every counter value: the guarded elements
    receive strictly increasing values, so ``a`` is strictly monotonic
    (hence injective) on the subset ``a[x] >= count0 + u``."""
    if arr in effect.bottom_arrays:
        return None
    merged = effect.updates.get(arr)
    if merged is None or len(merged) != 1:
        return None
    groups = [
        g
        for g in effect.cond_groups
        if arr in g.then_updates or arr in g.else_updates
    ]
    if len(groups) != 1:
        return None
    grp = groups[0]
    if not grp.exact:
        return None
    then_upds = grp.then_updates.get(arr, ())
    else_upds = grp.else_updates.get(arr, ())
    if len(then_upds) != 1 or len(else_upds) != 1:
        return None
    tu, eu = then_upds[0], else_upds[0]
    if tu.rank != 1 or tu.indices != eu.indices:
        return None
    lv = loopvar(loop.var)
    lin_idx = as_linear(tu.index, lv)
    if lin_idx is None:
        return None
    coeff, offset = lin_idx
    if coeff != const(1) or occurs_in(lv, offset):
        return None
    if any(s.kind is SymKind.ITER0 for s in tu.index.free_syms()):
        return None
    # array terms in the offset could be overwritten mid-loop (stale)
    if any(isinstance(a, ArrayTerm) for a in tu.index.atoms()):
        return None
    # the else value: a loop-invariant constant sentinel
    if not eu.value.is_point or not isinstance(eu.value.lo, Const):
        return None
    sentinel = eu.value.lo
    # the then value: the counter (plus a constant offset)
    if not tu.value.is_point:
        return None
    iters = {
        s for s in tu.value.lo.free_syms() if s.kind is SymKind.ITER0
    }
    if len(iters) != 1:
        return None
    counter = next(iter(iters))
    lin_val = as_linear(tu.value.lo, counter)
    if lin_val is None:
        return None
    vc, u = lin_val
    if vc != const(1) or not isinstance(u, Const):
        return None
    # the counter: += const t >= 1 under the guard, untouched otherwise
    then_c = grp.then_scalars.get(counter.name)
    if then_c is None or not then_c.is_point:
        return None
    lin_c = as_linear(then_c.lo, counter)
    if lin_c is None:
        return None
    cc, t = lin_c
    if cc != const(1) or not isinstance(t, Const) or t.value < 1:
        return None
    else_c = grp.else_scalars.get(counter.name)
    if else_c is not None and else_c != _point_of(counter):
        return None
    # ... and not modified anywhere else in the body
    body_c = effect.scalars.get(counter.name)
    expected = then_c.join(else_c if else_c is not None else _point_of(counter))
    if body_c != expected:
        return None
    # known constant start value at loop entry
    start = env_here.scalar_range(counter.name)
    if start is None or not start.is_point or not isinstance(start.lo, Const):
        return None
    threshold = start.lo.value + u.value
    if sentinel.value >= threshold:
        return None
    edges = _loop_edges(loop)
    if edges is None:
        return None
    first, last, trip = edges
    section = MultiSection.of(symrange(add(first, offset), add(last, offset)))
    hi_v = add(const(threshold), mul(t, sub(trip, 1)))
    return SectionFact(
        array=arr,
        section=section,
        props=frozenset({Prop.STRICT_INC}),
        value_range=symrange(const(min(sentinel.value, threshold)), hi_v),
        subset_guards=(CondAtom(">=", array_term(arr, ELEM), const(threshold)),),
        must=True,
        written_offset=None,
        rule="guarded-counter",
    )


def _point_of(counter: Sym):
    from repro.symbolic.ranges import SymRange

    return SymRange.point(lam(counter.name))
