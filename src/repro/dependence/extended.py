"""The extended Range Test (Section 5 of the paper, implemented fully).

The classic Range Test proves loop iterations independent by showing the
array sections accessed by different iterations do not overlap.  The
*extension* lets the overlap proofs use the index-array properties the
analysis derived (or that were asserted):

* *monotonicity*: ``[rowptr[i-1] : rowptr[i]-1]`` and
  ``[rowptr[i'-1] : rowptr[i']-1]`` are disjoint for ``i < i'`` because
  ``Monotonic_inc(rowptr)``;
* *injectivity*: single writes through an injective subscript array go to
  distinct elements (``id_to_mt[mt_to_id[i]] = ...``), including
  subset-restricted injectivity (``jmatch`` non-negative subset) and
  multi-level indirection (``Blk[p[k]]``, ``k ∈ [r[b] : r[b+1])``);
* *first-iteration special cases* are handled by guard reasoning, not
  peeling: an access guarded by ``i == 0`` is specialized, and the pair
  ``(i == 0, i' == 0)`` with ``i < i'`` is refuted as infeasible.

Iterations are modeled with two fresh symbols ``i1 < i2``; the relation
is encoded by giving ``i1`` the loop's range ``[first : last]`` and
``i2`` the range ``[i1+1 : last]``, which the prover's bound-chasing
resolves exactly.  One :class:`ExtendedRangeTest` tests one loop and
builds, on first use, what the directions of its pairs share: the
loop's entry facts (``prop_env.to_facts()``), every access shifted to
``i1`` and to ``i2``, and, for the directions whose accesses carry no
guard (most of them), one fact environment with both iteration ranges
and one :class:`~repro.symbolic.compare.Prover` over it, whose memo
they share.  Those ranges imply ``i1 < i2`` and the loop bounds, so an
unguarded direction skips the pin-consistency queries, and whether the
ranges are empty is asked once per loop.  A guarded direction pins and
refines the iteration ranges on a copy of the entry facts, with a
prover of its own, so nothing it derives reaches another direction.
The context lives as long as the test object and is no memo table.

Setting ``use_properties=False`` turns the same engine into the classic
Range Test (the paper's baseline: current compilers, which fail on all
subscripted-subscript patterns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.env import ELEM, PropertyEnv
from repro.analysis.properties import Prop
from repro.dependence.accesses import (
    Access,
    AccessSet,
    DimAccess,
    IndirectIndex,
    collect_accesses,
)
from repro.ir.nodes import IRFunction, SLoop
from repro.ir.symx import CondAtom, ir_to_sym
from repro.symbolic.compare import Prover, Tri, tri_or
from repro.symbolic.expr import (
    ArrayTerm,
    Atom,
    Const,
    Expr,
    Sym,
    add,
    as_linear,
    fresh,
    loopvar,
    occurs_in,
    sub,
    var,
)
from repro.symbolic.facts import FactEnv
from repro.symbolic.ranges import SymRange, symrange

_ELEM = ELEM  # placeholder index in subset-guard patterns (shared)


@dataclass
class PairVerdict:
    a: Access
    b: Access
    independent: bool
    reason: str

    def describe(self) -> str:
        flag = "independent" if self.independent else "DEPENDENT(assumed)"
        return f"{self.a.describe()}  vs  {self.b.describe()}: {flag} — {self.reason}"


@dataclass
class LoopDependenceResult:
    loop_label: str
    parallel: bool
    pairs: list[PairVerdict] = field(default_factory=list)
    accesses: AccessSet | None = None
    method: str = "extended-range-test"

    def failed_pairs(self) -> list[PairVerdict]:
        return [p for p in self.pairs if not p.independent]

    def describe(self) -> str:
        head = (
            f"{self.loop_label}: "
            + ("PARALLEL" if self.parallel else "serial")
            + f" ({self.method})"
        )
        return "\n".join([head] + ["  " + p.describe() for p in self.pairs])


class ExtendedRangeTest:
    """Cross-iteration disjointness testing for one loop."""

    def __init__(
        self,
        func: IRFunction,
        loop: SLoop,
        prop_env: PropertyEnv,
        use_properties: bool = True,
    ) -> None:
        self.func = func
        self.loop = loop
        self.prop_env = prop_env
        self.use_properties = use_properties
        self.i1 = fresh("__i1")
        self.i2 = fresh("__i2")
        self.lv = loopvar(loop.var)
        lb = ir_to_sym(loop.lb)
        ub = ir_to_sym(loop.ub)
        # normalize decreasing loops: iterate the same index set
        self.first, self.last = (lb, sub(ub, 1)) if loop.step > 0 else (add(ub, 1), lb)
        # the per-loop context, built on first use (see the module docstring)
        self._entry: FactEnv | None = None
        self._shared: tuple[FactEnv, Prover, bool] | None = None
        self._shifts: dict[Access, tuple[Access, Access]] = {}

    # -- public ------------------------------------------------------------------
    def run(self, accesses: AccessSet | None = None) -> LoopDependenceResult:
        accs = accesses if accesses is not None else collect_accesses(self.func, self.loop)
        result = LoopDependenceResult(
            loop_label=self.loop.label,
            parallel=True,
            accesses=accs,
            method="extended-range-test" if self.use_properties else "classic-range-test",
        )
        for a, b in accs.conflicting_pairs():
            verdict = self.test_pair(a, b)
            result.pairs.append(verdict)
            if not verdict.independent:
                result.parallel = False
        return result

    def test_pair(self, a: Access, b: Access) -> PairVerdict:
        ok1, why1 = self._test_direction(a, b)
        if a is b or (a.describe() == b.describe()):
            return PairVerdict(a, b, ok1, why1)
        ok2, why2 = self._test_direction(b, a)
        if ok1 and ok2:
            return PairVerdict(a, b, True, why1 if why1 == why2 else f"{why1}; reverse: {why2}")
        return PairVerdict(a, b, False, why2 if ok1 else why1)

    # -- one direction: A at i1, B at i2, i1 < i2 ------------------------------------
    def _test_direction(self, a: Access, b: Access) -> tuple[bool, str]:
        if a.is_unknown or b.is_unknown:
            return False, "unanalyzable access shape"
        sa = self._shifted(a)[0]
        sb = self._shifted(b)[1]
        if sa.guards or sb.guards:
            return self._test_guarded(sa, sb)
        # no guard, so no pin: the shared iteration ranges imply i1 < i2
        # and the loop bounds, which only a guarded direction must check
        facts, prover, empty = self._shared_context()
        if empty:
            return True, "iteration range empty under the pair's guards"
        return self._disjoint(sa, sb, prover, facts)

    def _test_guarded(self, sa: Access, sb: Access) -> tuple[bool, str]:
        """A direction whose accesses carry guards: specialize the pins,
        refine the iteration ranges and test on facts of its own."""
        pins: dict[Atom, Expr] = {}
        guards = list(sa.guards) + list(sb.guards)
        # specialize equality guards pinning an iteration symbol
        changed = True
        while changed:
            changed = False
            for g in list(guards):
                for pin_sym in (self.i1, self.i2):
                    e = _pin_of(g, pin_sym)
                    if e is not None and pin_sym not in pins and not occurs_in(pin_sym, e):
                        pins[pin_sym] = e
                        guards = [
                            _subst_atom_cond(x, pin_sym, e) for x in guards if x is not g
                        ]
                        sa = _subst_access(sa, pin_sym, e)
                        sb = _subst_access(sb, pin_sym, e)
                        changed = True
                        break
                if changed:
                    break
        facts = self._facts(pins)
        self._refine_iter_ranges(guards, facts, pins)
        prover = Prover(facts)
        # pin consistency: the iteration-order constraint i1 < i2 (and the
        # loop bounds) must remain satisfiable after specialization
        e1 = pins.get(self.i1, self.i1)
        e2 = pins.get(self.i2, self.i2)
        if prover.lt(e1, e2) is Tri.FALSE:
            return True, "iteration order infeasible after guard specialization"
        first, last = self.first, self.last
        if not first.is_bottom and not last.is_bottom:
            for e in (e1, e2):
                if prover.ge(e, first) is Tri.FALSE or prover.le(e, last) is Tri.FALSE:
                    return True, "pinned iteration lies outside the loop bounds"
        # guard feasibility: any provably-false guard kills the pair
        for g in guards:
            if _guard_infeasible(g, prover):
                return True, f"guard infeasible across iterations ({g})"
        if self._ranges_empty(facts, prover):
            return True, "iteration range empty under the pair's guards"
        return self._disjoint(sa, sb, prover, facts)

    def _ranges_empty(self, facts: FactEnv, prover: Prover) -> bool:
        """Has guard refinement (or the loop's own bounds) emptied an
        iteration range?  Such a pair cannot occur."""
        for sym in (self.i1, self.i2):
            rng = facts.sym_range(sym)
            if rng is not None and prover.le(rng.lo, rng.hi) is Tri.FALSE:
                return True
        return False

    # -- the per-loop context -------------------------------------------------------
    def _shifted(self, a: Access) -> tuple[Access, Access]:
        """``a`` at ``i1`` and at ``i2``, built once per access."""
        hit = self._shifts.get(a)
        if hit is None:
            hit = self._shifts[a] = (
                _shift_access(a, self.lv, self.i1),
                _shift_access(a, self.lv, self.i2),
            )
        return hit

    def _shared_context(self) -> tuple[FactEnv, Prover, bool]:
        """The facts, prover and empty-range answer every unguarded
        direction of the loop shares: with neither a pin nor a guard they
        are the same for all of them."""
        if self._shared is None:
            facts = self._facts({})
            prover = Prover(facts)
            self._shared = (facts, prover, self._ranges_empty(facts, prover))
        return self._shared

    def _entry_facts(self) -> FactEnv:
        """The loop's entry facts without iteration ranges, built once;
        callers copy before they add to them."""
        if self._entry is None:
            if self.use_properties:
                self._entry = self.prop_env.to_facts()
            else:
                self._entry = FactEnv()
                for name, rng in self.prop_env.scalars.items():
                    self._entry.set_sym_range(var(name), rng)
                for s, rng in self.prop_env.param_ranges.items():
                    self._entry.set_sym_range(s, rng)
        return self._entry

    def _refine_iter_ranges(
        self, guards: list[CondAtom], facts: FactEnv, pins: dict[Atom, Expr]
    ) -> None:
        """Use guards over the iteration symbols to tighten their ranges
        (e.g. ``i != 0`` with ``i ∈ [0 : n]`` gives ``i ∈ [1 : n]``)."""
        for g in guards:
            for sym in (self.i1, self.i2):
                if sym in pins:
                    continue
                rng = facts.sym_range(sym)
                if rng is None:
                    continue
                e: Expr | None = None
                if g.lhs == sym and not occurs_in(sym, g.rhs):
                    e, op = g.rhs, g.op
                elif g.rhs == sym and not occurs_in(sym, g.lhs):
                    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!=", "==": "=="}
                    e, op = g.lhs, flip[g.op]
                if e is None:
                    continue
                if op == "!=":
                    if e == rng.lo:
                        facts.set_sym_range(sym, symrange(add(rng.lo, 1), rng.hi))
                    elif e == rng.hi:
                        facts.set_sym_range(sym, symrange(rng.lo, sub(rng.hi, 1)))
                elif op in ("<", "<="):
                    hi = sub(e, 1) if op == "<" else e
                    facts.set_sym_range(sym, symrange(rng.lo, _tighter_hi(rng.hi, hi, facts)))
                elif op in (">", ">="):
                    lo = add(e, 1) if op == ">" else e
                    facts.set_sym_range(sym, symrange(_tighter_lo(rng.lo, lo, facts), rng.hi))

    def _facts(self, pins: dict[Atom, Expr]) -> FactEnv:
        """A copy of the entry facts with the iteration ranges
        ``i1 ∈ [first : last]`` and ``i2 ∈ [i1+1 : last]`` (a pinned
        symbol gets none; a pinned ``i1`` bounds ``i2`` by its pin)."""
        facts = self._entry_facts().copy()
        first, last = self.first, self.last
        if not first.is_bottom and not last.is_bottom:
            if self.i1 not in pins:
                facts.set_sym_range(self.i1, symrange(first, last))
            if self.i2 not in pins:
                i1_expr = pins.get(self.i1, self.i1)
                facts.set_sym_range(self.i2, symrange(add(i1_expr, 1), last))
        return facts

    # -- shape dispatch ---------------------------------------------------------------
    def _disjoint(
        self, a: Access, b: Access, prover: Prover, facts: FactEnv
    ) -> tuple[bool, str]:
        """Cross-iteration disjointness of two accesses to the same
        array.  Two index *vectors* collide only when every dimension
        collides simultaneously, so the pair is independent as soon as
        **any** single dimension provably separates; the verdict's
        provenance names the separating dimension."""
        va, vb = a.index, b.index
        assert va is not None and vb is not None  # guarded by is_unknown
        if va.rank != vb.rank:
            return False, "access ranks differ"
        failures: list[str] = []
        for d in range(va.rank):
            ok, why = self._dim_disjoint(va.dims[d], vb.dims[d], a, b, prover, facts)
            if ok:
                return True, (f"dim {d}: {why}" if va.rank > 1 else why)
            failures.append(why)
        if va.rank > 1:
            return False, "no dimension separates (" + "; ".join(
                f"dim {d}: {w}" for d, w in enumerate(failures)
            ) + ")"
        return False, failures[0]

    def _dim_disjoint(
        self,
        da: DimAccess,
        db: DimAccess,
        a: Access,
        b: Access,
        prover: Prover,
        facts: FactEnv,
    ) -> tuple[bool, str]:
        ka, kb = da.kind(), db.kind()
        if "unknown" in (ka, kb):
            return False, "dimension shape unknown"
        if ka == "point" and kb == "point":
            return self._points_distinct(da.point, db.point, a, b, prover)
        if ka == "span" and kb == "span":
            r = prover.ranges_disjoint(da.span, db.span)
            if r is Tri.TRUE:
                return True, "sections proven disjoint (range comparison)"
            return False, "section overlap not refuted"
        if {ka, kb} == {"point", "span"}:
            p, s = (da.point, db.span) if ka == "point" else (db.point, da.span)
            r = _either_lt(prover, p, s.lo, s.hi, p)
            if r is Tri.TRUE:
                return True, "point lies outside the other iteration's section"
            return False, "point-in-section not refuted"
        if ka == "indirect" and kb == "indirect":
            return self._indirect_disjoint(da, db, a, b, prover)
        if "indirect" in (ka, kb):
            # keep dims paired with the accesses that own their guards
            if ka == "indirect":
                ind, other, acc_ind, acc_other = da, db, a, b
            else:
                ind, other, acc_ind, acc_other = db, da, b, a
            rec = self.prop_env.record(ind.indirect.via) if self.use_properties else None
            if rec is not None and rec.has(Prop.IDENTITY):
                conv = _identity_convert(ind)
                if conv is not None:
                    return self._dim_disjoint(
                        conv, other, acc_ind, acc_other, prover, facts
                    )
            ok, why = self._disjoint_by_value_bound(ind, other, prover)
            if ok:
                return True, why
            return False, f"indirection through {ind.indirect.via} vs direct access"
        return False, "unsupported access-shape combination"

    def _disjoint_by_value_bound(
        self, ind: DimAccess, other: DimAccess, prover: Prover
    ) -> tuple[bool, str]:
        """Separate an indirect access from a direct one using the index
        array's *bounded values* (value range, or the section itself for a
        permutation): any value it can hold lies outside the other access."""
        bound = self._value_bound(ind.indirect, prover)
        if bound is None:
            return False, ""
        if other.kind() == "point":
            r = _either_lt(prover, other.point, bound.lo, bound.hi, other.point)
        else:
            r = prover.ranges_disjoint(bound, other.span)
        if r is Tri.TRUE:
            return True, (
                f"{ind.indirect.via} values bounded to {bound}, "
                "disjoint from the direct access"
            )
        return False, ""

    def _value_bound(self, ind: IndirectIndex, prover: Prover) -> SymRange | None:
        """A sound bound on the values ``via[arg]`` can produce — only
        when the accessed arguments provably lie inside the section over
        which the record's bound holds."""
        if not self.use_properties:
            return None
        rec = self.prop_env.record(ind.via)
        if rec is None or rec.subset_guards:
            return None
        if rec.section is not None and rec.section.rank != 1:
            return None  # a subscript array is a rank-1 index map
        section = rec.index_section
        if rec.value_range is None and not (
            rec.has(Prop.PERMUTATION) and section is not None
        ):
            return None
        if not self._args_within_section(ind, section, prover):
            return None
        if rec.value_range is not None:
            return rec.value_range
        # a permutation of section S is onto S: values bounded by S
        return section

    @staticmethod
    def _args_within_section(
        ind: IndirectIndex, section: SymRange | None, prover: Prover
    ) -> bool:
        """Do the accessed arguments provably lie inside ``section``?
        (``None`` = the record holds wherever the program accesses.)"""
        if section is None:
            return True
        if ind.arg_point is not None:
            lo, hi = ind.arg_point, ind.arg_point
        elif ind.arg_span is not None:
            lo, hi = ind.arg_span.lo, ind.arg_span.hi
        else:
            return False
        return prover.le(section.lo, lo) is Tri.TRUE and prover.le(hi, section.hi) is Tri.TRUE

    def _points_distinct(
        self, p1: Expr, p2: Expr, a: Access, b: Access, prover: Prover
    ) -> tuple[bool, str]:
        r = _either_lt(prover, p1, p2, p2, p1)
        if r is Tri.TRUE:
            return True, "subscripts proven distinct (symbolic comparison)"
        if self.use_properties:
            ok, why = self._distinct_by_injectivity(p1, p2, a, b, prover)
            if ok:
                return True, why
            s1 = self._bounded_span_of_point(p1, prover)
            s2 = self._bounded_span_of_point(p2, prover)
            if (
                s1 is not None
                and s2 is not None
                and not (s1.is_point and s2.is_point)
                and prover.ranges_disjoint(s1, s2) is Tri.TRUE
            ):
                return True, "subscript value ranges proven disjoint (bounded index array)"
        return False, "subscript equality not refuted"

    def _bounded_span_of_point(self, p: Expr, prover: Prover) -> SymRange | None:
        """A sound value span for a point subscript: exact for affine
        expressions, bounded through the record's value range for
        ``c * V[x] + rest`` with ``V`` value-bounded and ``x`` inside the
        record's section."""
        if not any(isinstance(at, ArrayTerm) for at in p.atoms()):
            return SymRange.point(p)
        t = _single_array_linear(p)
        if t is None:
            return None
        c, at, rest = t
        bound = self._value_bound(
            IndirectIndex(at.array, arg_point=at.index), prover
        )
        if bound is None:
            return None
        return bound.scale_const(c) + rest

    # -- injectivity reasoning ------------------------------------------------------
    def _distinct_by_injectivity(
        self, p1: Expr, p2: Expr, a: Access, b: Access, prover: Prover, depth: int = 4
    ) -> tuple[bool, str]:
        """``p1 ≠ p2`` via injective subscript arrays: peel matching affine
        wrappers down to ``V[x1]`` vs ``V[x2]`` with ``V`` injective and
        ``x1 ≠ x2``."""
        if depth <= 0:
            return False, "injectivity recursion limit"
        t1 = _single_array_linear(p1)
        t2 = _single_array_linear(p2)
        if t1 is None or t2 is None:
            return False, "subscript not affine in a single array term"
        c1, at1, r1 = t1
        c2, at2, r2 = t2
        if at1.array != at2.array or c1 != c2 or r1 != r2:
            return False, "subscript shapes differ"
        rec = self.prop_env.record(at1.array)
        if rec is None or not rec.has(Prop.INJECTIVE):
            return False, f"{at1.array} not known injective"
        if rec.subset_guards and not (
            _subset_guard_satisfied(rec, at1.index, a.guards)
            and _subset_guard_satisfied(rec, at2.index, b.guards)
        ):
            return False, f"subset injectivity of {at1.array}: guards not established"
        inner = _either_lt(prover, at1.index, at2.index, at2.index, at1.index)
        if inner is Tri.TRUE:
            return True, f"{at1.array} injective and its arguments are distinct"
        ok, why = self._distinct_by_injectivity(
            at1.index, at2.index, a, b, prover, depth - 1
        )
        if ok:
            return True, f"{at1.array} injective ∘ {why}"
        return False, f"arguments of {at1.array} not proven distinct"

    def _indirect_disjoint(
        self, da: DimAccess, db: DimAccess, a: Access, b: Access, prover: Prover
    ) -> tuple[bool, str]:
        ia, ib = da.indirect, db.indirect
        if ia.via != ib.via:
            ba, bb = self._value_bound(ia, prover), self._value_bound(ib, prover)
            if (
                ba is not None
                and bb is not None
                and prover.ranges_disjoint(ba, bb) is Tri.TRUE
            ):
                return True, (
                    f"values of {ia.via} and {ib.via} bounded to disjoint ranges"
                )
            return False, f"indirection through different arrays ({ia.via}, {ib.via})"
        if not self.use_properties:
            return False, "indirect accesses (properties disabled)"
        rec = self.prop_env.record(ia.via)
        if rec is None or not rec.has(Prop.INJECTIVE):
            return False, f"{ia.via} not known injective"
        # argument sets disjoint?
        args_ok = Tri.UNKNOWN
        if ia.arg_point is not None and ib.arg_point is not None:
            args_ok = _either_lt(
                prover, ia.arg_point, ib.arg_point, ib.arg_point, ia.arg_point
            )
        elif ia.arg_span is not None and ib.arg_span is not None:
            args_ok = prover.ranges_disjoint(ia.arg_span, ib.arg_span)
        elif ia.arg_point is not None and ib.arg_span is not None:
            args_ok = _either_lt(
                prover, ia.arg_point, ib.arg_span.lo, ib.arg_span.hi, ia.arg_point
            )
        elif ia.arg_span is not None and ib.arg_point is not None:
            args_ok = _either_lt(
                prover, ib.arg_point, ia.arg_span.lo, ia.arg_span.hi, ib.arg_point
            )
        if args_ok is not Tri.TRUE:
            return False, f"argument sets of {ia.via} not proven disjoint"
        if rec.subset_guards:
            pa = ia.arg_point if ia.arg_point is not None else None
            pb = ib.arg_point if ib.arg_point is not None else None
            if pa is None or pb is None:
                return False, f"subset injectivity of {ia.via}: span arguments unsupported"
            if not (
                _subset_guard_satisfied(rec, pa, a.guards)
                and _subset_guard_satisfied(rec, pb, b.guards)
            ):
                return False, f"subset injectivity of {ia.via}: guards not established"
        return True, f"{ia.via} injective over disjoint argument sets"


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _map_access(a: Access, fn) -> Access:  # noqa: ANN001 — SubstFn
    """Apply a substitution to every dimension and guard of an access."""
    from dataclasses import replace

    index = a.index.subst(fn) if a.index is not None else None
    guards = tuple(CondAtom(g.op, g.lhs.subst(fn), g.rhs.subst(fn)) for g in a.guards)
    return replace(a, index=index, guards=guards)


def _shift_access(a: Access, lv: Sym, to: Sym) -> Access:
    def fn(atom: Atom) -> Expr | None:
        return to if atom == lv else None

    return _map_access(a, fn)


def _subst_access(a: Access, sym: Atom, e: Expr) -> Access:
    def fn(atom: Atom) -> Expr | None:
        return e if atom == sym else None

    return _map_access(a, fn)


def _subst_atom_cond(g: CondAtom, sym: Atom, e: Expr) -> CondAtom:
    def fn(atom: Atom) -> Expr | None:
        return e if atom == sym else None

    return CondAtom(g.op, g.lhs.subst(fn), g.rhs.subst(fn))


def _tighter_lo(old: Expr, new: Expr, facts: FactEnv) -> Expr:
    """The larger of two lower bounds, decided by the prover when
    possible (avoids opaque ``max`` terms that defeat cancellation)."""
    from repro.symbolic.expr import smax

    if old.is_infinite:
        return new
    p = Prover(facts)
    if p.ge(old, new) is Tri.TRUE:
        return old
    if p.ge(new, old) is Tri.TRUE:
        return new
    return smax(old, new)


def _tighter_hi(old: Expr, new: Expr, facts: FactEnv) -> Expr:
    """The smaller of two upper bounds (dual of :func:`_tighter_lo`)."""
    from repro.symbolic.expr import smin

    if old.is_infinite:
        return new
    p = Prover(facts)
    if p.le(old, new) is Tri.TRUE:
        return old
    if p.le(new, old) is Tri.TRUE:
        return new
    return smin(old, new)


def _pin_of(g: CondAtom, sym: Sym) -> Expr | None:
    """If ``g`` is ``sym == e`` (either side), return ``e``."""
    if g.op != "==":
        return None
    if g.lhs == sym:
        return g.rhs
    if g.rhs == sym:
        return g.lhs
    return None


def _either_lt(prover: Prover, a1: Expr, b1: Expr, a2: Expr, b2: Expr) -> Tri:
    """``a1 < b1`` or ``a2 < b2``: the ``tri_or`` of the two queries,
    asking the second only when the first is not TRUE."""
    r = prover.lt(a1, b1)
    if r is Tri.TRUE:
        return r
    return tri_or(r, prover.lt(a2, b2))


def _guard_infeasible(g: CondAtom, prover: Prover) -> bool:
    checks = {
        "==": lambda: _either_lt(prover, g.lhs, g.rhs, g.rhs, g.lhs),
        "!=": lambda: prover.eq(g.lhs, g.rhs),
        "<": lambda: prover.ge(g.lhs, g.rhs),
        "<=": lambda: prover.gt(g.lhs, g.rhs),
        ">": lambda: prover.le(g.lhs, g.rhs),
        ">=": lambda: prover.lt(g.lhs, g.rhs),
    }
    fn = checks.get(g.op)
    if fn is None:
        return False
    return fn() is Tri.TRUE


def _single_array_linear(e: Expr) -> tuple[Const, ArrayTerm, Expr] | None:
    """Decompose ``e == c * V[x] + rest`` with exactly one array term and
    constant ``c``; returns ``(c, V[x], rest)``."""
    arrays = [at for at in e.atoms() if isinstance(at, ArrayTerm)]
    if len(arrays) != 1:
        return None
    at = arrays[0]
    lin = as_linear(e, at)
    if lin is None:
        return None
    c, rest = lin
    if not isinstance(c, Const) or c.value == 0 or occurs_in(at, rest):
        return None
    return c, at, rest


def _subset_guard_satisfied(rec, index: Expr, guards) -> bool:  # noqa: ANN001
    """Do the access guards instantiate the record's subset predicate at
    ``index``?  (Syntactic match after substituting the placeholder.)"""

    def fn_factory(e: Expr):
        def fn(atom: Atom) -> Expr | None:
            return e if atom == _ELEM else None

        return fn

    for pattern in rec.subset_guards:
        fn = fn_factory(index)
        want = CondAtom(pattern.op, pattern.lhs.subst(fn), pattern.rhs.subst(fn))
        if not any(g == want or _implies(g, want) for g in guards):
            return False
    return True


def _implies(g: CondAtom, want: CondAtom) -> bool:
    """Tiny syntactic implication check: ``x > c ⟹ x >= c`` etc."""
    if g.lhs != want.lhs or g.rhs != want.rhs:
        return False
    table = {
        (">", ">="),
        ("<", "<="),
        ("==", ">="),
        ("==", "<="),
    }
    return (g.op, want.op) in table or g.op == want.op


def _identity_convert(d: DimAccess) -> DimAccess | None:
    """With ``Identity(via)``, ``{via[x] : x ∈ S}`` is just ``S``."""
    ind = d.indirect
    if ind.arg_point is not None:
        return DimAccess(point=ind.arg_point, exact=d.exact)
    if ind.arg_span is not None:
        return DimAccess(span=ind.arg_span, exact=d.exact)
    return None
