"""Phase 1: per-iteration effect analysis (Section 3.3).

The loop body is abstractly interpreted with symbolic range analysis
(Blume–Eigenmann style).  Scalars start at λ(x); every assignment updates
the scalar's may-range; ``if`` statements analyze both branches under
refined conditions and join.  Array writes are collected as *updates*
``(index expression, value range, guards, always?)`` — Phase 2 later
decides which updates are aggregatable (subscript of the form ``i + k``).

Inner loops must already be collapsed: the driver replaces them by
:class:`~repro.analysis.phase2.LoopSummary` objects, which Phase 1 applies
as if they were compound assignments (the paper's "the loop is collapsed,
that is, substituted by a set of expressions representing its effect").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.env import PropertyEnv
from repro.errors import AnalysisError
from repro.ir.nodes import (
    IArrayRef,
    IBin,
    ICall,
    IConst,
    IExpr,
    IFloat,
    IRFunction,
    IUn,
    IVar,
    SAssign,
    SBreak,
    SCall,
    SContinue,
    SIf,
    SLoop,
    SReturn,
    SWhile,
    Stmt,
    walk_stmts,
)
from repro.ir.symtab import SymbolTable
from repro.ir.symx import CondAtom, cond_to_atoms, ir_to_sym
from repro.symbolic.compare import Prover, Tri
from repro.symbolic.expr import (
    BOTTOM,
    Expr,
    Sym,
    SymKind,
    add,
    array_term,
    const,
    lam,
    loopvar,
    intdiv,
    mod,
    sub,
    var,
)
from repro.symbolic.facts import FactEnv
from repro.symbolic.ranges import SymRange, UNKNOWN_RANGE, symrange


@dataclass(frozen=True)
class ArrayUpdate:
    """One array write as seen from a single iteration.

    ``indices`` is the full subscript vector, one symbolic expression per
    dimension (each may mention the loop var); classic 1-D updates are
    the ``rank == 1`` case.
    """

    indices: tuple[Expr, ...]  # symbolic index vector
    value: SymRange  # may-range of the written value
    guards: tuple[CondAtom, ...] = ()  # conditions under which the write happens
    always: bool = True  # True = executes every iteration (must-write)

    @property
    def rank(self) -> int:
        return len(self.indices)

    @property
    def index(self) -> Expr:
        """The leading-dimension subscript (the paper's ``i + k`` slot)."""
        return self.indices[0]

    @property
    def trailing(self) -> tuple[Expr, ...]:
        return self.indices[1:]

    def guarded(self) -> "ArrayUpdate":
        return replace(self, always=False)

    def __str__(self) -> str:
        g = f" if {' && '.join(map(str, self.guards))}" if self.guards else ""
        m = "" if self.always else " (may)"
        subs = "".join(f"[{i}]" for i in self.indices)
        return f"{subs} := {self.value}{g}{m}"


@dataclass(frozen=True)
class GuardedGroup:
    """Pre-join record of one top-level ``if``/``else`` in a loop body.

    The join of a conditional's branches deliberately widens (shared
    guards only, value ranges joined), which loses the branch structure
    some aggregation rules need — e.g. the guarded-counter rule that
    derives subset injectivity from ``if (g) { a[i] = count; count++ }
    else { a[i] = -1 }``.  The group keeps the branch-local array updates
    and end-of-branch scalar values alongside the joined effect.
    """

    guards: tuple[CondAtom, ...]  # then-branch condition atoms
    exact: bool  # else branch is the exact complement
    then_updates: dict[str, tuple[ArrayUpdate, ...]]
    else_updates: dict[str, tuple[ArrayUpdate, ...]]
    then_scalars: dict[str, SymRange]  # end-of-then values (λ-relative)
    else_scalars: dict[str, SymRange]


@dataclass
class IterationEffect:
    """Result of Phase 1 for one loop: the body's effect on the variables
    of interest after a single iteration."""

    loop_label: str
    loop_var: str
    scalars: dict[str, SymRange]  # end-of-body ranges, in terms of λ symbols
    updates: dict[str, list[ArrayUpdate]]
    bottom_arrays: set[str]  # arrays written in unanalyzable ways
    bottom_scalars: set[str]  # scalars whose effect is ⊥
    modified_scalars: set[str]
    cond_groups: list[GuardedGroup] = field(default_factory=list)

# --------------------------------------------------------------------------
# Abstract state
# --------------------------------------------------------------------------


@dataclass
class _State:
    scalars: dict[str, SymRange]
    updates: dict[str, list[ArrayUpdate]]
    bottom_arrays: set[str]
    guards: tuple[CondAtom, ...] = ()
    cond_groups: list[GuardedGroup] = field(default_factory=list)

    def copy(self) -> "_State":
        return _State(
            dict(self.scalars),
            {k: list(v) for k, v in self.updates.items()},
            set(self.bottom_arrays),
            self.guards,
            list(self.cond_groups),
        )


class Phase1Analyzer:
    """Runs Phase 1 for one loop body.

    ``collapsed`` maps ``id(SLoop)`` of *inner* loops to their
    :class:`LoopSummary`; the driver guarantees all inner loops appear
    there (inside-out processing order).
    """

    def __init__(
        self,
        func: IRFunction,
        prop_env: PropertyEnv,
        collapsed: dict[int, "LoopSummary"],
    ) -> None:
        self.func = func
        self.symtab: SymbolTable = func.symtab
        self.prop_env = prop_env
        self.collapsed = collapsed

    # -- entry point -----------------------------------------------------------
    def run(self, loop: SLoop) -> IterationEffect:
        modified = _modified_scalars(loop.body, self.collapsed)
        state = _State(scalars={}, updates={}, bottom_arrays=set())
        for name in modified:
            state.scalars[name] = SymRange.point(lam(name))
        self._block(loop.body, state, loop)
        return IterationEffect(
            loop_label=loop.label,
            loop_var=loop.var,
            scalars=state.scalars,
            updates=state.updates,
            bottom_arrays=state.bottom_arrays,
            bottom_scalars={
                n for n, r in state.scalars.items() if r.is_unknown
            },
            modified_scalars=modified,
            cond_groups=state.cond_groups,
        )

    # -- statement interpretation -------------------------------------------------
    def _block(self, stmts: list[Stmt], state: _State, loop: SLoop) -> None:
        for s in stmts:
            self._stmt(s, state, loop)

    def _stmt(self, s: Stmt, state: _State, loop: SLoop) -> None:
        if isinstance(s, SAssign):
            self._assign(s, state, loop)
        elif isinstance(s, SIf):
            self._if(s, state, loop)
        elif isinstance(s, SLoop):
            summary = self.collapsed.get(id(s))
            if summary is None:
                raise AnalysisError(
                    f"inner loop {s.label} not collapsed before Phase 1 of {loop.label}"
                )
            summary.apply_to_state(state, self)
        elif isinstance(s, SWhile):
            self._havoc_block(s.body, state)
        elif isinstance(s, SCall):
            self._havoc_call(s.call, state)
        elif isinstance(s, (SBreak, SContinue, SReturn)):
            # control flow escaping the body: degrade everything modified
            for name in list(state.scalars):
                state.scalars[name] = UNKNOWN_RANGE
        else:
            raise AnalysisError(f"unsupported statement in Phase 1: {s!r}")

    def _assign(self, s: SAssign, state: _State, loop: SLoop) -> None:
        value = self.eval_range(s.value, state, loop)
        if isinstance(s.target, IVar):
            if self.symtab.is_int_scalar(s.target.name) or self.symtab.lookup(s.target.name) is None:
                state.scalars[s.target.name] = value
            else:
                state.scalars[s.target.name] = UNKNOWN_RANGE
            return
        assert isinstance(s.target, IArrayRef)
        arr = s.target.array
        indices = tuple(self.eval_expr(ix, state, loop) for ix in s.target.indices)
        if any(ix.is_bottom for ix in indices):
            state.bottom_arrays.add(arr)
            return
        upd = ArrayUpdate(
            indices=indices, value=value, guards=state.guards, always=not state.guards
        )
        state.updates.setdefault(arr, []).append(upd)

    def _if(self, s: SIf, state: _State, loop: SLoop) -> None:
        atoms, exact = cond_to_atoms(s.cond)
        then_state = state.copy()
        else_state = state.copy()
        if atoms:
            then_state.guards = state.guards + tuple(atoms)
            self._refine(then_state, atoms, loop)
        if exact and len(atoms) == 1:
            neg = (atoms[0].negated(),)
            else_state.guards = state.guards + neg
            self._refine(else_state, list(neg), loop)
        self._block(s.then, then_state, loop)
        self._block(s.other, else_state, loop)
        if not state.guards:
            state.cond_groups.append(
                GuardedGroup(
                    guards=tuple(atoms),
                    exact=bool(exact and len(atoms) == 1),
                    then_updates=_delta_updates(state, then_state),
                    else_updates=_delta_updates(state, else_state),
                    then_scalars=dict(then_state.scalars),
                    else_scalars=dict(else_state.scalars),
                )
            )
        # restore outer guard context, then join
        then_state.guards = state.guards
        else_state.guards = state.guards
        joined = _join_states(then_state, else_state)
        state.scalars = joined.scalars
        state.updates = joined.updates
        state.bottom_arrays = joined.bottom_arrays

    def _refine(self, state: _State, atoms: list[CondAtom], loop: SLoop) -> None:
        """Narrow scalar ranges using comparison atoms (conditional
        refinement à la symbolic range propagation)."""
        for atom in atoms:
            for side_expr, other, op in (
                (atom.lhs, atom.rhs, atom.op),
                (atom.rhs, atom.lhs, _flip(atom.op)),
            ):
                if isinstance(side_expr, Sym) and side_expr.kind is SymKind.VAR:
                    name = side_expr.name
                    cur = state.scalars.get(name)
                    if cur is None:
                        continue
                    bound = self._subst_state(other, state)
                    if bound.is_bottom:
                        continue
                    if op in ("<", "<="):
                        hi = bound if op == "<=" else sub(bound, 1)
                        state.scalars[name] = cur.meet(SymRange.make(cur.lo, hi))
                    elif op in (">", ">="):
                        lo = bound if op == ">=" else add(bound, 1)
                        state.scalars[name] = cur.meet(SymRange.make(lo, cur.hi))
                    elif op == "==":
                        state.scalars[name] = SymRange.point(bound)

    def _subst_state(self, e: Expr, state: _State) -> Expr:
        """Substitute current scalar *point* values into ``e``."""

        def fn(atom):
            if isinstance(atom, Sym) and atom.kind is SymKind.VAR:
                r = state.scalars.get(atom.name)
                if r is not None and r.is_point:
                    return r.lo
            return None

        return e.subst(fn)

    def _havoc_block(self, stmts: list[Stmt], state: _State) -> None:
        """Opaque code: kill everything it writes."""
        mods = _modified_scalars(stmts, self.collapsed)
        for name in mods:
            state.scalars[name] = UNKNOWN_RANGE
        for arr in _written_arrays(stmts):
            state.bottom_arrays.add(arr)

    def _havoc_call(self, call: ICall, state: _State) -> None:
        for a in call.args:
            if isinstance(a, IVar) and self.symtab.is_array(a.name):
                state.bottom_arrays.add(a.name)

    # -- expression evaluation -------------------------------------------------------
    def eval_expr(self, e: IExpr, state: _State, loop: SLoop) -> Expr:
        """Evaluate to a *point* symbolic expression (⊥ when the value is
        known only as a non-degenerate range)."""
        r = self.eval_range(e, state, loop)
        if r.is_point:
            return r.lo
        return BOTTOM

    def eval_range(self, e: IExpr, state: _State, loop: SLoop) -> SymRange:
        if isinstance(e, IConst):
            return SymRange.point(const(e.value))
        if isinstance(e, IFloat):
            return UNKNOWN_RANGE
        if isinstance(e, IVar):
            return self._var_range(e.name, state, loop)
        if isinstance(e, IArrayRef):
            return self._array_read(e, state, loop)
        if isinstance(e, IUn):
            if e.op == "-":
                return -self.eval_range(e.operand, state, loop)
            return UNKNOWN_RANGE
        if isinstance(e, IBin):
            return self._bin_range(e, state, loop)
        if isinstance(e, ICall):
            return UNKNOWN_RANGE
        return UNKNOWN_RANGE

    def _var_range(self, name: str, state: _State, loop: SLoop) -> SymRange:
        if name == loop.var:
            return SymRange.point(loopvar(name))
        if name in state.scalars:
            return state.scalars[name]
        # loop-invariant within this body; known program-point range?
        env_range = self.prop_env.scalar_range(name)
        if env_range is not None and env_range.is_point:
            return env_range
        return SymRange.point(var(name))

    def _array_read(self, e: IArrayRef, state: _State, loop: SLoop) -> SymRange:
        if e.array in state.bottom_arrays:
            return UNKNOWN_RANGE
        indices = tuple(self.eval_expr(ix, state, loop) for ix in e.indices)
        if any(ix.is_bottom for ix in indices):
            return UNKNOWN_RANGE
        # read-after-write within the same iteration (exact index match)
        for upd in reversed(state.updates.get(e.array, [])):
            if upd.indices == indices and upd.always:
                return upd.value
        # value range recorded by an earlier (outer) analysis
        rec = self.prop_env.record(e.array)
        if rec is not None and rec.value_range is not None and not rec.subset_guards:
            if self._index_in_section(indices, rec.section, loop):
                return rec.value_range
        # known point value (e.g. rowptr[0] = 0)
        pt = self.prop_env.point_at(e.array, indices)
        if pt is not None:
            return pt
        if len(indices) == 1:
            return SymRange.point(array_term(e.array, indices[0]))
        # a multi-dimensional element has no rank-1 symbolic term; its
        # value is known only through the record/point channels above
        return UNKNOWN_RANGE

    def _index_in_section(
        self, indices: tuple[Expr, ...], section, loop: SLoop  # noqa: ANN001 — MultiSection
    ) -> bool:
        if section is None:
            return True
        if section.rank != len(indices):
            return False
        facts = self._loop_facts(loop)
        p = Prover(facts)
        from repro.symbolic.compare import tri_and

        for rng, index in zip(section.dims, indices):
            inside = tri_and(p.le(rng.lo, index), p.le(index, rng.hi))
            if inside is not Tri.TRUE:
                return False
        return True

    def _loop_facts(self, loop: SLoop) -> FactEnv:
        facts = self.prop_env.to_facts()
        lb = ir_to_sym(loop.lb)
        ub = ir_to_sym(loop.ub)
        lv = loopvar(loop.var)
        if not lb.is_bottom and not ub.is_bottom:
            if loop.step > 0:
                facts.set_sym_range(lv, symrange(lb, sub(ub, 1)))
            else:
                facts.set_sym_range(lv, symrange(add(ub, 1), lb))
        return facts

    def _bin_range(self, e: IBin, state: _State, loop: SLoop) -> SymRange:
        left = self.eval_range(e.left, state, loop)
        right = self.eval_range(e.right, state, loop)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left.mul_range(right)
        if e.op in ("/", "%"):
            if left.is_point and right.is_point:
                f = intdiv if e.op == "/" else mod
                val = f(left.lo, right.lo)
                if not val.is_bottom:
                    return SymRange.point(val)
            if e.op == "%" and right.is_point:
                # x % c with c a positive constant: [0 : c-1] when x >= 0
                from repro.symbolic.expr import Const

                c = right.lo
                if isinstance(c, Const) and c.value > 0:
                    lo_known_nonneg = (
                        Prover(self._loop_facts(loop)).nonneg(left.lo) is Tri.TRUE
                        if left.has_finite_lo
                        else False
                    )
                    lo = const(0) if lo_known_nonneg else const(-(c.value - 1))
                    return symrange(lo, const(c.value - 1))
            return UNKNOWN_RANGE
        return UNKNOWN_RANGE  # comparisons/logicals have no arithmetic range


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]


def _modified_scalars(stmts: list[Stmt], collapsed: dict[int, "LoopSummary"]) -> set[str]:
    out: set[str] = set()
    for s in walk_stmts(stmts):
        if isinstance(s, SAssign) and isinstance(s.target, IVar):
            out.add(s.target.name)
        if isinstance(s, SLoop):
            out.add(s.var)
    return out


def _written_arrays(stmts: list[Stmt]) -> set[str]:
    return {
        s.target.array
        for s in walk_stmts(stmts)
        if isinstance(s, SAssign) and isinstance(s.target, IArrayRef)
    }


def _join_states(a: _State, b: _State) -> _State:
    scalars: dict[str, SymRange] = {}
    for name in set(a.scalars) | set(b.scalars):
        ra = a.scalars.get(name)
        rb = b.scalars.get(name)
        if ra is None or rb is None:
            scalars[name] = UNKNOWN_RANGE
        else:
            scalars[name] = ra.join(rb)
    updates: dict[str, list[ArrayUpdate]] = {}
    for arr in set(a.updates) | set(b.updates):
        ua = a.updates.get(arr, [])
        ub = b.updates.get(arr, [])
        merged: list[ArrayUpdate] = []
        # identical-index unconditional updates on both sides stay must
        consumed_b: set[int] = set()
        for upd_a in ua:
            match = next(
                (
                    j
                    for j, upd_b in enumerate(ub)
                    if j not in consumed_b and upd_b.indices == upd_a.indices
                ),
                None,
            )
            if match is not None:
                upd_b = ub[match]
                consumed_b.add(match)
                merged.append(
                    ArrayUpdate(
                        indices=upd_a.indices,
                        value=upd_a.value.join(upd_b.value),
                        guards=_common_guards(upd_a.guards, upd_b.guards),
                        always=upd_a.always and upd_b.always,
                    )
                )
            else:
                merged.append(upd_a.guarded() if not upd_a.guards else upd_a)
        for j, upd_b in enumerate(ub):
            if j not in consumed_b:
                merged.append(upd_b.guarded() if not upd_b.guards else upd_b)
        updates[arr] = merged
    return _State(scalars, updates, a.bottom_arrays | b.bottom_arrays, a.guards)


def _common_guards(a: tuple[CondAtom, ...], b: tuple[CondAtom, ...]) -> tuple[CondAtom, ...]:
    return tuple(g for g in a if g in b)


def _delta_updates(base: _State, branch: _State) -> dict[str, tuple[ArrayUpdate, ...]]:
    """Updates ``branch`` added per array beyond those already in ``base``."""
    out: dict[str, tuple[ArrayUpdate, ...]] = {}
    for arr, upds in branch.updates.items():
        before = len(base.updates.get(arr, []))
        new = tuple(upds[before:])
        if new:
            out[arr] = new
    return out


# NOTE: "LoopSummary" (from repro.analysis.phase2) is referenced only by
# name in annotations and duck-typed at runtime to avoid a circular import.
