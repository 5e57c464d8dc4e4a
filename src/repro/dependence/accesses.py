"""Array-access collection for dependence testing.

For a candidate loop with index ``i``, every array access in the body is
summarized *per iteration of that loop* in one of four shapes:

* **point** — a single index, symbolic in ``i`` (``id_to_mt[mt_to_id[i]]``
  is *not* a point in this sense — see indirect);
* **span** — a contiguous index range per iteration, produced by inner
  loops (``colidx[k]``, ``k ∈ [rowstr[i] : rowstr[i+1]-1]``);
* **indirect** — the image of another array over an argument set
  (``Blk[p[k]]`` accesses ``{p[x] : x ∈ [r[b] : r[b+1]-1]}``);
* **unknown** — anything else (whole-array over-approximation).

Accesses carry the *guards* under which they execute; scalar values are
tracked as guarded alternatives (``j1`` in the paper's Figure 9 is
``0`` when ``i == 0`` and ``rowptr[i-1]`` otherwise), which lets the
extended test reason about the first-iteration special case without
peeling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
)
from repro.ir.symx import CondAtom, cond_to_atoms, ir_to_sym
from repro.symbolic.expr import (
    ArrayTerm,
    Atom,
    BOTTOM,
    Const,
    Expr,
    Sym,
    SymKind,
    add,
    as_linear,
    array_term,
    const,
    loopvar,
    mul,
    occurs_in,
    sub,
    var,
)
from repro.symbolic.ranges import SymRange, UNKNOWN_RANGE, range_subst, symrange

_MAX_ALTERNATIVES = 4

Guards = tuple[CondAtom, ...]


@dataclass(frozen=True)
class IndirectIndex:
    """The accessed index set is ``{via[x] : x ∈ args}``."""

    via: str
    arg_point: Expr | None = None
    arg_span: SymRange | None = None

    def __str__(self) -> str:
        arg = str(self.arg_point) if self.arg_point is not None else str(self.arg_span)
        return f"{self.via}[{arg}]"


@dataclass(frozen=True)
class DimAccess:
    """The shape of *one dimension* of an access (point/span/indirect,
    or unknown when none of the three is set)."""

    point: Expr | None = None
    span: SymRange | None = None
    indirect: IndirectIndex | None = None
    exact: bool = True

    @property
    def is_unknown(self) -> bool:
        return self.point is None and self.span is None and self.indirect is None

    def kind(self) -> str:
        if self.point is not None:
            return "point"
        if self.span is not None:
            return "span"
        if self.indirect is not None:
            return "indirect"
        return "unknown"

    def subst(self, fn) -> "DimAccess":  # noqa: ANN001 — SubstFn
        point = self.point.subst(fn) if self.point is not None else None
        span = self.span.subst(fn) if self.span is not None else None
        indirect = None
        if self.indirect is not None:
            ind = self.indirect
            indirect = IndirectIndex(
                ind.via,
                ind.arg_point.subst(fn) if ind.arg_point is not None else None,
                ind.arg_span.subst(fn) if ind.arg_span is not None else None,
            )
        return DimAccess(point, span, indirect, self.exact)

    def __str__(self) -> str:
        if self.point is not None:
            return f"[{self.point}]"
        if self.span is not None:
            return str(self.span)
        if self.indirect is not None:
            return f"{{{self.indirect}}}"
        return "[?]"


@dataclass(frozen=True)
class IndexVector:
    """The full subscript vector of an access, one :class:`DimAccess`
    per dimension; the classic 1-D access is the ``rank == 1`` case."""

    dims: tuple[DimAccess, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)

    def dim(self, d: int) -> DimAccess:
        return self.dims[d]

    def subst(self, fn) -> "IndexVector":  # noqa: ANN001 — SubstFn
        return IndexVector(tuple(d.subst(fn) for d in self.dims))

    def __str__(self) -> str:
        return "".join(str(d) for d in self.dims)


@dataclass(frozen=True)
class Access:
    """One array access shape, per iteration of the tested loop."""

    array: str
    is_write: bool
    index: IndexVector | None = None  # None = nothing known about the shape
    exact: bool = True
    guards: Guards = ()
    label: str = ""  # statement context, for reports

    @property
    def is_unknown(self) -> bool:
        return self.index is None

    @property
    def rank(self) -> int:
        return self.index.rank if self.index is not None else 0

    # -- rank-1 conveniences (exactly the n = 1 case of the vector) ------
    @property
    def point(self) -> Expr | None:
        return self.index.dims[0].point if self.rank == 1 else None

    @property
    def span(self) -> SymRange | None:
        return self.index.dims[0].span if self.rank == 1 else None

    @property
    def indirect(self) -> IndirectIndex | None:
        return self.index.dims[0].indirect if self.rank == 1 else None

    def kind(self) -> str:
        if self.index is None:
            return "unknown"
        if self.rank == 1:
            return self.index.dims[0].kind()
        return "vector"

    def describe(self) -> str:
        rw = "W" if self.is_write else "R"
        idx = str(self.index) if self.index is not None else "[?]"
        g = f" if {' && '.join(map(str, self.guards))}" if self.guards else ""
        return f"{rw} {self.array}{idx}{g}"


@dataclass
class AccessSet:
    """All accesses of one loop body, per iteration of the loop."""

    loop_label: str
    loop_var: str
    accesses: list[Access] = field(default_factory=list)

    def arrays_written(self) -> set[str]:
        return {a.array for a in self.accesses if a.is_write}

    def conflicting_pairs(self) -> list[tuple[Access, Access]]:
        """All (ordered once) pairs that could induce a loop-carried
        dependence: same array, at least one write."""
        pairs: list[tuple[Access, Access]] = []
        by_array: dict[str, list[Access]] = {}
        for a in self.accesses:
            by_array.setdefault(a.array, []).append(a)
        for array, accs in by_array.items():
            if not any(a.is_write for a in accs):
                continue
            for i, a in enumerate(accs):
                for b in accs[i:]:
                    if a.is_write or b.is_write:
                        pairs.append((a, b))
        return pairs

    def describe(self) -> str:
        return "\n".join(a.describe() for a in self.accesses)


# --------------------------------------------------------------------------
# Collector
# --------------------------------------------------------------------------

# scalar state: name -> list of (guards, value-expr); BOTTOM marks unknown
_ScalarAlts = dict[str, list[tuple[Guards, Expr]]]


def collect_accesses(func: IRFunction, loop: SLoop) -> AccessSet:
    """Summarize the accesses of ``loop``'s body per iteration."""
    collector = _Collector(func, loop)
    state: _ScalarAlts = {}
    collector.block(loop.body, state, guards=(), inner_vars={})
    return AccessSet(loop.label, loop.var, collector.out)


class _Collector:
    def __init__(self, func: IRFunction, loop: SLoop) -> None:
        self.func = func
        self.loop = loop
        self.out: list[Access] = []

    # -- statements ------------------------------------------------------------
    def block(
        self,
        stmts: list[Stmt],
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        for s in stmts:
            self.stmt(s, state, guards, inner_vars)

    def stmt(
        self,
        s: Stmt,
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        if isinstance(s, SAssign):
            self._reads_of(s.value, state, guards, inner_vars)
            if isinstance(s.target, IVar):
                self._scalar_assign(s.target.name, s.value, state, guards, inner_vars)
            else:
                for idx in s.target.indices:
                    self._reads_of(idx, state, guards, inner_vars)
                self._array_access(s.target, True, state, guards, inner_vars)
        elif isinstance(s, SIf):
            self._reads_of(s.cond, state, guards, inner_vars)
            atoms, exact = self._cond_atoms(s.cond, state, inner_vars)
            then_state = _copy_state(state)
            else_state = _copy_state(state)
            self.block(s.then, then_state, guards + tuple(atoms), inner_vars)
            neg: Guards = ()
            if exact and len(atoms) == 1:
                neg = (atoms[0].negated(),)
            self.block(s.other, else_state, guards + neg, inner_vars)
            _merge_states(state, then_state, tuple(atoms), else_state, neg)
        elif isinstance(s, SLoop):
            self._inner_loop(s, state, guards, inner_vars)
        elif isinstance(s, SWhile):
            self._havoc(s.body, state, guards)
        elif isinstance(s, SCall):
            for a in s.call.args:
                self._reads_of(a, state, guards, inner_vars)
                if isinstance(a, IVar) and self.func.symtab.is_array(a.name):
                    self.out.append(Access(a.name, True, exact=False, guards=guards, label="call"))
        elif isinstance(s, (SBreak, SContinue, SReturn)):
            pass
        else:
            raise AnalysisError(f"access collector cannot handle {s!r}")

    # -- scalar tracking ----------------------------------------------------------
    def _scalar_assign(
        self,
        name: str,
        value: IExpr,
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        alts = self._eval(value, state, inner_vars)
        if alts is None:
            state[name] = [((), BOTTOM)]
        else:
            state[name] = [(g, e) for g, e in alts]

    def _eval(
        self, e: IExpr, state: _ScalarAlts, inner_vars: dict[str, SymRange]
    ) -> list[tuple[Guards, Expr]] | None:
        """Evaluate to guarded point alternatives (None = unknown)."""
        if isinstance(e, IConst):
            return [((), const(e.value))]
        if isinstance(e, IFloat) or isinstance(e, ICall):
            return None
        if isinstance(e, IVar):
            if e.name == self.loop.var or e.name in inner_vars:
                return [((), loopvar(e.name))]
            if e.name in state:
                alts = state[e.name]
                if any(v.is_bottom for _, v in alts):
                    return None
                return list(alts)
            return [((), var(e.name))]
        if isinstance(e, IArrayRef):
            if len(e.indices) == 1:
                inner = self._eval(e.indices[0], state, inner_vars)
                if inner is None:
                    return None
                return [(g, array_term(e.array, v)) for g, v in inner]
            # a multi-dimensional element used as a *value*: the rank-1
            # symbolic algebra has no vector array terms, so the value
            # stays unknown (the access itself is still recorded
            # per-dimension by _array_access)
            return None
        if isinstance(e, IUn):
            if e.op != "-":
                return None
            inner = self._eval(e.operand, state, inner_vars)
            if inner is None:
                return None
            return [(g, mul(-1, v)) for g, v in inner]
        if isinstance(e, IBin):
            if e.op not in ("+", "-", "*", "/", "%"):
                return None
            left = self._eval(e.left, state, inner_vars)
            right = self._eval(e.right, state, inner_vars)
            if left is None or right is None:
                return None
            from repro.symbolic.expr import intdiv, mod

            ops = {"+": add, "-": sub, "*": mul, "/": intdiv, "%": mod}
            combos: list[tuple[Guards, Expr]] = []
            for (g1, v1), (g2, v2) in itertools.product(left, right):
                combined = ops[e.op](v1, v2)
                if combined.is_bottom:
                    return None
                combos.append((_merge_guards(g1, g2), combined))
            if len(combos) > _MAX_ALTERNATIVES:
                return None
            return combos
        return None

    def _cond_atoms(
        self, cond: IExpr, state: _ScalarAlts, inner_vars: dict[str, SymRange]
    ) -> tuple[list[CondAtom], bool]:
        atoms, exact = cond_to_atoms(cond)
        out: list[CondAtom] = []
        for atom in atoms:
            lhs = self._canon_loopvars(self._subst_points(atom.lhs, state), inner_vars)
            rhs = self._canon_loopvars(self._subst_points(atom.rhs, state), inner_vars)
            if lhs.is_bottom or rhs.is_bottom:
                exact = False
                continue
            out.append(CondAtom(atom.op, lhs, rhs))
        return out, exact

    def _canon_loopvars(self, e: Expr, inner_vars: dict[str, SymRange]) -> Expr:
        """Rewrite plain VAR symbols that name loop variables into LOOPVAR
        symbols so guards and access indices use the same atoms."""

        def fn(atom: Atom) -> Expr | None:
            if (
                isinstance(atom, Sym)
                and atom.kind is SymKind.VAR
                and (atom.name == self.loop.var or atom.name in inner_vars)
            ):
                return loopvar(atom.name)
            return None

        return e.subst(fn)

    def _subst_points(self, e: Expr, state: _ScalarAlts) -> Expr:
        def fn(atom: Atom) -> Expr | None:
            if isinstance(atom, Sym) and atom.name in state:
                alts = state[atom.name]
                if len(alts) == 1 and not alts[0][1].is_bottom:
                    return alts[0][1]
                return BOTTOM
            return None

        return e.subst(fn)

    # -- array accesses ---------------------------------------------------------------
    def _reads_of(
        self,
        e: IExpr,
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        for node in e.walk():
            if isinstance(node, IArrayRef):
                self._array_access(node, False, state, guards, inner_vars)

    def _array_access(
        self,
        ref: IArrayRef,
        is_write: bool,
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        # evaluate every dimension to guarded point alternatives, then
        # combine them into guarded index *vectors* (bounded cross
        # product); an unevaluable dimension stays unknown in place
        combos: list[tuple[Guards, list[Expr | None]]] = [((), [])]
        for ix in ref.indices:
            alts = self._eval(ix, state, inner_vars)
            if alts is None:
                combos = [(g, dims + [None]) for g, dims in combos]
                continue
            merged: list[tuple[Guards, list[Expr | None]]] = []
            for g, dims in combos:
                for g2, idx in alts:
                    merged.append((_merge_guards(g, g2), dims + [idx]))
            if len(merged) > _MAX_ALTERNATIVES:
                self.out.append(Access(ref.array, is_write, exact=False, guards=guards))
                return
            combos = merged
        for g, dims in combos:
            access_guards = _merge_guards(guards, g)
            if all(d is None for d in dims):
                # nothing known about any dimension: whole-array shape
                self.out.append(
                    Access(ref.array, is_write, exact=False, guards=access_guards)
                )
                continue
            shaped = tuple(
                DimAccess(exact=False) if d is None else self._shape_dim(d, inner_vars)
                for d in dims
            )
            self.out.append(
                Access(
                    ref.array,
                    is_write,
                    index=IndexVector(shaped),
                    exact=all(s.exact for s in shaped),
                    guards=access_guards,
                )
            )

    def _shape_dim(self, idx: Expr, inner_vars: dict[str, SymRange]) -> DimAccess:
        """Turn one dimension's index expression (possibly mentioning
        inner loop vars) into point/span/indirect shape."""
        mentioned = [v for v in inner_vars if occurs_in(loopvar(v), idx)]
        if not mentioned:
            return DimAccess(point=idx)
        if len(mentioned) > 1:
            return DimAccess(exact=False)
        v = mentioned[0]
        lv = loopvar(v)
        rng = inner_vars[v]
        lin = as_linear(idx, lv)
        if lin is not None:
            coeff, off = lin
            if isinstance(coeff, Const) and coeff.value != 0 and not occurs_in(lv, off):
                lo = add(mul(coeff, rng.lo if coeff.value > 0 else rng.hi), off)
                hi = add(mul(coeff, rng.hi if coeff.value > 0 else rng.lo), off)
                exact = abs(coeff.value) == 1
                return DimAccess(span=symrange(lo, hi), exact=exact)
        # indirect: idx == via[f(v)] with f linear in v
        if isinstance(idx, ArrayTerm) and occurs_in(lv, idx.index):
            flin = as_linear(idx.index, lv)
            if flin is not None:
                coeff, off = flin
                if isinstance(coeff, Const) and coeff.value != 0 and not occurs_in(lv, off):
                    lo = add(mul(coeff, rng.lo if coeff.value > 0 else rng.hi), off)
                    hi = add(mul(coeff, rng.hi if coeff.value > 0 else rng.lo), off)
                    return DimAccess(
                        indirect=IndirectIndex(idx.array, arg_span=symrange(lo, hi)),
                        exact=abs(coeff.value) == 1,
                    )
        # sound over-approximation: bound the index over the inner range
        lo_b = range_subst(idx, {lv: rng}, "lo")
        hi_b = range_subst(idx, {lv: rng}, "hi")
        if not lo_b.is_infinite and not hi_b.is_infinite:
            return DimAccess(span=symrange(lo_b, hi_b), exact=False)
        return DimAccess(exact=False)

    # -- inner loops ----------------------------------------------------------------------
    def _inner_loop(
        self,
        inner: SLoop,
        state: _ScalarAlts,
        guards: Guards,
        inner_vars: dict[str, SymRange],
    ) -> None:
        lb_alts = self._eval(inner.lb, state, inner_vars)
        ub_alts = self._eval(inner.ub, state, inner_vars)
        # reads performed by evaluating the bounds each outer iteration
        self._reads_of(inner.lb, state, guards, inner_vars)
        self._reads_of(inner.ub, state, guards, inner_vars)
        if lb_alts is None or ub_alts is None or abs(inner.step) != 1:
            self._havoc(inner.body, state, guards)
            return
        combos = [
            (_merge_guards(g1, g2), lb, ub)
            for (g1, lb), (g2, ub) in itertools.product(lb_alts, ub_alts)
        ]
        if len(combos) > _MAX_ALTERNATIVES:
            self._havoc(inner.body, state, guards)
            return
        # scalars assigned inside the inner loop have unknown values there
        inner_state = _copy_state(state)
        from repro.analysis.phase1 import _modified_scalars

        for name in _modified_scalars(inner.body, {}):
            inner_state[name] = [((), BOTTOM)]
        for g, lb, ub in combos:
            if inner.step > 0:
                rng = symrange(lb, sub(ub, 1))
            else:
                rng = symrange(add(ub, 1), lb)
            nested = dict(inner_vars)
            nested[inner.var] = rng
            body_state = _copy_state(inner_state)
            self.block(inner.body, body_state, _merge_guards(guards, g), nested)
        # after the loop, its modified scalars are unknown to the outer level
        for name in _modified_scalars(inner.body, {}):
            state[name] = [((), BOTTOM)]
        state[inner.var] = [((), BOTTOM)]

    def _havoc(self, stmts: list[Stmt], state: _ScalarAlts, guards: Guards) -> None:
        from repro.analysis.phase1 import _modified_scalars, _written_arrays

        for arr in _written_arrays(stmts):
            self.out.append(Access(arr, True, exact=False, guards=guards, label="opaque"))
        for name in _modified_scalars(stmts, {}):
            state[name] = [((), BOTTOM)]
        # reads inside opaque regions: conservative whole-array reads
        def visit(ss: list[Stmt]) -> None:
            for s in ss:
                for e in s.exprs():
                    for node in e.walk():
                        if isinstance(node, IArrayRef):
                            self.out.append(
                                Access(node.array, False, exact=False, guards=guards)
                            )
                for b in s.blocks():
                    visit(b)

        visit(stmts)


# --------------------------------------------------------------------------
# state helpers
# --------------------------------------------------------------------------


def _copy_state(state: _ScalarAlts) -> _ScalarAlts:
    return {k: list(v) for k, v in state.items()}


def _merge_guards(a: Guards, b: Guards) -> Guards:
    out = list(a)
    for g in b:
        if g not in out:
            out.append(g)
    return tuple(out)


def _merge_states(
    state: _ScalarAlts,
    then_state: _ScalarAlts,
    then_guards: Guards,
    else_state: _ScalarAlts,
    else_guards: Guards,
) -> None:
    names = set(then_state) | set(else_state)
    for name in names:
        t = then_state.get(name)
        e = else_state.get(name)
        if t == e:
            if t is not None:
                state[name] = t
            continue
        alts: list[tuple[Guards, Expr]] = []
        for src, g in ((t, then_guards), (e, else_guards)):
            if src is None:
                src = [((), var(name))]
            for g2, v in src:
                alts.append((_merge_guards(g, g2), v))
        if len(alts) > _MAX_ALTERNATIVES or any(v.is_bottom for _, v in alts):
            state[name] = [((), BOTTOM)]
        else:
            state[name] = alts
