"""Runtime inspector: vectorized dependence predicates for loops the
static stack leaves ``unknown`` (ROADMAP direction 3).

The paper's Related Work dismisses inspector/executor schemes for the
"significant overhead of the inserted inspection code"; this module
reproduces that head-to-head honestly by making the inspector *cheap*:

* The inspection is lowered **from the same access algebra the static
  tests consume** (:func:`repro.dependence.accesses.collect_accesses`):
  every conflicting pair's :class:`~repro.dependence.accesses.DimAccess`
  shapes become a handful of NumPy predicates over the actual index
  array values — never a full oracle trace.  Each predicate mirrors a
  static-test counterpart (see :data:`PREDICATES`): per-iteration range
  separation is the extended Range Test's argument evaluated on
  concrete values, injectivity is the distinct-subscripts refutation,
  the ``np.diff`` monotone fast path is the paper's monotonicity
  property.
* Results are **content-addressed** by ``(function fingerprint, loop
  label, index-array byte fingerprint)`` and registered as a memo table
  (``runtime.inspections``), so the steady-state cost of the common CSR
  case — same sparsity structure call after call — is one hash.

A passing inspection lets the parallel engine dispatch the loop through
a validated :class:`~repro.parallelizer.schedule.ParallelSchedule`
exactly like a statically-proven loop; a failing one runs serially with
the failing predicate recorded in provenance.  The inspector never
*executes* the loop and never mutates the environment, so a wrong
refusal costs performance, never correctness — and every predicate is
conservative (guards it cannot evaluate over-approximate to "always
executes", hulls over-approximate value sets, a value that may leave
int64 is uninspectable), so a wrong *acceptance* cannot happen for the
shapes it supports.

Fault sites: ``engine.inspector.cache`` fires before the memo lookup,
``engine.inspector.predicate`` before predicate evaluation; both land
the loop on the serial path via the parallel engine's fallback ladder.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.dependence.accesses import (
    AccessSet,
    DimAccess,
    Guards,
    collect_accesses,
)
from repro.ir.nodes import IRFunction, SLoop
from repro.runtime.compiler import (  # the vector path's exact int64 arithmetic
    _AFFINE, _CMPS, _INT64_MAX, _INT64_MIN, _INVARIANT, _NONAFFINE, _SPANS, _VecFallback,
    _int64_range, _shape_of, _vec_add, _vec_div, _vec_mod, _vec_mul,
)
from repro.symbolic.expr import (
    ArrayTerm,
    Const,
    Expr,
    OpaqueOp,
    OpaqueTerm,
    Sum,
    Sym,
    SymKind,
    register_memo_table,
)

#: The predicate vocabulary and the static-test counterpart each one
#: mirrors — the "add-an-inspector-predicate" recipe in ROADMAP.md
#: requires every entry here to name its mirror and be reachable from
#: the ``engine.inspector.predicate`` fault site.
PREDICATES = {
    "injectivity": "distinct per-iteration subscripts (static mirror: the "
    "dependence test's distinct-points refutation; np.unique)",
    "value-disjointness": "the two accesses' index value sets never meet "
    "across iterations (static mirror: value-range disjointness)",
    "range-disjointness": "per-iteration index ranges are pairwise disjoint "
    "(static mirror: the extended Range Test; np.diff monotone fast path)",
    "indirect-injectivity": "disjoint argument ranges through an index "
    "array that is injective over the inspected hull (static mirror: the "
    "paper's injectivity/monotonicity array property)",
    "write-bounds": "write subscripts stay inside the written array's "
    "extents (static mirror: range containment facts)",
}


class _Cant(Exception):
    """This expression cannot be evaluated vectorized here — the
    predicate is inconclusive (never unsound: inconclusive ⇒ serial)."""


class _Refuse(Exception):
    """A predicate evaluated and the answer is 'not parallel'."""


@dataclass(frozen=True)
class InspectionResult:
    """Outcome of one runtime inspection of one loop activation."""

    loop_label: str
    parallel: bool
    #: predicate names that ran (pass or fail), in evaluation order
    checked: tuple[str, ...]
    #: the failing predicate (with its pair context), if any
    failed: "str | None"
    reason: str
    cached: bool = False
    cost_us: float = 0.0

    def describe(self) -> str:
        verdict = "PARALLEL" if self.parallel else "serial"
        src = "memo hit" if self.cached else "inspected"
        return f"{self.loop_label}: {verdict} ({src}, {self.cost_us:.1f}us) — {self.reason}"


# --------------------------------------------------------------------------
# vectorized expression evaluation
# --------------------------------------------------------------------------


def _scalar(v: Any) -> "tuple[int, int]":
    """A scalar operand as ``(value, shape)``: an int inside int64, or
    its expression is uninspectable."""
    if type(v) is not int or not _INT64_MIN <= v <= _INT64_MAX:
        raise _Cant(f"scalar operand {v!r} is not an int64")
    return v, _INVARIANT


def _checked(op: str, x: "tuple[Any, int]", y: "tuple[Any, int]") -> "tuple[Any, int]":
    """``x + y`` or ``x * y`` of ``(value, shape)`` operands by the vector
    path's overflow-checked ops; a ``0`` addend or ``1`` factor costs no
    bound."""
    (a, ka), (b, kb) = x, y
    if ka == _INVARIANT and a == (0 if op == "+" else 1):
        return y
    sa, sb = _SPANS[ka], _SPANS[kb]
    return (_vec_add(a, b, 1, sa, sb) if op == "+" else _vec_mul(a, b, sa, sb)), _shape_of(op, ka, kb)


def _index_array(env: dict, name: str) -> np.ndarray:
    """The 1-D int array ``name`` binds, of a dtype int64 holds."""
    arr = env.get(name)
    if not isinstance(arr, np.ndarray) or arr.ndim != 1:
        raise _Cant(f"{name} is not a 1-D array")
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise _Cant(f"index array {name} has dtype {arr.dtype}")
    return arr


class _Ctx:
    """One activation's evaluation context: the loop-variable value
    vector plus the live environment.  All predicates evaluate against
    this — one iteration per lane."""

    def __init__(self, env: dict, var: str, lb: int, m: int, step: int) -> None:
        self.env = env
        self.var = var
        self.n = m
        #: ``None`` where the loop variable leaves int64
        self.ivals = _int64_range(lb, m, step)
        self._mask_cache: dict[Guards, np.ndarray] = {}

    # -- expression lanes ---------------------------------------------------
    def eval(self, e: Expr, mask: np.ndarray) -> np.ndarray:
        """Evaluate ``e`` to an int64 lane vector (one value per
        iteration).  Lanes outside ``mask`` hold arbitrary in-bounds
        values — callers must never read them.  A value that may leave
        int64 makes ``e`` uninspectable."""
        try:
            v, _ = self._lanes(e, mask)
            return v if isinstance(v, np.ndarray) else np.full(self.n, v, dtype=np.int64)
        except (_VecFallback, OverflowError):  # a checked op, or a quotient like -2^63 / -1
            raise _Cant(f"{e} may leave int64") from None

    def _lanes(self, e: Expr, mask: np.ndarray) -> "tuple[Any, int]":
        """``e`` as ``(value, shape)``: an int scalar, or an int64
        vector bounded by its shape as the vector path bounds it (the
        loop variable and a value affine in it by their endpoints)."""
        if isinstance(e, Const):
            return _scalar(e.value)
        if isinstance(e, Sym):
            if e.kind is SymKind.LOOPVAR:
                if e.name != self.var:
                    raise _Cant(f"inner loop variable {e.name}")
                if self.ivals is None:
                    raise _Cant(f"loop variable {e.name} leaves int64")
                return self.ivals, _AFFINE
            val = self.env.get(e.name)
            if isinstance(val, (int, np.integer)):
                return _scalar(int(val))
            raise _Cant(f"scalar {e.name} is not a bound integer")
        if isinstance(e, ArrayTerm):
            idx, kind = self._lanes(e.index, mask)
            return self._gather(e.array, idx, mask), (_INVARIANT if kind == _INVARIANT else _NONAFFINE)
        if isinstance(e, OpaqueTerm):
            args = [self._lanes(a, mask) for a in e.args]
            if e.op in (OpaqueOp.MIN, OpaqueOp.MAX):
                fold = np.minimum if e.op is OpaqueOp.MIN else np.maximum
                v, kind = args[0]
                for x, kx in args[1:]:
                    v, kind = fold(v, x), _shape_of("min", kind, kx)
                return v, kind
            (a, ka), (b, kb) = args
            if bool(np.any((b == 0) & mask)):
                raise _Refuse(f"division by zero evaluating {e}")
            if kb != _INVARIANT:
                # lanes outside mask may divide by any nonzero value
                b, kb = np.where(b == 0, 1, b), _NONAFFINE
            # C semantics: truncate toward zero (numpy // floors)
            div = _vec_div if e.op is OpaqueOp.FLOORDIV else _vec_mod
            return div(a, b, _SPANS[ka], _SPANS[kb]), _shape_of("/", ka, kb)
        if isinstance(e, Sum):
            acc = _scalar(e.const)
            for coeff, mono in e.terms:
                prod = _scalar(coeff)
                for atom in mono:
                    prod = _checked("*", prod, self._lanes(atom, mask))
                acc = _checked("+", acc, prod)
            return acc
        raise _Cant(f"cannot vectorize {e}")

    def _gather(self, name: str, idx: Any, mask: np.ndarray) -> Any:
        arr = _index_array(self.env, name)
        if bool(np.any(((idx < 0) | (idx >= arr.shape[0])) & mask)):
            raise _Refuse(f"subscript into {name} out of bounds during inspection")
        if not arr.shape[0]:  # no lane reads it (the check above refuses one that does)
            return idx * 0
        return arr[np.clip(idx, 0, arr.shape[0] - 1)].astype(np.int64, copy=False)

    # -- guard masks --------------------------------------------------------
    def guard_mask(self, guards: Guards) -> np.ndarray:
        """Lanes on which a guarded access executes.  An unevaluable
        guard over-approximates to all-True — more active lanes can only
        make predicates *fail* more, never accept wrongly."""
        hit = self._mask_cache.get(guards)
        if hit is not None:
            return hit
        mask = np.ones(self.n, dtype=bool)
        for g in guards:
            try:
                lhs = self.eval(g.lhs, mask)
                rhs = self.eval(g.rhs, mask)
            except (_Cant, _Refuse):
                continue  # sound over-approximation
            mask = mask & _CMPS[g.op](lhs, rhs)
        self._mask_cache[guards] = mask
        return mask


# --------------------------------------------------------------------------
# predicate checkers (each returns None = separated, or a failure reason)
# --------------------------------------------------------------------------


def _cross_iteration_conflict(vals: np.ndarray, lanes: np.ndarray) -> bool:
    """Exact check: does any index value occur at two different
    iterations?  (Equal values within one iteration are same-iteration
    accesses — not loop-carried — and are allowed.)"""
    if vals.size < 2:
        return False
    order = np.argsort(vals, kind="stable")
    v, l = vals[order], lanes[order]
    return bool(np.any((v[1:] == v[:-1]) & (l[1:] != l[:-1])))


def _check_injective(point: Expr):
    def run(ctx: _Ctx, ma: np.ndarray, mb: np.ndarray) -> "str | None":
        vals = ctx.eval(point, ma)[ma]
        dups = vals.size - np.unique(vals).size
        if dups == 0:
            return None
        return f"{dups} duplicate subscript value(s) across iterations"

    return run


def _check_points(pa: Expr, pb: Expr):
    def run(ctx: _Ctx, ma: np.ndarray, mb: np.ndarray) -> "str | None":
        lanes = np.arange(ctx.n)
        if pb is pa:
            # one evaluation under the union mask: lanes in mb but not
            # ma would otherwise hold the arbitrary values the eval
            # contract forbids reading
            va = vb = ctx.eval(pa, ma | mb)
        else:
            va = ctx.eval(pa, ma)
            vb = ctx.eval(pb, mb)
        vals = np.concatenate([va[ma], vb[mb]])
        ids = np.concatenate([lanes[ma], lanes[mb]])
        if not _cross_iteration_conflict(vals, ids):
            return None
        return "subscript value sets meet across iterations"

    return run


def _hulls(ctx: _Ctx, ma: np.ndarray, mb: np.ndarray, lo_a: Expr, hi_a: Expr, lo_b: Expr, hi_b: Expr):
    """A pair's per-iteration hulls ``(lo, hi)`` over both members, on
    the iterations where either member's range is nonempty (empty ranges
    never conflict), and whether two iterations' hulls overlap: disjoint
    hulls across iterations separate every member combination."""
    la, ha = ctx.eval(lo_a, ma), ctx.eval(hi_a, ma)
    ea = ma & (la <= ha)
    if mb is ma and lo_b == lo_a and hi_b == hi_a:
        lo, hi = la[ea], ha[ea]  # a self pair: its members' hulls are one
    else:
        lb_, hb = ctx.eval(lo_b, mb), ctx.eval(hi_b, mb)
        eb = mb & (lb_ <= hb)
        act = ea | eb
        lo = np.minimum(np.where(ea, la, _INT64_MAX), np.where(eb, lb_, _INT64_MAX))[act]
        hi = np.maximum(np.where(ea, ha, _INT64_MIN), np.where(eb, hb, _INT64_MIN))[act]
    if lo.size < 2:
        return lo, hi, False
    if not bool(np.all(np.diff(lo) >= 0)):  # monotone fast path
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
    return lo, hi, not bool(np.all(lo[1:] > np.maximum.accumulate(hi)[:-1]))


def _check_hulls(lo_a: Expr, hi_a: Expr, lo_b: Expr, hi_b: Expr):
    def run(ctx: _Ctx, ma: np.ndarray, mb: np.ndarray) -> "str | None":
        if _hulls(ctx, ma, mb, lo_a, hi_a, lo_b, hi_b)[2]:
            return "per-iteration index ranges overlap across iterations"
        return None

    return run


def _check_indirect(via: str, args_a: tuple[Expr, Expr], args_b: tuple[Expr, Expr]):
    def run(ctx: _Ctx, ma: np.ndarray, mb: np.ndarray) -> "str | None":
        lo, hi, overlap = _hulls(ctx, ma, mb, *args_a, *args_b)
        if overlap:
            return "per-iteration argument ranges overlap across iterations"
        arr = _index_array(ctx.env, via)
        if not lo.size:
            return None
        gmin, gmax = int(lo.min()), int(hi.max())
        if gmin < 0 or gmax >= arr.shape[0]:
            raise _Refuse(f"argument range into {via} out of bounds")
        window = arr[gmin : gmax + 1]
        if np.unique(window).size == window.size:
            return None
        return f"{via} has duplicate values over the inspected hull"

    return run


class _PairCheck:
    """One conflicting pair's checkers: the pair is separated if ANY
    dimension's predicate separates it (matching the static tests)."""

    __slots__ = ("desc", "guards_a", "guards_b", "dims")

    def __init__(
        self,
        desc: str,
        guards_a: Guards,
        guards_b: Guards,
        dims: list[tuple[str, Callable]],
    ) -> None:
        self.desc = desc
        self.guards_a = guards_a
        self.guards_b = guards_b
        self.dims = dims

    def run(self, ctx: _Ctx) -> tuple["str | None", tuple[str, ...]]:
        """Returns ``(failure reason | None, predicate names that ran)``."""
        ma = ctx.guard_mask(self.guards_a)
        mb = ctx.guard_mask(self.guards_b)
        ran: list[str] = []
        fails: list[str] = []
        for name, fn in self.dims:
            ran.append(name)
            try:
                why = fn(ctx, ma, mb)
            except _Cant as exc:
                fails.append(f"{name}: not vectorizable ({exc})")
                continue
            if why is None:
                return None, tuple(ran)
            fails.append(f"{name}: {why}")
        return f"{self.desc}: " + "; ".join(fails), tuple(ran)


class _BoundsCheck:
    """Write subscripts must land inside the written array — a cheap
    refusal that mirrors the analyzer's range-containment facts (an
    out-of-bounds program runs serially and raises its exact error)."""

    __slots__ = ("array", "guards", "dims")

    def __init__(
        self, array: str, guards: Guards, dims: list["tuple[Expr, Expr] | None"]
    ) -> None:
        self.array = array
        self.guards = guards
        self.dims = dims

    def run(self, ctx: _Ctx) -> "str | None":
        arr = ctx.env.get(self.array)
        if not isinstance(arr, np.ndarray) or arr.ndim != len(self.dims):
            return None  # inconclusive, never a refusal by itself
        mask = ctx.guard_mask(self.guards)
        for d, pair in enumerate(self.dims):
            if pair is None:
                continue
            try:
                lo, hi = ctx.eval(pair[0], mask), ctx.eval(pair[1], mask)
            except (_Cant, _Refuse):
                continue
            act = mask & (lo <= hi)
            if bool(np.any(act & ((lo < 0) | (hi >= arr.shape[d])))):
                return (
                    f"write subscript into {self.array} dim {d} escapes "
                    f"[0, {arr.shape[d]})"
                )
        return None


# --------------------------------------------------------------------------
# lowering: access algebra -> inspector plan
# --------------------------------------------------------------------------


@dataclass
class InspectorPlan:
    """Everything one loop's runtime inspection needs, lowered once at
    compile time from the collected access set."""

    fn_name: str
    label: str
    var: str
    step: int
    supported: bool
    reason: str
    checks: list[_PairCheck] = field(default_factory=list)
    bounds: list[_BoundsCheck] = field(default_factory=list)
    #: arrays whose *values* feed predicates — their bytes key the memo
    index_arrays: tuple[str, ...] = ()
    #: arrays whose *extents* feed predicates — their shapes key the memo
    written_arrays: tuple[str, ...] = ()
    scalar_names: tuple[str, ...] = ()
    predicates: tuple[str, ...] = ()

    def describe(self) -> str:
        if not self.supported:
            return f"{self.label}: uninspectable — {self.reason}"
        preds = ", ".join(self.predicates)
        return (
            f"{self.label}: {len(self.checks)} conflicting pair(s), "
            f"{len(self.bounds)} bounds check(s); predicates: {preds}"
        )


def _interval(point: "Expr | None", span: Any) -> "tuple[Expr, Expr] | None":
    """A subscript's (or an indirect argument's) per-iteration range:
    its point, or its span when both ends are finite."""
    if point is not None:
        return point, point
    if span is not None:
        lo, hi = span.lo, span.hi
        if lo.is_infinite or lo.is_bottom or hi.is_infinite or hi.is_bottom:
            return None
        return lo, hi
    return None


def _dim_checker(
    da: DimAccess, db: DimAccess, self_pair: bool
) -> "tuple[str, Callable, list[Expr], tuple[str, ...]] | None":
    """One dimension's separation predicate, or None if no predicate in
    the vocabulary applies to this shape combination.  The last element
    names arrays whose *values* the predicate reads beyond what appears
    in the returned exprs — they must key the inspection memo too."""
    ia, ib = da.indirect, db.indirect
    if ia is not None or ib is not None:
        if ia is None or ib is None or ia.via != ib.via:
            return None
        ra, rb = _interval(ia.arg_point, ia.arg_span), _interval(ib.arg_point, ib.arg_span)
        if ra is None or rb is None:
            return None
        # the verdict depends on the via array's contents (the
        # np.unique window), not just the argument intervals
        return (
            "indirect-injectivity",
            _check_indirect(ia.via, ra, rb),
            [*ra, *rb],
            (ia.via,),
        )
    if self_pair and da.point is not None:
        return ("injectivity", _check_injective(da.point), [da.point], ())
    if da.point is not None and db.point is not None:
        return (
            "value-disjointness",
            _check_points(da.point, db.point),
            [da.point, db.point],
            (),
        )
    ra, rb = _interval(da.point, da.span), _interval(db.point, db.span)
    if ra is None or rb is None:
        return None
    return ("range-disjointness", _check_hulls(*ra, *rb), [*ra, *rb], ())


def _collect_refs(e: Expr, arrays: set[str], scalars: set[str]) -> None:
    if isinstance(e, ArrayTerm):
        arrays.add(e.array)
        _collect_refs(e.index, arrays, scalars)
        return
    if isinstance(e, OpaqueTerm):
        for a in e.args:
            _collect_refs(a, arrays, scalars)
        return
    if isinstance(e, Sum):
        for _, mono in e.terms:
            for atom in mono:
                _collect_refs(atom, arrays, scalars)
        return
    if isinstance(e, Sym) and e.kind in (SymKind.VAR, SymKind.PARAM):
        scalars.add(e.name)


def lower_inspector(
    func: IRFunction, loop: SLoop, accesses: "AccessSet | None" = None
) -> InspectorPlan:
    """Lower ``loop``'s collected access set into an inspector plan.

    The plan is unsupported (and the loop stays serial forever) when any
    conflicting pair has no dimension the predicate vocabulary can
    separate — e.g. a whole-array (unknown-shape) access.
    """
    accs = accesses if accesses is not None else collect_accesses(func, loop)
    pairs = accs.conflicting_pairs()

    def unsupported(reason: str) -> InspectorPlan:
        return InspectorPlan(
            func.name, loop.label, loop.var, loop.step, False, reason
        )

    if not pairs:
        # the static tests prove such loops themselves; nothing to inspect
        return unsupported("no conflicting access pairs")
    checks: list[_PairCheck] = []
    arrays: set[str] = set()
    scalars: set[str] = set()
    preds: list[str] = []

    def note_exprs(exprs: list[Expr], guards: Guards) -> None:
        for e in exprs:
            _collect_refs(e, arrays, scalars)
        for g in guards:
            _collect_refs(g.lhs, arrays, scalars)
            _collect_refs(g.rhs, arrays, scalars)

    for a, b in pairs:
        if a.index is None or b.index is None:
            bad = a if a.index is None else b
            return unsupported(
                f"whole-array access shape on {bad.array} ({bad.describe()})"
            )
        dims: list[tuple[str, Callable]] = []
        for d in range(a.rank):
            lowered = _dim_checker(a.index.dim(d), b.index.dim(d), a is b)
            if lowered is None:
                continue
            name, fn, exprs, value_arrays = lowered
            dims.append((name, fn))
            if name not in preds:
                preds.append(name)
            arrays.update(value_arrays)
            note_exprs(exprs, a.guards)
            note_exprs(exprs, b.guards)
        if not dims:
            return unsupported(
                f"no inspectable dimension for pair {a.describe()} × {b.describe()}"
            )
        checks.append(_PairCheck(f"{a.describe()} × {b.describe()}", a.guards, b.guards, dims))
    bounds: list[_BoundsCheck] = []
    written: set[str] = set()
    for a in accs.accesses:
        if not a.is_write or a.index is None:
            continue
        written.add(a.array)
        spans = [_interval(d.point, d.span) for d in a.index.dims]
        if any(s is not None for s in spans):
            for s in spans:
                if s is not None:
                    note_exprs(list(s), a.guards)
            bounds.append(_BoundsCheck(a.array, a.guards, spans))
            if "write-bounds" not in preds:
                preds.append("write-bounds")
    return InspectorPlan(
        fn_name=func.name,
        label=loop.label,
        var=loop.var,
        step=loop.step,
        supported=True,
        reason=f"{len(checks)} pair(s) over {', '.join(sorted(arrays)) or 'affine subscripts'}",
        checks=checks,
        bounds=bounds,
        index_arrays=tuple(sorted(arrays)),
        written_arrays=tuple(sorted(written)),
        scalar_names=tuple(sorted(scalars)),
        predicates=tuple(preds),
    )


# --------------------------------------------------------------------------
# content-addressed inspection memo + stats
# --------------------------------------------------------------------------

_INSPECT_CACHE: dict[tuple, InspectionResult] = {}
_INSPECT_CACHE_LIMIT = 1024

register_memo_table(
    "runtime.inspections", _INSPECT_CACHE.__len__, _INSPECT_CACHE.clear
)

_STATS = {
    "inspections": 0,  # every inspect() call
    "hits": 0,  # served from the content-addressed memo
    "passes": 0,  # cold inspections that said PARALLEL
    "refusals": 0,  # cold inspections that said serial
}


def inspector_stats() -> dict[str, Any]:
    """Process-wide inspection counters (batch health mirrors deltas)."""
    out: dict[str, Any] = dict(_STATS)
    out["cache_entries"] = len(_INSPECT_CACHE)
    return out


def content_key(plan: InspectorPlan, env: dict, lb: int, m: int) -> bytes:
    """Fingerprint of everything the verdict depends on: the bytes,
    shape and dtype of every index array, the extents of every written
    array, every referenced scalar, and the iteration window."""
    h = hashlib.blake2b(digest_size=16)
    for name in plan.index_arrays:
        arr = env.get(name)
        h.update(name.encode())
        if isinstance(arr, np.ndarray):
            h.update(f"{arr.shape}:{arr.dtype}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(arr).encode())
        h.update(b"\x00")
    for name in plan.written_arrays:
        arr = env.get(name)
        shape = arr.shape if isinstance(arr, np.ndarray) else None
        h.update(f"{name}={shape};".encode())
    for name in plan.scalar_names:
        h.update(f"{name}={env.get(name)!r};".encode())
    h.update(f"{lb}:{m}:{plan.step}".encode())
    return h.digest()


def inspect(
    plan: InspectorPlan, env: dict, fingerprint: str, lb: int, m: int
) -> InspectionResult:
    """Run (or recall) the inspection of one loop activation.

    Pure with respect to ``env``: predicates only read.  Raises
    :class:`~repro.service.faults.FaultInjected` when a chaos plan arms
    one of the inspector sites — the parallel engine's gate turns that
    into a serial dispatch with a fallback note, never a wrong parallel
    one."""
    from repro.service import faults

    t0 = time.perf_counter()
    _STATS["inspections"] += 1
    if not plan.supported:
        return InspectionResult(
            plan.label,
            False,
            (),
            plan.reason,
            f"uninspectable: {plan.reason}",
            cost_us=(time.perf_counter() - t0) * 1e6,
        )
    faults.maybe_fail("engine.inspector.cache", plan.fn_name)
    key = (fingerprint, plan.label, content_key(plan, env, lb, m))
    hit = _INSPECT_CACHE.get(key)
    if hit is not None:
        _STATS["hits"] += 1
        return replace(hit, cached=True, cost_us=(time.perf_counter() - t0) * 1e6)
    faults.maybe_fail("engine.inspector.predicate", plan.fn_name)
    ctx = _Ctx(env, plan.var, lb, m, plan.step)
    checked: list[str] = []
    failed: "str | None" = None
    try:
        for bc in plan.bounds:
            if "write-bounds" not in checked:
                checked.append("write-bounds")
            why = bc.run(ctx)
            if why is not None:
                failed = why
                break
        if failed is None:
            for chk in plan.checks:
                why, ran = chk.run(ctx)
                for name in ran:
                    if name not in checked:
                        checked.append(name)
                if why is not None:
                    failed = why
                    break
    except _Refuse as exc:
        failed = str(exc)
    parallel = failed is None
    if parallel:
        reason = "all conflicting pairs separated: " + ", ".join(checked)
        _STATS["passes"] += 1
    else:
        reason = f"failing predicate: {failed}"
        _STATS["refusals"] += 1
    cost = (time.perf_counter() - t0) * 1e6
    res = InspectionResult(plan.label, parallel, tuple(checked), failed, reason, False, cost)
    if len(_INSPECT_CACHE) >= _INSPECT_CACHE_LIMIT:
        _INSPECT_CACHE.clear()
    _INSPECT_CACHE[key] = res
    return res


__all__ = [
    "PREDICATES",
    "InspectionResult",
    "InspectorPlan",
    "content_key",
    "inspect",
    "inspector_stats",
    "lower_inspector",
]
