"""Symbolic value ranges ``[lo : hi]``.

The paper's representation (Section 3.2) describes variable values as *may*
ranges ``x : [lb : ub]`` and array sections as a subscript (*must*) range
plus a value range.  This module implements the value-range arithmetic; the
subscript/must-range pairing lives in :mod:`repro.analysis`.

A range endpoint is any :class:`~repro.symbolic.expr.Expr`; ``NEG_INF`` /
``POS_INF`` mark unbounded sides and the fully unknown range corresponds to
the paper's ⊥ for scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from repro.errors import SymbolicError
from repro.symbolic.expr import (
    BOTTOM,
    Const,
    Expr,
    ExprLike,
    NEG_INF,
    POS_INF,
    SubstFn,
    _coerce,
    register_memo_table as _register_memo_table,
    add,
    const,
    mul,
    neg,
    smax,
    smin,
    sub,
)


@dataclass(frozen=True, slots=True)
class SymRange:
    """A *may* range of integer values with symbolic endpoints."""

    lo: Expr
    hi: Expr

    # Deeply immutable (endpoints are interned exprs) — copying is identity.
    def __copy__(self) -> "SymRange":
        return self

    def __deepcopy__(self, memo: dict) -> "SymRange":
        return self

    # -- constructors -------------------------------------------------------
    @staticmethod
    def make(lo: ExprLike, hi: ExprLike) -> "SymRange":
        elo, ehi = _coerce(lo), _coerce(hi)
        if elo.is_bottom:
            elo = NEG_INF
        if ehi.is_bottom:
            ehi = POS_INF
        return SymRange(elo, ehi)

    @staticmethod
    def point(e: ExprLike) -> "SymRange":
        ee = _coerce(e)
        if ee.is_bottom:
            return UNKNOWN_RANGE
        return SymRange(ee, ee)

    @staticmethod
    def unknown() -> "SymRange":
        return UNKNOWN_RANGE

    # -- queries -------------------------------------------------------------
    @property
    def is_unknown(self) -> bool:
        return self.lo is NEG_INF and self.hi is POS_INF

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not self.lo.is_infinite

    @property
    def has_finite_lo(self) -> bool:
        return not self.lo.is_infinite and not self.lo.is_bottom

    @property
    def has_finite_hi(self) -> bool:
        return not self.hi.is_infinite and not self.hi.is_bottom

    def const_bounds(self) -> tuple[Fraction | None, Fraction | None]:
        """Constant endpoints, where available."""
        lo = self.lo.const_value() if isinstance(self.lo, Const) else None
        hi = self.hi.const_value() if isinstance(self.hi, Const) else None
        return lo, hi

    def contains_value(self, value: int, env: Mapping) -> bool:
        """Concrete membership test (used by soundness tests)."""
        from repro.symbolic.expr import evaluate

        if self.has_finite_lo and evaluate(self.lo, env) > value:
            return False
        if self.has_finite_hi and evaluate(self.hi, env) < value:
            return False
        return True

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "SymRange | ExprLike") -> "SymRange":
        o = _as_range(other)
        return SymRange(_ep_add(self.lo, o.lo), _ep_add(self.hi, o.hi))

    def __sub__(self, other: "SymRange | ExprLike") -> "SymRange":
        o = _as_range(other)
        return SymRange(_ep_sub(self.lo, o.hi), _ep_sub(self.hi, o.lo))

    def __neg__(self) -> "SymRange":
        return SymRange(_ep_neg(self.hi), _ep_neg(self.lo))

    def scale_const(self, k: ExprLike) -> "SymRange":
        """Multiply by a *constant* expression of known sign."""
        ek = _coerce(k)
        if not isinstance(ek, Const):
            raise SymbolicError("scale_const requires a literal constant")
        if ek.value == 0:
            return SymRange.point(0)
        if ek.value > 0:
            return SymRange(_ep_mul(self.lo, ek), _ep_mul(self.hi, ek))
        return SymRange(_ep_mul(self.hi, ek), _ep_mul(self.lo, ek))

    def mul_range(self, other: "SymRange") -> "SymRange":
        """General range product — exact only for constant endpoints."""
        a = self.const_bounds()
        b = other.const_bounds()
        if None in a or None in b:
            if other.is_point:
                p = other.lo
                if isinstance(p, Const):
                    return self.scale_const(p)
            if self.is_point:
                p = self.lo
                if isinstance(p, Const):
                    return other.scale_const(p)
            return UNKNOWN_RANGE
        prods = [x * y for x in a for y in b]  # type: ignore[operator]
        return SymRange(const(min(prods)), const(max(prods)))

    # -- lattice ----------------------------------------------------------------
    def join(self, other: "SymRange") -> "SymRange":
        """Union hull: the smallest range containing both."""
        return SymRange(_ep_min(self.lo, other.lo), _ep_max(self.hi, other.hi))

    def meet(self, other: "SymRange") -> "SymRange":
        """Intersection (may be empty — callers check with a prover)."""
        return SymRange(_ep_max(self.lo, other.lo), _ep_min(self.hi, other.hi))

    def widen(self, newer: "SymRange") -> "SymRange":
        """Standard interval widening: drop unstable bounds to ±∞."""
        lo = self.lo if newer.lo == self.lo else NEG_INF
        hi = self.hi if newer.hi == self.hi else POS_INF
        return SymRange(lo, hi)

    # -- structure ----------------------------------------------------------------
    def subst(self, fn: SubstFn) -> "SymRange":
        return SymRange(self.lo.subst(fn), self.hi.subst(fn))

    def shift(self, delta: ExprLike) -> "SymRange":
        return SymRange(_ep_add(self.lo, _coerce(delta)), _ep_add(self.hi, _coerce(delta)))

    def __str__(self) -> str:
        if self.is_point:
            return f"[{self.lo}]"
        return f"[{self.lo} : {self.hi}]"


UNKNOWN_RANGE = SymRange(NEG_INF, POS_INF)


def symrange(lo: ExprLike, hi: ExprLike) -> SymRange:
    """Public constructor; normalizes ⊥ endpoints to ±∞."""
    return SymRange.make(lo, hi)


# --------------------------------------------------------------------------
# index vectors: products of ranges
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MultiSection:
    """A product of per-dimension :class:`SymRange`s — the section of a
    possibly multi-dimensional array.

    ``dims == ()`` is the lattice top ⊤ ("unknown shape"): joining
    sections of different ranks loses even the rank.  A scalar array
    section is rank 1; the 1-D algebra is exactly the ``rank == 1``
    special case of every operation here.
    """

    dims: tuple[SymRange, ...]

    # Deeply immutable — copying is identity.
    def __copy__(self) -> "MultiSection":
        return self

    def __deepcopy__(self, memo: dict) -> "MultiSection":
        return self

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(*dims: "SymRange | ExprLike") -> "MultiSection":
        return MultiSection(tuple(_as_range(d) for d in dims))

    @staticmethod
    def unknown(rank: int) -> "MultiSection":
        return MultiSection((UNKNOWN_RANGE,) * rank)

    # -- queries ------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_top(self) -> bool:
        return not self.dims

    @property
    def lead(self) -> SymRange:
        """The leading dimension's range (rank ≥ 1)."""
        return self.dims[0]

    def dim(self, d: int) -> SymRange:
        return self.dims[d]

    @property
    def is_point(self) -> bool:
        """A single array element: every dimension is a point."""
        return bool(self.dims) and all(r.is_point for r in self.dims)

    @property
    def is_unknown(self) -> bool:
        """Nothing known beyond (at most) the rank."""
        return not self.dims or all(r.is_unknown for r in self.dims)

    def contains_values(self, values, env: Mapping) -> bool:  # noqa: ANN001
        """Concrete membership of an index tuple (soundness tests)."""
        if self.is_top or len(values) != self.rank:
            return True  # unknown shape constrains nothing
        return all(r.contains_value(v, env) for r, v in zip(self.dims, values))

    # -- lattice ------------------------------------------------------------
    def join(self, other: "MultiSection") -> "MultiSection":
        """Per-dimension union hull; rank mismatch loses the shape (⊤)."""
        if self.is_top or other.is_top or self.rank != other.rank:
            return TOP_SECTION
        return MultiSection(tuple(a.join(b) for a, b in zip(self.dims, other.dims)))

    def meet(self, other: "MultiSection") -> "MultiSection":
        """Per-dimension intersection; ⊤ is the meet identity."""
        if self.is_top:
            return other
        if other.is_top:
            return self
        if self.rank != other.rank:
            return TOP_SECTION  # incomparable shapes: nothing sound to keep
        return MultiSection(tuple(a.meet(b) for a, b in zip(self.dims, other.dims)))

    def widen(self, newer: "MultiSection") -> "MultiSection":
        """Per-dimension interval widening; unstable rank widens to ⊤."""
        if self.is_top or newer.is_top or self.rank != newer.rank:
            return TOP_SECTION
        return MultiSection(tuple(a.widen(b) for a, b in zip(self.dims, newer.dims)))

    # -- structure ----------------------------------------------------------
    def subst(self, fn: SubstFn) -> "MultiSection":
        return MultiSection(tuple(r.subst(fn) for r in self.dims))

    def __str__(self) -> str:
        if self.is_top:
            return "[?]"
        return " × ".join(str(r) for r in self.dims)


TOP_SECTION = MultiSection(())


def _as_range(x: "SymRange | ExprLike") -> SymRange:
    if isinstance(x, SymRange):
        return x
    return SymRange.point(_coerce(x))


#: Bounded memo for :func:`range_subst` — both endpoints of a range are
#: usually substituted under the same (tiny) mapping, and the analysis
#: re-resolves identical post-states once per enclosing loop level.
#: Expressions and :class:`SymRange` values are immutable and hashable,
#: so keying on ``(e, side, mapping-items)`` is exact.  Bookkeeping
#: (bounded size, hit/miss stats) is shared with the constructor memos
#: in :mod:`repro.symbolic.expr`; ``expr.clear_memo_tables`` clears this
#: table too (via the registry in :mod:`repro.symbolic.expr`).
_subst_memo: dict[tuple, Expr] = {}

_register_memo_table("ranges.subst", _subst_memo.__len__, _subst_memo.clear)


def range_subst(e: Expr, mapping: Mapping, side: str) -> Expr:
    """Substitute ranges for atoms inside ``e``, picking the endpoint that
    bounds ``e`` from the requested ``side`` (``"lo"`` or ``"hi"``).

    ``mapping`` maps atoms to :class:`SymRange`.  The result is a sound
    bound *provided every mapped atom appears linearly* (which holds for
    the canonical sums the analysis produces); atoms appearing inside
    products with other mapped atoms make the result ⊥-conservative
    (±∞) unless their range is a point.
    """
    from repro.symbolic.expr import _memo_get, _memo_put

    if isinstance(e, Const) or e.is_infinite or e.is_bottom:
        return e
    key = (e, side, frozenset(mapping.items()))
    cached = _memo_get(_subst_memo, key)
    if cached is not None:
        return cached
    return _memo_put(_subst_memo, key, _range_subst_uncached(e, mapping, side))


def _range_subst_uncached(e: Expr, mapping: Mapping, side: str) -> Expr:
    from repro.symbolic.expr import Atom, _as_terms

    def pick(atom: Atom, want_hi: bool) -> Expr:
        r = mapping.get(atom)
        if r is None:
            # rewrite inside the atom (e.g. array index expressions)
            return atom.subst(lambda a: None if a not in mapping else _point_of(mapping[a]))
        return r.hi if want_hi else r.lo

    def _point_of(r: SymRange) -> Expr | None:
        return r.lo if r.is_point else BOTTOM

    want_hi_top = side == "hi"
    parts: list[Expr] = []
    for coeff, mono in _as_terms(e):
        if not mono:
            parts.append(const(coeff))
            continue
        want_hi = want_hi_top if coeff > 0 else not want_hi_top
        mapped = [a for a in mono if a in mapping and not mapping[a].is_point]
        if mapped and len(mono) > 1:
            # a non-point range multiplied by another factor of unknown
            # sign cannot be bounded soundly at this level
            return POS_INF if want_hi_top else NEG_INF
        factors: list[Expr] = [const(coeff)]
        for atom in mono:
            b = pick(atom, want_hi)
            if b.is_infinite or b.is_bottom:
                return POS_INF if want_hi_top else NEG_INF
            factors.append(b)
        parts.append(mul(*factors))
    try:
        return add(*parts)
    except SymbolicError:
        return POS_INF if want_hi_top else NEG_INF


def range_subst_range(r: SymRange, mapping: Mapping) -> SymRange:
    """Apply :func:`range_subst` to both endpoints of a range."""
    lo = r.lo if r.lo.is_infinite else range_subst(r.lo, mapping, "lo")
    hi = r.hi if r.hi.is_infinite else range_subst(r.hi, mapping, "hi")
    return SymRange(lo, hi)


# -- endpoint arithmetic with infinities ------------------------------------


def _ep_add(a: Expr, b: Expr) -> Expr:
    if a.is_infinite and b.is_infinite:
        if a is b:
            return a
        raise SymbolicError("adding opposite infinite endpoints")
    if a.is_infinite:
        return a
    if b.is_infinite:
        return b
    return add(a, b)


def _ep_sub(a: Expr, b: Expr) -> Expr:
    if b.is_infinite:
        return NEG_INF if b is POS_INF else POS_INF
    if a.is_infinite:
        return a
    return sub(a, b)


def _ep_neg(a: Expr) -> Expr:
    if a is POS_INF:
        return NEG_INF
    if a is NEG_INF:
        return POS_INF
    return neg(a)


def _ep_mul(a: Expr, k: Expr) -> Expr:
    if a.is_infinite:
        if isinstance(k, Const):
            if k.value == 0:
                return const(0)
            return a if k.value > 0 else (NEG_INF if a is POS_INF else POS_INF)
        # sign of k unknown to this layer; caller promised nonneg
        return a
    return mul(a, k)


def _ep_min(a: Expr, b: Expr) -> Expr:
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF:
        return b
    if b is POS_INF:
        return a
    return smin(a, b)


def _ep_max(a: Expr, b: Expr) -> Expr:
    if a is POS_INF or b is POS_INF:
        return POS_INF
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    return smax(a, b)
