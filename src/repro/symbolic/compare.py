"""Ternary symbolic comparison ("the prover").

Dependence testing in the paper reduces to queries such as

    prove   rowptr[i] - 1  <  rowptr[i + δ]      for all δ ≥ 1

given the fact *Monotonic_inc(rowptr)*.  This module answers such queries
with a three-valued result (:class:`Tri`): ``TRUE`` and ``FALSE`` are
proofs, ``UNKNOWN`` means "cannot decide" (the sound default).

Two reasoning engines are combined:

1. **Interval bounding** — every atom is replaced by a range endpoint
   taken from the :class:`~repro.symbolic.facts.FactEnv` (symbol ranges,
   array element-value ranges, ``Identity``), the expression is
   re-canonicalized (which cancels symbolic terms), and the process
   iterates to a fixpoint or depth limit.
2. **Monotone-pair cancellation** — a difference containing
   ``+c*A[e2] - c*A[e1]`` with ``Monotonic_inc(A)`` and a provable
   ``e1 ≤ e2`` is ≥ 0 and can be dropped from the difference; for
   *strictly* monotone integer arrays the stronger bound
   ``A[e2] - A[e1] ≥ e2 - e1`` is used.

All results are *sound*: a ``TRUE``/``FALSE`` answer is a theorem under
the supplied facts; the property-based tests check this against random
concrete models.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from typing import Iterable

from repro.symbolic.expr import (
    ArrayTerm,
    Atom,
    Const,
    Expr,
    ExprLike,
    NEG_INF,
    Number,
    OpaqueOp,
    OpaqueTerm,
    POS_INF,
    Sum,
    Sym,
    ZERO,
    _coerce,
    add,
    const,
    mul,
    register_memo_table,
    sub,
    trunc_div,
)
from repro.symbolic.facts import ArrayFact, FactEnv
from repro.symbolic.ranges import SymRange


class Tri(enum.Enum):
    """Three-valued logic result."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # guard against accidental truthiness bugs
        raise TypeError("Tri is not a boolean; compare against Tri members")

    @property
    def is_unknown(self) -> bool:
        return self is Tri.UNKNOWN


def tri_not(t: Tri) -> Tri:
    if t is Tri.TRUE:
        return Tri.FALSE
    if t is Tri.FALSE:
        return Tri.TRUE
    return Tri.UNKNOWN


def tri_and(*ts: Tri) -> Tri:
    if any(t is Tri.FALSE for t in ts):
        return Tri.FALSE
    if all(t is Tri.TRUE for t in ts):
        return Tri.TRUE
    return Tri.UNKNOWN


def tri_or(*ts: Tri) -> Tri:
    if any(t is Tri.TRUE for t in ts):
        return Tri.TRUE
    if all(t is Tri.FALSE for t in ts):
        return Tri.FALSE
    return Tri.UNKNOWN


class _Side(enum.Enum):
    LOW = "low"
    HIGH = "high"

    def flip(self) -> "_Side":
        return _Side.HIGH if self is _Side.LOW else _Side.LOW


_MAX_DEPTH = 8
_MAX_PAIR_COMBOS = 16

#: Live prover instances, so the memo-table registry in
#: :mod:`repro.symbolic.expr` can count and clear their per-instance
#: memos too ("cold" benchmark runs previously missed these entirely).
_live_provers: "weakref.WeakSet[Prover]" = weakref.WeakSet()


def _prover_memo_entries() -> int:
    return sum(len(p._memo_nn) + len(p._memo_rank) for p in _live_provers)


def _prover_memo_clear() -> None:
    for p in _live_provers:
        p._memo_nn.clear()
        p._memo_rank.clear()


register_memo_table("compare.prover", _prover_memo_entries, _prover_memo_clear)


class Prover:
    """Comparison engine bound to one fact environment."""

    def __init__(self, facts: FactEnv | None = None, max_depth: int = _MAX_DEPTH):
        self.facts = facts if facts is not None else FactEnv()
        self.max_depth = max_depth
        # Per-instance memos, identity-keyed on interned expressions.
        # Validity is tied to ``facts.version`` (which only grows): on a
        # version change the tables are dropped wholesale instead of
        # carrying the version inside every key.
        self._memo_nn: dict[Expr, Tri] = {}
        self._memo_rank: dict[Atom, int] = {}
        self._memo_version = self.facts.version
        self._in_progress: set[Expr] = set()
        _live_provers.add(self)

    def _sync_memo(self) -> None:
        if self._memo_version != self.facts.version:
            self._memo_nn.clear()
            self._memo_rank.clear()
            self._memo_version = self.facts.version

    # -- public queries (integer semantics) ---------------------------------
    def nonneg(self, e: ExprLike) -> Tri:
        """Is ``e >= 0``?"""
        return self._nonneg(_coerce(e), self.max_depth)

    def le(self, a: ExprLike, b: ExprLike) -> Tri:
        """Is ``a <= b``?"""
        return self._nonneg(sub(b, a), self.max_depth)

    def lt(self, a: ExprLike, b: ExprLike) -> Tri:
        """Is ``a < b``?  (integers: ``a <= b - 1``)"""
        return self._nonneg(sub(sub(b, a), 1), self.max_depth)

    def ge(self, a: ExprLike, b: ExprLike) -> Tri:
        return self.le(b, a)

    def gt(self, a: ExprLike, b: ExprLike) -> Tri:
        return self.lt(b, a)

    def eq(self, a: ExprLike, b: ExprLike) -> Tri:
        d = sub(a, b)
        if isinstance(d, Const):
            return Tri.TRUE if d.value == 0 else Tri.FALSE
        return tri_and(self.nonneg(d), self.nonneg(sub(ZERO, d)))

    def pos(self, e: ExprLike) -> Tri:
        """Is ``e >= 1``?"""
        return self._nonneg(sub(_coerce(e), 1), self.max_depth)

    def ranges_disjoint(self, a: SymRange, b: SymRange) -> Tri:
        """Are the *closed* integer ranges ``a`` and ``b`` disjoint?  (The
        second side is asked only when the first is not proven.)"""
        r = self.lt(a.hi, b.lo)
        if r is Tri.TRUE:
            return r
        return tri_or(r, self.lt(b.hi, a.lo))

    # -- core ---------------------------------------------------------------
    def _nonneg(self, e: Expr, depth: int) -> Tri:
        if e.is_bottom:
            return Tri.UNKNOWN
        if e is POS_INF:
            return Tri.TRUE
        if e is NEG_INF:
            return Tri.FALSE
        if isinstance(e, Const):
            return Tri.TRUE if e.value >= 0 else Tri.FALSE
        if depth <= 0:
            return Tri.UNKNOWN
        self._sync_memo()
        cached = self._memo_nn.get(e)
        if cached is not None:
            return cached
        if e in self._in_progress:
            return Tri.UNKNOWN
        self._in_progress.add(e)
        try:
            result = self._nonneg_uncached(e, depth)
        finally:
            self._in_progress.discard(e)
        self._memo_nn[e] = result
        return result

    def _nonneg_uncached(self, e: Expr, depth: int) -> Tri:
        # 1. interval bounding
        lo = self._bound(e, _Side.LOW, depth)
        if isinstance(lo, Const) and lo.value >= 0:
            return Tri.TRUE
        hi = self._bound(e, _Side.HIGH, depth)
        if isinstance(hi, Const) and hi.value < 0:
            return Tri.FALSE
        # 2. monotone-pair cancellation
        for reduced in self._mono_pair_reductions(e, depth):
            if self._nonneg(reduced, depth - 1) is Tri.TRUE:
                return Tri.TRUE
        # 3. composite ("monotonic difference") cancellation
        for reduced in self._composite_reductions(e, depth):
            if self._nonneg(reduced, depth - 1) is Tri.TRUE:
                return Tri.TRUE
        return Tri.UNKNOWN

    def _composite_reductions(self, e: Expr, depth: int) -> Iterable[Expr]:
        """Reductions using :class:`CompositeMonoFact`: if the sequence
        ``e(j) = Σ c_t · A_t[j + o_t]`` is monotone increasing and
        ``b <= a``, then ``expr - (e(a) - e(b))`` bounds ``expr`` from
        below, so proving it non-negative proves the original."""
        if not isinstance(e, Sum) or depth <= 1 or not self.facts.composites:
            return
        for fact in self.facts.composites:
            if fact.direction is None:
                continue
            c0, a0, o0 = fact.terms[0]
            pos_idx: list[Expr] = []
            neg_idx: list[Expr] = []
            for coeff, mono in e.terms:
                if len(mono) == 1 and isinstance(mono[0], ArrayTerm) and mono[0].array == a0:
                    j = sub(mono[0].index, o0)
                    if (coeff > 0) == (c0 > 0):
                        pos_idx.append(j)
                    else:
                        neg_idx.append(j)
            combos = 0
            for a in pos_idx:
                for b in neg_idx:
                    combos += 1
                    if combos > _MAX_PAIR_COMBOS:
                        return
                    # e(a) - e(b) >= 0 iff the order matches the direction
                    small, large = (b, a) if fact.direction.increasing else (a, b)
                    if self._nonneg(sub(large, small), depth - 1) is not Tri.TRUE:
                        continue
                    pattern = sub(fact.instance(a), fact.instance(b))
                    reduced = add(e, mul(-1, pattern))
                    if fact.direction.strict:
                        yield add(reduced, sub(large, small))
                    yield reduced

    # -- monotone pairs ------------------------------------------------------
    def _mono_pair_reductions(self, e: Expr, depth: int) -> Iterable[Expr]:
        """Yield expressions ``e'`` with ``e >= e'`` obtained by removing
        one provably-nonnegative monotone pair, so ``e' >= 0 ⟹ e >= 0``."""
        if not isinstance(e, Sum) or depth <= 1:
            return
        by_array: dict[str, list[tuple[Number, ArrayTerm]]] = {}
        for coeff, mono in e.terms:
            if len(mono) == 1 and isinstance(mono[0], ArrayTerm):
                at = mono[0]
                fact = self.facts.array_fact(at.array)
                if fact is not None and fact.mono is not None:
                    by_array.setdefault(at.array, []).append((coeff, at))
        combos = 0
        for array, entries in by_array.items():
            fact = self.facts.array_fact(array)
            assert fact is not None and fact.mono is not None
            positives = [(c, t) for c, t in entries if c > 0]
            negatives = [(c, t) for c, t in entries if c < 0]
            for (cp, tp), (cn, tn) in itertools.product(positives, negatives):
                combos += 1
                if combos > _MAX_PAIR_COMBOS:
                    return
                c = min(cp, -cn)
                # pair value: c * (A[tp.index] - A[tn.index])
                if fact.mono.increasing:
                    small, large = tn.index, tp.index
                else:
                    small, large = tp.index, tn.index
                if self._le_within(small, large, fact, depth - 1) is not Tri.TRUE:
                    continue
                # drop the pair: subtract c*A[tp.index] and add c*A[tn.index]
                reduced = add(e, mul(-c, tp), mul(c, tn))
                if fact.mono.strict:
                    # strictly monotone integer arrays grow at least by the
                    # index gap: A[large] - A[small] >= large - small
                    yield add(reduced, mul(c, sub(large, small)))
                yield reduced

    def _le_within(self, a: Expr, b: Expr, fact: ArrayFact, depth: int) -> Tri:
        """``a <= b`` and, when the fact is section-restricted, both
        indices lie inside the section."""
        r = self._nonneg(sub(b, a), depth)
        if r is not Tri.TRUE:
            return r
        if fact.section is not None:
            inside = tri_and(
                self._nonneg(sub(a, fact.section.lo), depth),
                self._nonneg(sub(fact.section.hi, b), depth),
            )
            if inside is not Tri.TRUE:
                return Tri.UNKNOWN
        return Tri.TRUE

    # -- interval bounding ------------------------------------------------------
    def _bound(self, e: Expr, side: _Side, depth: int) -> Expr:
        """A sound ``side`` bound of ``e`` (LOW: result <= e; HIGH: e <=
        result).  May return ±∞ or a still-symbolic expression.

        Elimination is *ranked*: atoms whose facts are defined in terms of
        other fact-bearing atoms (e.g. ``i2 ∈ [i1+1 : n]``) are replaced
        first, then the expression is re-canonicalized so correlated
        occurrences cancel before the base atoms are widened.  This is
        what makes ``rowptr[i2-1] - rowptr[i1] >= 0`` with
        ``i2 >= i1 + 1`` provable exactly.
        """
        for _ in range(max(depth, 1)):
            nxt = self._bound_once(e, side, depth)
            if nxt == e:
                return e
            e = nxt
            if isinstance(e, Const) or e.is_infinite:
                return e
        return e

    def _atom_rank(self, atom: Atom, depth: int, visiting: frozenset = frozenset()) -> int:
        """Dependency depth of an atom's facts: 0 = no facts, 1 = facts
        over unranked symbols, 1+max = facts referencing ranked atoms."""
        if atom in visiting or depth <= 0:
            return 0
        self._sync_memo()
        cached_rank = self._memo_rank.get(atom)
        if cached_rank is not None:
            return cached_rank
        endpoints: list[Expr] = []
        if isinstance(atom, Sym):
            rng = self.facts.sym_range(atom)
            if rng is None:
                self._memo_rank[atom] = 0
                return 0
            endpoints = [rng.lo, rng.hi]
        elif isinstance(atom, ArrayTerm):
            fact = self.facts.array_fact(atom.array)
            if fact is None or (fact.value_range is None and not fact.identity):
                self._memo_rank[atom] = 0
                return 0
            if fact.identity:
                endpoints = [atom.index]
            if fact.value_range is not None:
                endpoints += [fact.value_range.lo, fact.value_range.hi]
        elif isinstance(atom, OpaqueTerm):
            endpoints = list(atom.args)
        sub_rank = 0
        nested = visiting | {atom}
        for ep in endpoints:
            if ep.is_infinite or ep.is_bottom:
                continue
            for a in ep.atoms():
                sub_rank = max(sub_rank, self._atom_rank(a, depth - 1, nested))
        rank = 1 + sub_rank
        self._memo_rank[atom] = rank
        return rank

    def _bound_once(self, e: Expr, side: _Side, depth: int) -> Expr:
        if isinstance(e, Const) or e.is_infinite or e.is_bottom:
            return e
        if isinstance(e, Atom):
            return self._bound_atom(e, side, depth)
        assert isinstance(e, Sum)
        ranks = {a: self._atom_rank(a, depth) for _, mono in e.terms for a in mono}
        ranked = [r for r in ranks.values() if r >= 1]
        if not ranked:
            return e
        target_rank = max(ranked)
        parts: list[Expr] = [const(e.const)]
        for coeff, mono in e.terms:
            term_side = side if coeff > 0 else side.flip()
            if len(mono) == 1:
                atom = mono[0]
                if ranks[atom] == target_rank:
                    b = self._bound_atom(atom, term_side, depth)
                else:
                    b = atom
                if b.is_infinite:
                    return POS_INF if side is _Side.HIGH else NEG_INF
                parts.append(mul(coeff, b))
            else:
                bounded = self._bound_product(mono, term_side, depth)
                if bounded is None:
                    return POS_INF if side is _Side.HIGH else NEG_INF
                parts.append(mul(coeff, bounded))
        return add(*parts)

    def _bound_product(self, mono: tuple[Atom, ...], side: _Side, depth: int) -> Expr | None:
        """Bound a product of atoms; exact only with constant atom bounds."""
        intervals: list[tuple[Number, Number]] = []
        for atom in mono:
            lo = self._bound(atom, _Side.LOW, depth - 1)
            hi = self._bound(atom, _Side.HIGH, depth - 1)
            if isinstance(lo, Const) and isinstance(hi, Const):
                intervals.append((lo.value, hi.value))
            else:
                return None
        candidates: list[Number] = [1]
        for lo_v, hi_v in intervals:
            candidates = [c * v for c in candidates for v in (lo_v, hi_v)]
        return const(min(candidates) if side is _Side.LOW else max(candidates))

    def _bound_atom(self, atom: Atom, side: _Side, depth: int) -> Expr:
        if isinstance(atom, Sym):
            rng = self.facts.sym_range(atom)
            if rng is None:
                return atom
            ep = rng.lo if side is _Side.LOW else rng.hi
            if ep.is_infinite or ep == atom:
                return atom  # keep symbolic; it may cancel
            return ep  # one layer only; the outer fixpoint iterates
        if isinstance(atom, ArrayTerm):
            return self._bound_array_term(atom, side, depth)
        if isinstance(atom, OpaqueTerm):
            return self._bound_opaque(atom, side, depth)
        return atom

    def _bound_array_term(self, at: ArrayTerm, side: _Side, depth: int) -> Expr:
        fact = self.facts.array_fact(at.array)
        if fact is None:
            return at
        if fact.identity and self._index_in_section(at.index, fact, depth):
            return at.index
        if fact.value_range is not None and self._index_in_section(at.index, fact, depth):
            ep = fact.value_range.lo if side is _Side.LOW else fact.value_range.hi
            if ep.is_infinite:
                return at
            return ep
        return at

    def _index_in_section(self, index: Expr, fact: ArrayFact, depth: int) -> bool:
        if fact.section is None:
            return True
        inside = tri_and(
            self._nonneg(sub(index, fact.section.lo), depth - 1),
            self._nonneg(sub(fact.section.hi, index), depth - 1),
        )
        return inside is Tri.TRUE

    def _bound_opaque(self, op: OpaqueTerm, side: _Side, depth: int) -> Expr:
        if op.op in (OpaqueOp.MIN, OpaqueOp.MAX):
            bounds = [self._bound(a, side, depth - 1) for a in op.args]
            if any(b.is_infinite for b in bounds):
                return op
            from repro.symbolic.expr import smax, smin

            # min(args): lo = min(arg lows), hi = min(arg highs); dually max.
            return smin(*bounds) if op.op is OpaqueOp.MIN else smax(*bounds)
        if op.op is OpaqueOp.MOD:
            x, c = op.args
            if isinstance(c, Const) and c.value > 0:
                cm1 = const(c.value - 1)
                if side is _Side.HIGH:
                    return cm1
                # C remainder has the sign of the dividend
                if self._nonneg(x, depth - 1) is Tri.TRUE:
                    return ZERO
                return const(-(c.value - 1))
            return op
        if op.op is OpaqueOp.FLOORDIV:
            x, c = op.args
            if isinstance(c, Const) and c.value != 0:
                xlo = self._bound(x, _Side.LOW, depth - 1)
                xhi = self._bound(x, _Side.HIGH, depth - 1)
                if isinstance(xlo, Const) and isinstance(xhi, Const):
                    q = [
                        trunc_div(xlo.value, c.value),
                        trunc_div(xhi.value, c.value),
                    ]
                    return const(min(q)) if side is _Side.LOW else const(max(q))
            return op
        return op


# -- module-level convenience wrappers ---------------------------------------


def prove_le(a: ExprLike, b: ExprLike, facts: FactEnv | None = None) -> Tri:
    return Prover(facts).le(a, b)


def prove_lt(a: ExprLike, b: ExprLike, facts: FactEnv | None = None) -> Tri:
    return Prover(facts).lt(a, b)


def prove_nonneg(e: ExprLike, facts: FactEnv | None = None) -> Tri:
    return Prover(facts).nonneg(e)


def prove_eq(a: ExprLike, b: ExprLike, facts: FactEnv | None = None) -> Tri:
    return Prover(facts).eq(a, b)
