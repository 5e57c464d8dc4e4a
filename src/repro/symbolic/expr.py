"""Canonical symbolic integer expressions.

The analysis of the paper (Section 3) manipulates symbolic values such as
``λ + 1``, ``Λ + n*k``, ``rowptr[i-1] + [0 : COLUMNLEN-1]``.  This module
provides the expression layer: immutable, canonicalized expressions over

* named symbols (:class:`Sym`) with a *kind* distinguishing ordinary
  variables, symbolic parameters, loop variables, and the paper's special
  symbols λ (value of a variable at the start of the current iteration,
  kind ``ITER0``) and Λ (value at loop entry, kind ``LOOP0``);
* array-element atoms (:class:`ArrayTerm`), e.g. the symbolic value
  ``rowptr[i-1]``;
* opaque interpreted operators (:class:`OpaqueTerm`) for floor division,
  modulo, min and max, which the canonicalizer treats as atoms;
* the unknown value ⊥ (:data:`BOTTOM`) and the infinities used as range
  endpoints.

Every expression is normalized on construction into either a
:class:`Const` or a :class:`Sum` of monomials with ``Fraction``
coefficients, so structural equality coincides with algebraic equality for
the linear fragment the paper's algorithm needs (plus products of atoms).

Construction goes through the factory functions :func:`add`, :func:`sub`,
:func:`mul`, :func:`neg`, :func:`intdiv`, :func:`mod`, :func:`smin`,
:func:`smax`; the Python operators on :class:`Expr` delegate to them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from repro.errors import SymbolicError

Number = Union[int, Fraction]


class SymKind(Enum):
    """Role of a named symbol inside the analysis."""

    VAR = "var"  # ordinary program variable
    PARAM = "param"  # symbolic constant (e.g. ROWLEN)
    LOOPVAR = "loopvar"  # normalized loop index
    ITER0 = "iter0"  # λ: value at start of the current iteration
    LOOP0 = "loop0"  # Λ: value at loop entry
    FRESH = "fresh"  # internal fresh symbol (e.g. iteration distance δ)


# --------------------------------------------------------------------------
# Expression node classes
# --------------------------------------------------------------------------
#
# Every node class is *hash-consed*: construction goes through an intern
# table keyed by the (normalized) constructor arguments, so two
# structurally equal constructions return the identical object.  This
# makes ``__eq__`` / ``__hash__`` plain pointer operations (the object
# defaults), which is what the analysis hot paths — memo-table lookups,
# monomial sorting, frozenset/dict membership — actually spend their
# time on.
#
# The intern tables are unbounded and must NEVER be cleared while expr
# objects may be alive: clearing one would allow a later construction to
# produce a second, non-identical object that is structurally equal to a
# live one, silently breaking identity-as-equality everywhere.  They are
# therefore deliberately *not* part of the memo-table registry below
# (memo tables cache derived results and may be dropped at any time;
# intern tables define object identity and may not).


class Expr:
    """Base class of all symbolic expressions (immutable, interned)."""

    __slots__ = ()

    # -- immutability / interning support -----------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo: dict) -> "Expr":
        return self

    # -- classification helpers -------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return isinstance(self, BottomExpr)

    @property
    def is_infinite(self) -> bool:
        return isinstance(self, InfExpr)

    def const_value(self) -> Fraction:
        """Value of a :class:`Const`; raises otherwise."""
        raise SymbolicError(f"not a constant: {self}")

    # -- structure ----------------------------------------------------------
    def atoms(self) -> frozenset["Atom"]:
        """All atoms (syms, array terms, opaque terms) in the expression."""
        return frozenset()

    def free_syms(self) -> frozenset["Sym"]:
        """All :class:`Sym` leaves, including those nested inside atoms."""
        out: set[Sym] = set()
        for a in self.atoms():
            out.update(a.free_syms())
        return frozenset(out)

    def subst(self, fn: "SubstFn") -> "Expr":
        """Rebuild the expression, replacing atoms via ``fn``.

        ``fn`` receives each atom and returns a replacement :class:`Expr`
        or ``None`` to keep the atom (its sub-expressions are still
        rewritten recursively).
        """
        return self

    def contains(self, atom: "Atom") -> bool:
        """Does ``atom`` occur anywhere in this expression, including
        nested inside array indices and opaque-operator arguments?

        (Delegates to :func:`occurs_in`.  A previous inline version
        guarded the nested search with ``if isinstance(atom, Sym)`` —
        a condition independent of the iterated atom — so non-``Sym``
        atoms nested inside :class:`ArrayTerm` indices or
        :class:`OpaqueTerm` arguments were never found.)
        """
        return occurs_in(atom, self)

    # -- ordering key (deterministic canonical order) -----------------------
    def _key(self) -> tuple:
        raise NotImplementedError

    # -- python arithmetic operators ----------------------------------------
    def __add__(self, other: "ExprLike") -> "Expr":
        return add(self, other)

    def __radd__(self, other: "ExprLike") -> "Expr":
        return add(other, self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return sub(self, other)

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return sub(other, self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return mul(self, other)

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return mul(other, self)

    def __neg__(self) -> "Expr":
        return neg(self)


ExprLike = Union[Expr, int, Fraction]


class Atom(Expr):
    """An expression the canonicalizer treats as indivisible."""

    __slots__ = ()


_const_intern: dict[Fraction, "Const"] = {}
#: Integer fast path: ``hash(Fraction)`` needs a modular inverse, so the
#: ubiquitous integer constants get their own int-keyed table.  An
#: integer-valued Fraction and its int hash/compare equal, so the two
#: tables can never disagree — ints are normalized before the main
#: table is consulted.
_const_int_intern: dict[int, "Const"] = {}


class Const(Expr):
    """An integer (or exact rational) constant.

    ``value`` is a native ``int`` for integer constants and a
    ``Fraction`` only for genuine rationals: every numeric protocol the
    analyzer relies on (ordering, arithmetic, ``numerator`` /
    ``denominator``) is shared between the two, and the all-integer hot
    path — virtually every expression the corpus produces — then never
    pays ``Fraction.__new__``/``__add__``/``__eq__``.
    """

    __slots__ = ("value", "_key_cache")

    value: Number

    def __new__(cls, value: Number) -> "Const":
        if type(value) is int:
            self = _const_int_intern.get(value)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "value", value)
                object.__setattr__(self, "_key_cache", None)
                _const_int_intern[value] = self
            return self
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.denominator == 1:
            return cls.__new__(cls, value.numerator)
        self = _const_intern.get(value)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "_key_cache", None)
            _const_intern[value] = self
        return self

    def __reduce__(self) -> tuple:
        return (Const, (self.value,))

    def const_value(self) -> Fraction:
        return self.value

    def _key(self) -> tuple:
        k = self._key_cache
        if k is None:
            k = (0, float(self.value))
            object.__setattr__(self, "_key_cache", k)
        return k

    def __str__(self) -> str:
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"({self.value.numerator}/{self.value.denominator})"

    def __repr__(self) -> str:
        return f"Const({self.value})"


_sym_intern: dict[tuple[str, SymKind], "Sym"] = {}


class Sym(Atom):
    """A named symbol with a :class:`SymKind` role."""

    __slots__ = ("name", "kind", "_key_cache")

    name: str
    kind: SymKind

    def __new__(cls, name: str, kind: SymKind = SymKind.VAR) -> "Sym":
        key = (name, kind)
        self = _sym_intern.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "_key_cache", None)
            _sym_intern[key] = self
        return self

    def __reduce__(self) -> tuple:
        return (Sym, (self.name, self.kind))

    def atoms(self) -> frozenset[Atom]:
        return frozenset({self})

    def free_syms(self) -> frozenset["Sym"]:
        return frozenset({self})

    def subst(self, fn: "SubstFn") -> Expr:
        rep = fn(self)
        return rep if rep is not None else self

    def _key(self) -> tuple:
        k = self._key_cache
        if k is None:
            k = (1, self.kind.value, self.name)
            object.__setattr__(self, "_key_cache", k)
        return k

    def __str__(self) -> str:
        if self.kind is SymKind.ITER0:
            return f"λ({self.name})"
        if self.kind is SymKind.LOOP0:
            return f"Λ({self.name})"
        return self.name

    def __repr__(self) -> str:
        return f"Sym({self.name!r}, {self.kind.name})"


_array_intern: dict[tuple[str, Expr], "ArrayTerm"] = {}


class ArrayTerm(Atom):
    """The symbolic value of one array element, e.g. ``rowptr[i-1]``."""

    __slots__ = ("array", "index", "_key_cache")

    array: str
    index: Expr

    def __new__(cls, array: str, index: Expr) -> "ArrayTerm":
        key = (array, index)
        self = _array_intern.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "array", array)
            object.__setattr__(self, "index", index)
            object.__setattr__(self, "_key_cache", None)
            _array_intern[key] = self
        return self

    def __reduce__(self) -> tuple:
        return (ArrayTerm, (self.array, self.index))

    def atoms(self) -> frozenset[Atom]:
        return frozenset({self})

    def free_syms(self) -> frozenset[Sym]:
        return self.index.free_syms()

    def subst(self, fn: "SubstFn") -> Expr:
        rep = fn(self)
        if rep is not None:
            return rep
        new_index = self.index.subst(fn)
        if new_index is self.index:
            return self
        if new_index.is_bottom:
            return BOTTOM
        return ArrayTerm(self.array, new_index)

    def _key(self) -> tuple:
        k = self._key_cache
        if k is None:
            k = (2, self.array, self.index._key())
            object.__setattr__(self, "_key_cache", k)
        return k

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"

    def __repr__(self) -> str:
        return f"ArrayTerm({self.array!r}, {self.index!r})"


class OpaqueOp(Enum):
    FLOORDIV = "div"
    MOD = "mod"
    MIN = "min"
    MAX = "max"


_opaque_intern: dict[tuple[OpaqueOp, tuple[Expr, ...]], "OpaqueTerm"] = {}


class OpaqueTerm(Atom):
    """An interpreted but non-linear operator, treated as an atom."""

    __slots__ = ("op", "args", "_key_cache")

    op: OpaqueOp
    args: tuple[Expr, ...]

    def __new__(cls, op: OpaqueOp, args: Iterable[Expr]) -> "OpaqueTerm":
        if type(args) is not tuple:
            args = tuple(args)
        key = (op, args)
        self = _opaque_intern.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "op", op)
            object.__setattr__(self, "args", args)
            object.__setattr__(self, "_key_cache", None)
            _opaque_intern[key] = self
        return self

    def __reduce__(self) -> tuple:
        return (OpaqueTerm, (self.op, self.args))

    def atoms(self) -> frozenset[Atom]:
        return frozenset({self})

    def free_syms(self) -> frozenset[Sym]:
        out: set[Sym] = set()
        for a in self.args:
            out.update(a.free_syms())
        return frozenset(out)

    def subst(self, fn: "SubstFn") -> Expr:
        rep = fn(self)
        if rep is not None:
            return rep
        new_args = tuple(a.subst(fn) for a in self.args)
        if all(n is o for n, o in zip(new_args, self.args)):
            return self
        return _rebuild_opaque(self.op, new_args)

    def _key(self) -> tuple:
        k = self._key_cache
        if k is None:
            k = (3, self.op.value, tuple(a._key() for a in self.args))
            object.__setattr__(self, "_key_cache", k)
        return k

    def __str__(self) -> str:
        if self.op is OpaqueOp.FLOORDIV:
            return f"({self.args[0]} / {self.args[1]})"
        if self.op is OpaqueOp.MOD:
            return f"({self.args[0]} % {self.args[1]})"
        return f"{self.op.value}({', '.join(map(str, self.args))})"

    def __repr__(self) -> str:
        return f"OpaqueTerm({self.op.name}, {self.args!r})"


class BottomExpr(Expr):
    """⊥ — a value the compiler cannot analyze.  Absorbing element."""

    __slots__ = ()
    _instance: "BottomExpr | None" = None

    def __new__(cls) -> "BottomExpr":
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __reduce__(self) -> tuple:
        return (BottomExpr, ())

    def _key(self) -> tuple:
        return (9,)

    def __str__(self) -> str:
        return "⊥"

    def __repr__(self) -> str:
        return "BOTTOM"


class InfExpr(Expr):
    """±∞, used only as a range endpoint."""

    __slots__ = ("positive",)
    _pos: "InfExpr | None" = None
    _neg: "InfExpr | None" = None

    positive: bool

    def __new__(cls, positive: bool) -> "InfExpr":
        self = cls._pos if positive else cls._neg
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "positive", bool(positive))
            if positive:
                cls._pos = self
            else:
                cls._neg = self
        return self

    def __reduce__(self) -> tuple:
        return (InfExpr, (self.positive,))

    def _key(self) -> tuple:
        return (8, self.positive)

    def __str__(self) -> str:
        return "+inf" if self.positive else "-inf"

    def __repr__(self) -> str:
        return "POS_INF" if self.positive else "NEG_INF"


BOTTOM = BottomExpr()
POS_INF = InfExpr(True)
NEG_INF = InfExpr(False)

# A monomial is a sorted tuple of atoms (with repetition for powers).
Monomial = tuple[Atom, ...]


_sum_intern: dict[tuple, "Sum"] = {}


class Sum(Expr):
    """Canonical linear combination: ``const + Σ coeff_i * monomial_i``.

    Invariants enforced by :func:`_make_sum`: no zero coefficients, at
    least one term (otherwise a :class:`Const` is produced), terms sorted
    by monomial key, monomials non-empty and internally sorted.
    """

    __slots__ = ("const", "terms", "_key_cache")

    const: Number
    terms: tuple[tuple[Number, Monomial], ...]

    def __new__(
        cls, const: Number, terms: tuple[tuple[Number, Monomial], ...]
    ) -> "Sum":
        # Key on (numerator, denominator) int pairs rather than the
        # Fractions themselves: Fraction.__hash__ computes a modular
        # inverse per call, which dominated this lookup.  ``int`` and
        # integer-valued ``Fraction`` coefficients produce the same key,
        # so mixed callers still intern to one node.
        key = (
            const.numerator,
            const.denominator,
            tuple((c.numerator, c.denominator, m) for c, m in terms),
        )
        self = _sum_intern.get(key)
        if self is None:
            # store integer values as native ints (the Const discipline):
            # downstream coefficient arithmetic then stays in fast int ops
            if type(const) is Fraction and const.denominator == 1:
                const = const.numerator
            terms = tuple(
                (
                    c.numerator
                    if type(c) is Fraction and c.denominator == 1
                    else c,
                    m,
                )
                for c, m in terms
            )
            self = object.__new__(cls)
            object.__setattr__(self, "const", const)
            object.__setattr__(self, "terms", terms)
            object.__setattr__(self, "_key_cache", None)
            _sum_intern[key] = self
        return self

    def __reduce__(self) -> tuple:
        return (Sum, (self.const, self.terms))

    def atoms(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for _, mono in self.terms:
            out.update(mono)
        return frozenset(out)

    def subst(self, fn: "SubstFn") -> Expr:
        parts: list[Expr] = [Const(self.const)]
        changed = False
        for coeff, mono in self.terms:
            factors: list[Expr] = [Const(coeff)]
            for atom in mono:
                new_atom = atom.subst(fn)
                if new_atom is not atom:
                    changed = True
                factors.append(new_atom)
            parts.append(mul(*factors))
        if not changed:
            return self
        return add(*parts)

    def _key(self) -> tuple:
        k = self._key_cache
        if k is None:
            k = (
                5,
                float(self.const),
                tuple((float(c), tuple(a._key() for a in m)) for c, m in self.terms),
            )
            object.__setattr__(self, "_key_cache", k)
        return k

    def __str__(self) -> str:
        chunks: list[str] = []
        for coeff, mono in self.terms:
            body = "*".join(str(a) for a in mono)
            if coeff == 1:
                chunk = body
            elif coeff == -1:
                chunk = f"-{body}"
            else:
                c = Const(coeff)
                chunk = f"{c}*{body}"
            chunks.append(chunk)
        if self.const != 0 or not chunks:
            chunks.append(str(Const(self.const)))
        text = chunks[0]
        for chunk in chunks[1:]:
            text += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return text

    def __repr__(self) -> str:
        return f"Sum({self})"


SubstFn = Callable[[Atom], "Expr | None"]


# --------------------------------------------------------------------------
# Memoization of the canonicalizing constructors
# --------------------------------------------------------------------------
#
# Profiling the full-corpus analysis sweep (``benchmarks/
# bench_analysis_cost.py``) shows the pipeline spends most of its
# symbolic time re-canonicalizing the *same* small expressions: ``add``
# / ``mul`` / ``smin`` / ``smax`` are called thousands of times per
# kernel with a handful of distinct argument tuples (loop bounds,
# iteration distances, range endpoints).  Every :class:`Expr` is
# immutable and hashable, so the constructors are pure functions of
# their argument tuples and can be memoized safely — a cached result may
# be shared freely.
#
# The tables are bounded: when one exceeds ``_MEMO_LIMIT`` entries it is
# cleared wholesale (cheaper and simpler than LRU bookkeeping at this
# call rate; the working set per kernel is far below the limit).

_MEMO_LIMIT = 1 << 16

_memo_add: dict[tuple, Expr] = {}
_memo_mul: dict[tuple, Expr] = {}
_memo_minmax: dict[tuple, Expr] = {}
_memo_stats = {"hits": 0, "misses": 0}

# Registry of every memo table in the symbolic layer: name -> (entries,
# clear).  Modules that own a memo table (this one, ``ranges``,
# ``compare``) register it at import time, so :func:`clear_memo_tables`
# and :func:`memo_stats` cover all of them — a "cold" benchmark run is
# genuinely cold.  Intern tables are deliberately NOT registered: they
# define object identity and must never be cleared (see the note above
# the node classes).
_MEMO_REGISTRY: dict[str, tuple[Callable[[], int], Callable[[], None]]] = {}


def register_memo_table(
    name: str, entries: Callable[[], int], clear: Callable[[], None]
) -> None:
    """Register a memo table with the symbolic-layer registry.

    ``entries`` reports the current number of cached entries; ``clear``
    drops them all.  Clearing must always be safe (memo tables cache
    derived results only)."""
    _MEMO_REGISTRY[name] = (entries, clear)


register_memo_table("expr.add", _memo_add.__len__, _memo_add.clear)
register_memo_table("expr.mul", _memo_mul.__len__, _memo_mul.clear)
register_memo_table("expr.minmax", _memo_minmax.__len__, _memo_minmax.clear)


def _import_memo_owners() -> None:
    # Modules register their tables on import; force them in so the
    # registry is complete even if the caller only imported ``expr``.
    from repro.analysis import framework  # noqa: F401
    from repro.parallelizer import planner  # noqa: F401
    from repro.runtime import parallel  # noqa: F401
    from repro.symbolic import compare, ranges  # noqa: F401


def clear_memo_tables() -> None:
    """Drop every registered memo table (constructor memos here, the
    range-substitution memo in :mod:`repro.symbolic.ranges`, the prover
    memos in :mod:`repro.symbolic.compare`) and reset the counters —
    lets benchmarks measure genuinely cold runs.  Intern tables are left
    alone: dropping them would break the identity-as-equality invariant
    for live expressions."""
    _import_memo_owners()
    for _, clear in _MEMO_REGISTRY.values():
        clear()
    _memo_stats["hits"] = 0
    _memo_stats["misses"] = 0


def memo_stats() -> dict:
    """Hit/miss counters plus current sizes of every registered memo
    table (``tables`` maps registry name to entry count)."""
    _import_memo_owners()
    tables = {name: entries() for name, (entries, _) in _MEMO_REGISTRY.items()}
    return {
        "hits": _memo_stats["hits"],
        "misses": _memo_stats["misses"],
        "entries": sum(tables.values()),
        "tables": tables,
    }


def intern_stats() -> dict[str, int]:
    """Sizes of the hash-cons intern tables (diagnostics only — these
    are not memo tables and are never cleared)."""
    return {
        "const": len(_const_intern) + len(_const_int_intern),
        "sym": len(_sym_intern),
        "array_term": len(_array_intern),
        "opaque_term": len(_opaque_intern),
        "sum": len(_sum_intern),
    }


def _memo_get(table: dict[tuple, Expr], key: tuple) -> Expr | None:
    hit = table.get(key)
    if hit is not None:
        _memo_stats["hits"] += 1
    else:
        _memo_stats["misses"] += 1
    return hit


def _memo_put(table: dict[tuple, Expr], key: tuple, value: Expr) -> Expr:
    # Wholesale clearing at the limit is safe under hash-consing: a memo
    # table only caches *which* interned node a constructor returns, so
    # dropping entries merely forces recomputation, which re-interns to
    # the identical object.  The intern tables themselves are unbounded
    # and never cleared.
    if len(table) >= _MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


# --------------------------------------------------------------------------
# Factories / canonicalization
# --------------------------------------------------------------------------


#: Shared Fraction constants: ``Fraction(0)``/``Fraction(1)`` construction
#: is surprisingly hot in the canonicalizers below.
_F0 = Fraction(0)
_F1 = Fraction(1)
#: Integer sentinels for the canonicalizer's coefficient arithmetic.
#: Coefficients and constants are native ints on the all-integer path
#: (see :class:`Const`/:class:`Sum`), so the accumulators below start
#: from these and ``int + int`` / ``int * int`` never touch ``Fraction``
#: unless a genuine rational enters the expression.
_I0 = 0
_I1 = 1


def _coerce(x: ExprLike) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    raise SymbolicError(f"cannot coerce {x!r} to Expr")


def const(v: Number) -> Const:
    """Integer/rational constant expression."""
    return Const(v)


ZERO = const(0)
ONE = const(1)


def var(name: str) -> Sym:
    """Ordinary program variable symbol."""
    return Sym(name, SymKind.VAR)


def param(name: str) -> Sym:
    """Symbolic constant (problem-size parameter)."""
    return Sym(name, SymKind.PARAM)


def loopvar(name: str) -> Sym:
    """Normalized loop-index symbol."""
    return Sym(name, SymKind.LOOPVAR)


def lam(name: str) -> Sym:
    """λ(name): value of ``name`` at the start of the current iteration."""
    return Sym(name, SymKind.ITER0)


def big_lam(name: str) -> Sym:
    """Λ(name): value of ``name`` at loop entry."""
    return Sym(name, SymKind.LOOP0)


def fresh(name: str) -> Sym:
    """Internal fresh symbol (e.g. the iteration distance δ)."""
    return Sym(name, SymKind.FRESH)


def array_term(array: str, index: ExprLike) -> Expr:
    """Symbolic value of ``array[index]`` (⊥ if the index is ⊥)."""
    idx = _coerce(index)
    if idx.is_bottom:
        return BOTTOM
    return ArrayTerm(array, idx)


def _accumulate(
    acc: dict[Monomial, Number], e: Expr, scale: Number
) -> Number:
    """Fold ``scale * e`` into the monomial accumulator; returns the
    constant contribution."""
    one = scale is _I1  # the add() path — skip the scale multiplies
    if isinstance(e, Const):
        return e.value if one else scale * e.value
    if isinstance(e, Sum):
        if one:
            for coeff, mono in e.terms:
                acc[mono] = acc.get(mono, _I0) + coeff
            return e.const
        for coeff, mono in e.terms:
            acc[mono] = acc.get(mono, _I0) + scale * coeff
        return scale * e.const
    if isinstance(e, Atom):
        mono: Monomial = (e,)
        acc[mono] = acc.get(mono, _I0) + scale
        return _I0
    raise SymbolicError(f"non-canonical expression in add: {e!r}")


def _make_sum(acc: dict[Monomial, Number], constant: Number) -> Expr:
    terms = tuple(
        sorted(
            ((c, m) for m, c in acc.items() if c != 0),
            key=lambda cm: tuple(a._key() for a in cm[1]),
        )
    )
    if not terms:
        return Const(constant)
    if constant == 0 and len(terms) == 1:
        coeff, mono = terms[0]
        if coeff == 1 and len(mono) == 1:
            return mono[0]  # collapse 1*atom back to the atom
    return Sum(constant, terms)


def add(*xs: ExprLike) -> Expr:
    """Canonical sum; ⊥ absorbs, ±∞ propagates (opposite infinities are an
    error — ranges never combine them through this function)."""
    cached = _memo_get(_memo_add, xs)
    if cached is not None:
        return cached
    es = [_coerce(x) for x in xs]
    if any(e.is_bottom for e in es):
        return BOTTOM
    infs = [e for e in es if e.is_infinite]
    if infs:
        if all(i.positive for i in infs):  # type: ignore[union-attr]
            return POS_INF
        if all(not i.positive for i in infs):  # type: ignore[union-attr]
            return NEG_INF
        raise SymbolicError("adding opposite infinities")
    acc: dict[Monomial, Number] = {}
    constant: Number = _I0
    for e in es:
        c = _accumulate(acc, e, _I1)
        if c is not _I0:
            constant = c if constant is _I0 else constant + c
    return _memo_put(_memo_add, xs, _make_sum(acc, constant))


def neg(x: ExprLike) -> Expr:
    return mul(-1, x)


def sub(a: ExprLike, b: ExprLike) -> Expr:
    return add(a, neg(b))


def _mul_two(a: Expr, b: Expr) -> Expr:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    # infinity times a sign-known constant
    for x, y in ((a, b), (b, a)):
        if x.is_infinite:
            if isinstance(y, Const):
                if y.value == 0:
                    return ZERO
                pos = x.positive if y.value > 0 else not x.positive  # type: ignore[union-attr]
                return POS_INF if pos else NEG_INF
            raise SymbolicError("multiplying infinity by a symbolic value")
    if isinstance(a, Const):
        if a.value == 0:
            return ZERO
        acc: dict[Monomial, Number] = {}
        constant = _accumulate(acc, b, a.value)
        return _make_sum(acc, constant)
    if isinstance(b, Const):
        return _mul_two(b, a)
    # distribute sums; products of atoms become longer monomials
    a_terms = _as_terms(a)
    b_terms = _as_terms(b)
    acc = {}
    constant = _I0
    for ca, ma in a_terms:
        for cb, mb in b_terms:
            coeff = ca * cb
            mono = tuple(sorted(ma + mb, key=lambda at: at._key()))
            if mono:
                acc[mono] = acc.get(mono, _I0) + coeff
            else:
                constant += coeff
    return _make_sum(acc, constant)


def _as_terms(e: Expr) -> list[tuple[Number, Monomial]]:
    """View an expression as a list of (coeff, monomial) pairs."""
    if isinstance(e, Const):
        return [(e.value, ())]
    if isinstance(e, Atom):
        return [(_I1, (e,))]
    if isinstance(e, Sum):
        out = list(e.terms)
        if e.const != 0:
            out.append((e.const, ()))
        return out
    raise SymbolicError(f"non-canonical expression in mul: {e!r}")


def mul(*xs: ExprLike) -> Expr:
    cached = _memo_get(_memo_mul, xs)
    if cached is not None:
        return cached
    es = [_coerce(x) for x in xs]
    out: Expr = ONE
    for e in es:
        out = _mul_two(out, e)
    return _memo_put(_memo_mul, xs, out)


def _rebuild_opaque(op: OpaqueOp, args: tuple[Expr, ...]) -> Expr:
    if op is OpaqueOp.FLOORDIV:
        return intdiv(args[0], args[1])
    if op is OpaqueOp.MOD:
        return mod(args[0], args[1])
    if op is OpaqueOp.MIN:
        return smin(*args)
    return smax(*args)


def trunc_div(a: Number, b: Number) -> int:
    """Exact C-style (truncate-toward-zero) division of two exact
    numbers.  Int operands never round-trip through ``Fraction`` (or,
    worse, ``float`` — ``int / int`` would lose precision on wide
    values); rationals stay exact."""
    if type(a) is int and type(b) is int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    import math

    return math.trunc(Fraction(a) / Fraction(b))


def intdiv(a: ExprLike, b: ExprLike) -> Expr:
    """C-style truncating division, folded when both sides are constant."""
    ea, eb = _coerce(a), _coerce(b)
    if ea.is_bottom or eb.is_bottom:
        return BOTTOM
    if isinstance(eb, Const) and eb.value == 0:
        return BOTTOM
    if isinstance(ea, Const) and isinstance(eb, Const):
        return const(trunc_div(ea.value, eb.value))
    if isinstance(eb, Const) and eb.value == 1:
        return ea
    return OpaqueTerm(OpaqueOp.FLOORDIV, (ea, eb))


def mod(a: ExprLike, b: ExprLike) -> Expr:
    """C-style remainder, folded when both sides are constant."""
    ea, eb = _coerce(a), _coerce(b)
    if ea.is_bottom or eb.is_bottom:
        return BOTTOM
    if isinstance(eb, Const) and eb.value == 0:
        return BOTTOM
    if isinstance(ea, Const) and isinstance(eb, Const):
        q = trunc_div(ea.value, eb.value)
        return const(ea.value - q * eb.value)
    return OpaqueTerm(OpaqueOp.MOD, (ea, eb))


def _fold_minmax(op: OpaqueOp, xs: Sequence[ExprLike]) -> Expr:
    key = (op, *xs)
    cached = _memo_get(_memo_minmax, key)
    if cached is not None:
        return cached
    return _memo_put(_memo_minmax, key, _fold_minmax_uncached(op, xs))


def _fold_minmax_uncached(op: OpaqueOp, xs: Sequence[ExprLike]) -> Expr:
    es: list[Expr] = []
    for x in xs:
        e = _coerce(x)
        if e.is_bottom:
            return BOTTOM
        if isinstance(e, OpaqueTerm) and e.op is op:
            es.extend(e.args)
        else:
            es.append(e)
    pick = min if op is OpaqueOp.MIN else max
    # fold infinities
    if op is OpaqueOp.MIN and any(e is NEG_INF for e in es):
        return NEG_INF
    if op is OpaqueOp.MAX and any(e is POS_INF for e in es):
        return POS_INF
    absorb = POS_INF if op is OpaqueOp.MIN else NEG_INF
    es = [e for e in es if e is not absorb]
    if not es:
        return absorb
    # eliminate arguments dominated by a constant offset: min(x, x+1) = x
    keep_smaller = op is OpaqueOp.MIN
    kept: list[Expr] = []
    for e in es:
        dominated = False
        for i, k in enumerate(kept):
            diff = add(e, mul(-1, k))
            if isinstance(diff, Const):
                better_is_e = (diff.value < 0) if keep_smaller else (diff.value > 0)
                if better_is_e:
                    kept[i] = e
                dominated = True
                break
        if not dominated:
            kept.append(e)
    consts = [e for e in kept if isinstance(e, Const)]
    others: list[Expr] = []
    for e in kept:
        if not isinstance(e, Const) and e not in others:
            others.append(e)
    if consts:
        folded = const(pick(c.value for c in consts))
        if not others:
            return folded
        others.append(folded)
    if len(others) == 1:
        return others[0]
    others.sort(key=lambda e: e._key())
    return OpaqueTerm(op, tuple(others))


def smin(*xs: ExprLike) -> Expr:
    """Symbolic minimum (n-ary, flattened, constants folded)."""
    return _fold_minmax(OpaqueOp.MIN, xs)


def smax(*xs: ExprLike) -> Expr:
    """Symbolic maximum (n-ary, flattened, constants folded)."""
    return _fold_minmax(OpaqueOp.MAX, xs)


# --------------------------------------------------------------------------
# Queries on canonical expressions
# --------------------------------------------------------------------------


def occurs_in(needle: Atom, hay: Expr) -> bool:
    """Does ``needle`` occur anywhere inside ``hay`` (including nested in
    array indices and opaque-operator arguments)?"""
    if hay == needle:
        return True
    if isinstance(hay, ArrayTerm):
        return occurs_in(needle, hay.index)
    if isinstance(hay, OpaqueTerm):
        return any(occurs_in(needle, a) for a in hay.args)
    if isinstance(hay, Sum):
        for _, mono in hay.terms:
            for atom in mono:
                if occurs_in(needle, atom):
                    return True
        return False
    return False


def as_linear(e: Expr, atom: Atom) -> tuple[Expr, Expr] | None:
    """Decompose ``e == a*atom + b`` with ``a``, ``b`` free of ``atom``.

    Works for any atom kind (symbols and array terms alike).  Returns
    ``(a, b)`` or ``None`` if ``e`` is not linear in ``atom`` (e.g. the
    atom appears inside another atom's sub-expression or with itself in
    one monomial).
    """
    if isinstance(e, Const):
        return (ZERO, e)
    if e.is_infinite or e.is_bottom:
        return None
    coeff_terms: list[Expr] = []
    rest_terms: list[Expr] = []
    for c, mono in _as_terms(e):
        occurs = [a for a in mono if a == atom]
        nested = any(a != atom and occurs_in(atom, a) for a in mono)
        if nested or len(occurs) > 1:
            return None
        if occurs:
            others = tuple(a for a in mono if a != atom)
            coeff_terms.append(mul(const(c), *others) if others else const(c))
        else:
            rest_terms.append(mul(const(c), *mono) if mono else const(c))
    a = add(*coeff_terms) if coeff_terms else ZERO
    b = add(*rest_terms) if rest_terms else ZERO
    return a, b


def evaluate(e: Expr, env: Mapping[Atom, Number] | Mapping[Sym, Number]) -> Fraction:
    """Concretely evaluate ``e`` given numeric bindings for its atoms.

    Used by the property-based tests to check that canonicalization is
    meaning-preserving.  ``env`` may bind atoms directly; symbols nested
    inside :class:`ArrayTerm` / :class:`OpaqueTerm` are resolved
    recursively when the atom itself is unbound.
    """
    if isinstance(e, Const):
        return e.value
    if e.is_bottom or e.is_infinite:
        raise SymbolicError(f"cannot evaluate {e}")
    if isinstance(e, Atom):
        if e in env:
            return Fraction(env[e])  # type: ignore[index]
        if isinstance(e, OpaqueTerm):
            vals = [evaluate(a, env) for a in e.args]
            if e.op is OpaqueOp.MIN:
                return min(vals)
            if e.op is OpaqueOp.MAX:
                return max(vals)
            if e.op is OpaqueOp.FLOORDIV:
                if vals[1] == 0:
                    raise SymbolicError("division by zero in evaluate")
                return trunc_div(vals[0], vals[1])
            if vals[1] == 0:
                raise SymbolicError("mod by zero in evaluate")
            q = trunc_div(vals[0], vals[1])
            return vals[0] - q * vals[1]
        raise SymbolicError(f"unbound atom {e} in evaluate")
    assert isinstance(e, Sum)
    total = e.const
    for coeff, mono in e.terms:
        prod = Fraction(1)
        for atom in mono:
            prod *= evaluate(atom, env)
        total += coeff * prod
    return total
