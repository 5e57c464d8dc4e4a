"""Prover-level fact environment.

The numeric prover (:mod:`repro.symbolic.compare`) needs three kinds of
facts:

* value ranges of named symbols (loop bounds, parameters, λ/Λ symbols);
* per-array *monotone direction* — this powers the paper's key deduction
  ``Monotonic_inc(rowptr) ∧ i ≤ j ⟹ rowptr[i] ≤ rowptr[j]``;
* per-array element value ranges (optionally restricted to an index
  section) and the ``Identity`` shortcut ``a[i] = i``.

This is deliberately a *thin* projection of the richer property lattice in
:mod:`repro.analysis.properties`; the analysis layer lowers its lattice
into a :class:`FactEnv` before invoking the prover so that the symbolic
layer has no dependency on the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from repro.symbolic.expr import Expr, Sym
from repro.symbolic.ranges import SymRange


class MonoDir(Enum):
    """Monotone direction of an array's values over its index."""

    INC = "inc"
    DEC = "dec"
    STRICT_INC = "strict_inc"
    STRICT_DEC = "strict_dec"

    @property
    def increasing(self) -> bool:
        return self in (MonoDir.INC, MonoDir.STRICT_INC)

    @property
    def strict(self) -> bool:
        return self in (MonoDir.STRICT_INC, MonoDir.STRICT_DEC)


@dataclass(frozen=True, slots=True)
class CompositeMonoFact:
    """Monotonicity of a *combination* of arrays (the paper's "monotonic
    difference between arrays", Section 2 item 2c).

    The sequence ``e(j) = Σ coeff_t · array_t[j + offset_t]`` is monotone
    in ``j``; e.g. CG's ``rowstr[j] - nzloc[j-1]`` is
    ``terms = ((1, "rowstr", 0), (-1, "nzloc", -1))``.
    """

    terms: tuple[tuple[int, str, int], ...]
    direction: "MonoDir" = None  # type: ignore[assignment]

    def instance(self, j):  # noqa: ANN001 — returns Expr
        from repro.symbolic.expr import add, array_term, mul

        return add(*[mul(c, array_term(a, add(j, o))) for c, a, o in self.terms])


@dataclass(frozen=True, slots=True)
class ArrayFact:
    """Facts about one array, as consumed by the prover.

    ``section`` restricts where ``mono`` / ``value_range`` are known to
    hold (``None`` = the whole array as far as the program accesses it).
    """

    mono: MonoDir | None = None
    value_range: SymRange | None = None
    identity: bool = False
    section: SymRange | None = None

    def merged(self, other: "ArrayFact") -> "ArrayFact":
        """Combine two fact records (keep the more informative fields)."""
        return ArrayFact(
            mono=self.mono or other.mono,
            value_range=self.value_range or other.value_range,
            identity=self.identity or other.identity,
            section=self.section or other.section,
        )


@dataclass(slots=True)
class FactEnv:
    """Mutable collection of prover facts.

    ``version`` increments on every mutation so provers can memoize
    safely against a specific environment state.
    """

    sym_ranges: dict[Sym, SymRange] = field(default_factory=dict)
    arrays: dict[str, ArrayFact] = field(default_factory=dict)
    composites: list[CompositeMonoFact] = field(default_factory=list)
    version: int = 0

    def add_composite(self, fact: CompositeMonoFact) -> None:
        self.composites.append(fact)
        self.version += 1

    # -- symbols -------------------------------------------------------------
    def set_sym_range(self, sym: Sym, rng: SymRange) -> None:
        self.sym_ranges[sym] = rng
        self.version += 1

    def sym_range(self, sym: Sym) -> SymRange | None:
        return self.sym_ranges.get(sym)

    # -- arrays ------------------------------------------------------------------
    def set_array_fact(self, array: str, fact: ArrayFact) -> None:
        existing = self.arrays.get(array)
        self.arrays[array] = fact.merged(existing) if existing else fact
        self.version += 1

    def array_fact(self, array: str) -> ArrayFact | None:
        return self.arrays.get(array)

    # -- convenience constructors -----------------------------------------------
    def copy(self) -> "FactEnv":
        return FactEnv(
            dict(self.sym_ranges), dict(self.arrays), list(self.composites), self.version
        )

    @staticmethod
    def of(
        sym_ranges: Iterable[tuple[Sym, SymRange]] = (),
        arrays: Iterable[tuple[str, ArrayFact]] = (),
    ) -> "FactEnv":
        env = FactEnv()
        for s, r in sym_ranges:
            env.set_sym_range(s, r)
        for a, f in arrays:
            env.set_array_fact(a, f)
        return env
