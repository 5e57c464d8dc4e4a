"""Flow-sensitive property environment.

As the driver walks a function in program order it accumulates, per
array, the facts established so far (the output of Phase 2 plus direct
point assignments such as ``rowptr[0] = 0``), and per integer scalar the
currently known value range.  A write to an array kills its record unless
the write *is* the summarized defining pattern.

The environment also lowers itself into the prover-level
:class:`~repro.symbolic.facts.FactEnv` so dependence tests can reason
with the derived properties.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.analysis.properties import Prop, closure, describe
from repro.ir.symx import CondAtom
from repro.symbolic.expr import Expr, Sym, fresh, var
from repro.symbolic.facts import ArrayFact, FactEnv, MonoDir
from repro.symbolic.ranges import MultiSection, SymRange

#: Placeholder for "the element's index" in subset predicates: a record
#: with ``subset_guards = (jmatch[ELEM] >= 0,)`` states that the property
#: holds on the subset of elements ``x`` with ``jmatch[x] >= 0``.
ELEM = fresh("__elem")


@dataclass
class ArrayRecord:
    """Everything the analysis knows about one array at a program point.

    ``section`` is the *must* index region (a :class:`MultiSection` — a
    product of per-dimension ranges; rank 1 for the classic index-array
    case) over which ``props`` and ``value_range`` hold.  ``props`` key
    on the *leading* dimension: injectivity of a rank-2 record means the
    leading subscript map is injective.  ``subset_guards`` restrict the
    properties to the elements satisfying the guard predicates (the
    paper's "injective/monotonic subset" patterns, Section 2 item 3).
    """

    array: str
    section: MultiSection | None = None
    props: frozenset[Prop] = frozenset()
    value_range: SymRange | None = None
    subset_guards: tuple[CondAtom, ...] = ()
    source: str = ""  # loop label / statement that established the record

    def __post_init__(self) -> None:
        # accept a bare SymRange for the ubiquitous rank-1 case
        if isinstance(self.section, SymRange):
            self.section = MultiSection((self.section,))

    def has(self, p: Prop) -> bool:
        return p in closure(self.props)

    @property
    def index_section(self) -> SymRange | None:
        """The section as a rank-1 index range — the domain over which a
        1-D index array's properties and value bounds hold (``None``
        when the record is multi-dimensional or has no section)."""
        if self.section is None or self.section.rank != 1:
            return None
        return self.section.lead

    def describe(self) -> str:
        parts = []
        if self.section is not None:
            parts.append(str(self.section))
        if self.props:
            parts.append(describe(self.props))
        if self.value_range is not None:
            parts.append(f"values {self.value_range}")
        if self.subset_guards:
            parts.append("subset: " + " && ".join(map(str, self.subset_guards)))
        return f"{self.array}: " + ", ".join(parts) if parts else f"{self.array}: (no facts)"


@dataclass
class PropertyEnv:
    """Per-program-point analysis state."""

    records: dict[str, ArrayRecord] = field(default_factory=dict)
    # known point values of specific array elements, keyed by the full
    # index vector, e.g. rowptr[0] = [0:0] under ("rowptr", (0,))
    points: dict[tuple[str, tuple[Expr, ...]], SymRange] = field(default_factory=dict)
    # known scalar value ranges at this program point
    scalars: dict[str, SymRange] = field(default_factory=dict)
    # symbolic parameters assumed non-negative (problem sizes)
    param_ranges: dict[Sym, SymRange] = field(default_factory=dict)
    # asserted monotonic combinations of arrays (Section 2 item 2c)
    composites: list = field(default_factory=list)

    # -- updates ---------------------------------------------------------------
    def set_record(self, rec: ArrayRecord) -> None:
        self.records[rec.array] = rec

    def record(self, array: str) -> ArrayRecord | None:
        return self.records.get(array)

    def kill_array(self, array: str) -> None:
        self.kill_array_records(array)
        self.kill_array_points(array)

    def kill_array_records(self, array: str) -> None:
        """Drop the property record (and composites) for ``array`` — the
        slice of a write's kill owned by the property domain."""
        self.records.pop(array, None)
        self.composites = [
            c for c in self.composites if all(a != array for _, a, _ in c.terms)
        ]

    def kill_array_points(self, array: str) -> None:
        """Drop known element point values for ``array`` — the slice of a
        write's kill owned by the range domain."""
        for key in [k for k in self.points if k[0] == array]:
            del self.points[key]

    def set_point(
        self, array: str, index: "Expr | tuple[Expr, ...]", value: SymRange
    ) -> None:
        self.points[(array, _index_key(index))] = value

    def point_at(
        self, array: str, index: "Expr | tuple[Expr, ...]"
    ) -> SymRange | None:
        return self.points.get((array, _index_key(index)))

    def set_scalar(self, name: str, value: SymRange) -> None:
        self.scalars[name] = value

    def kill_scalar(self, name: str) -> None:
        self.scalars.pop(name, None)

    def snapshot(self) -> "PropertyEnv":
        """An independent copy of this program point's state.

        Hand-rolled rather than ``copy.deepcopy``: every field value
        (sections, ranges, props, guards, composites) is immutable, so
        fresh containers plus per-record shallow copies give the same
        isolation at a fraction of the cost — ``snapshot`` runs once per
        loop nest and used to dominate the pass-manager profile.
        """
        return PropertyEnv(
            records={
                name: ArrayRecord(
                    rec.array,
                    rec.section,
                    rec.props,
                    rec.value_range,
                    rec.subset_guards,
                    rec.source,
                )
                for name, rec in self.records.items()
            },
            points=dict(self.points),
            scalars=dict(self.scalars),
            param_ranges=dict(self.param_ranges),
            composites=list(self.composites),
        )

    def fingerprint(self) -> str:
        """Content digest of the full program-point state.

        Used by the incremental :class:`~repro.analysis.framework
        .PassManager` to decide whether a loop nest is being re-analyzed
        under the same entry facts.  Built from ``repr`` (not ``str``):
        symbol reprs carry the :class:`~repro.symbolic.expr.SymKind`,
        so e.g. a VAR and a PARAM of the same name cannot collide.
        """
        parts: list[str] = []
        for name in sorted(self.records):
            rec = self.records[name]
            props = ",".join(sorted(p.name for p in rec.props))
            parts.append(
                f"R|{name}|{rec.section!r}|{props}|{rec.value_range!r}"
                f"|{rec.subset_guards!r}|{rec.source}"
            )
        for key in sorted(self.points, key=repr):
            parts.append(f"P|{key!r}|{self.points[key]!r}")
        for name in sorted(self.scalars):
            parts.append(f"S|{name}|{self.scalars[name]!r}")
        for sym in sorted(self.param_ranges, key=repr):
            parts.append(f"G|{sym!r}|{self.param_ranges[sym]!r}")
        for comp in self.composites:  # program order is part of the state
            parts.append(f"C|{comp!r}")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- queries ------------------------------------------------------------------
    def scalar_range(self, name: str) -> SymRange | None:
        return self.scalars.get(name)

    # -- lowering to prover facts ----------------------------------------------------
    def to_facts(self) -> FactEnv:
        facts = FactEnv()
        for comp in self.composites:
            facts.add_composite(comp)
        for sym, rng in self.param_ranges.items():
            facts.set_sym_range(sym, rng)
        for name, rng in self.scalars.items():
            facts.set_sym_range(var(name), rng)
        for rec in self.records.values():
            mono: MonoDir | None = None
            c = closure(rec.props)
            if Prop.STRICT_INC in c:
                mono = MonoDir.STRICT_INC
            elif Prop.STRICT_DEC in c:
                mono = MonoDir.STRICT_DEC
            elif Prop.MONO_INC in c:
                mono = MonoDir.INC
            elif Prop.MONO_DEC in c:
                mono = MonoDir.DEC
            if rec.subset_guards:
                # subset-restricted facts are not sound as whole-array
                # prover facts; the extended test handles them specially
                continue
            if rec.section is not None and rec.section.rank != 1:
                # the prover's symbolic algebra binds rank-1 array terms
                # only; multi-dimensional sections stay at this layer
                continue
            section = rec.index_section
            value_range = rec.value_range
            if value_range is None and Prop.PERMUTATION in c and section is not None:
                # a permutation of section S is onto S: its values are
                # bounded by S even when no explicit value range was derived
                value_range = section
            facts.set_array_fact(
                rec.array,
                ArrayFact(
                    mono=mono,
                    value_range=value_range,
                    identity=Prop.IDENTITY in c,
                    section=section,
                ),
            )
        return facts

    def describe(self) -> str:
        lines = [rec.describe() for rec in self.records.values()]
        for (arr, idx), val in self.points.items():
            subs = "".join(f"[{i}]" for i in idx)
            lines.append(f"{arr}{subs} = {val}")
        return "\n".join(lines) if lines else "(empty)"


def _index_key(index: "Expr | tuple[Expr, ...]") -> tuple[Expr, ...]:
    """Normalize an element index to its index-vector key (a bare
    expression is the rank-1 case)."""
    return index if isinstance(index, tuple) else (index,)
