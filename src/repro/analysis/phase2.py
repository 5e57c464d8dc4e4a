"""Phase 2: aggregation across the iteration space (Section 3.4).

Given the per-iteration effect from Phase 1, Phase 2 computes the effect
of the *entire* loop and collapses it into a :class:`LoopSummary`:

Scalar rules
    * loop-invariant effect                →  unchanged (last value);
    * ``λ + c`` with loop-invariant ``c``  →  ``Λ + n·c`` (range-aware:
      per-iteration contribution in ``[c_lo : c_hi]`` aggregates to
      ``[Λ + n·c_lo : Λ + n·c_hi]``);
    * ``λ + (α·i + β)`` (exact)            →  ``Λ + α·Σi + β·n``
      (the paper's advanced case ``λ + i ⟹ Λ + n(n-1)/2``);
    * anything else                        →  ⊥.

Array rules (updates with subscript ``i + k`` only, as the paper requires)
    * recurrence ``a[i+k] = a[i+k-d] + t`` with provably ``t ≥ 0``
      →  *Monotonic_inc* over the touched index range (strict if
      ``t ≥ 1``; decreasing duals likewise);
    * ``a[i+k] = (exact linear in i)``     →  *Identity* (coeff 1,
      offset 0) or strict monotonicity, hence injectivity;
    * loop-invariant value                 →  must-section with that
      value range (e.g. ``rowsize : [0:ROWLEN-1], [0:COLUMNLEN-1]``);
    * i-dependent value ranges             →  must-section, value range
      widened over the iteration space;
    * guarded (conditional) updates keep their guards — these become
      the *subset* facts used by the extended dependence test;
    * any other shape                      →  ⊥ for that array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.env import ArrayRecord, PropertyEnv
from repro.analysis.phase1 import ArrayUpdate, IterationEffect
from repro.analysis.properties import Prop
from repro.errors import AnalysisError
from repro.ir.nodes import SLoop
from repro.ir.symx import CondAtom, ir_to_sym
from repro.symbolic.compare import Prover, Tri
from repro.symbolic.expr import (
    ArrayTerm,
    Atom,
    BOTTOM,
    Const,
    Expr,
    Sym,
    SymKind,
    ZERO,
    add,
    as_linear,
    big_lam,
    const,
    intdiv,
    lam,
    loopvar,
    mul,
    occurs_in,
    sub,
    var,
)
from repro.symbolic.facts import FactEnv
from repro.symbolic.ranges import (
    MultiSection,
    SymRange,
    UNKNOWN_RANGE,
    range_subst_range,
    symrange,
)


@dataclass(frozen=True)
class SectionFact:
    """Aggregated effect of a loop on one array.

    ``section`` is a product of per-dimension ranges (rank 1 for the
    classic case); the leading dimension is the one the loop variable
    sweeps.  ``written_offset`` is the ``k`` in the leading subscript
    ``i + k`` — it lets the driver re-express guards over the loop
    variable as subset predicates over the element index.
    """

    array: str
    section: MultiSection
    props: frozenset[Prop] = frozenset()
    value_range: SymRange | None = None
    subset_guards: tuple[CondAtom, ...] = ()
    must: bool = True
    written_offset: Expr | None = None
    rule: str = "phase2"  # aggregation rule that produced the fact (provenance)

    def describe(self) -> str:
        from repro.analysis.properties import describe

        parts = [str(self.section)]
        if self.props:
            parts.append(describe(self.props))
        if self.value_range is not None:
            parts.append(str(self.value_range))
        if self.subset_guards:
            parts.append("if " + " && ".join(map(str, self.subset_guards)))
        if not self.must:
            parts.append("(may)")
        return f"{self.array}: " + ", ".join(parts)


@dataclass
class LoopSummary:
    """The collapsed loop: a set of expressions representing its effect."""

    loop_label: str
    loop_var: str
    trip_count: Expr
    scalar_post: dict[str, SymRange] = field(default_factory=dict)  # Λ-relative
    bottom_scalars: set[str] = field(default_factory=set)
    array_facts: dict[str, SectionFact] = field(default_factory=dict)
    bottom_arrays: set[str] = field(default_factory=set)
    written_arrays: set[str] = field(default_factory=set)

    # -- Phase-1 integration: the summary acts as a compound statement ----
    def apply_to_state(self, state, analyzer) -> None:  # noqa: ANN001 — duck-typed
        """Apply this loop's effect inside an *outer* loop's Phase 1."""
        new_values: dict[str, SymRange] = {}
        for name, post in self.scalar_post.items():
            mapping = self._lambda_mapping(post, state, analyzer)
            if mapping is None:
                new_values[name] = UNKNOWN_RANGE
            else:
                new_values[name] = range_subst_range(post, mapping)
        for name in self.bottom_scalars:
            new_values[name] = UNKNOWN_RANGE
        state.scalars.update(new_values)
        # arrays written by the collapsed loop are opaque to the outer
        # aggregation (their per-outer-iteration sections are handled by
        # the dependence tests, not by outer Phase 2)
        for arr in self.written_arrays | self.bottom_arrays:
            state.bottom_arrays.add(arr)

    def _lambda_mapping(self, post: SymRange, state, analyzer):  # noqa: ANN001
        mapping: dict[Atom, SymRange] = {}
        for ep in (post.lo, post.hi):
            if ep.is_infinite or ep.is_bottom:
                continue
            for atom in ep.atoms():
                if isinstance(atom, Sym) and atom.kind is SymKind.LOOP0:
                    cur = state.scalars.get(atom.name)
                    if cur is None:
                        cur = SymRange.point(var(atom.name))
                    if cur.is_unknown:
                        return None
                    mapping[atom] = cur
                elif isinstance(atom, Sym) and atom.kind is SymKind.VAR:
                    cur = state.scalars.get(atom.name)
                    if cur is not None:
                        if cur.is_unknown:
                            return None
                        mapping[atom] = cur
                elif isinstance(atom, ArrayTerm):
                    if atom.array in state.bottom_arrays or atom.array in state.updates:
                        return None
        return mapping

    def describe(self) -> str:
        lines = [f"summary of {self.loop_label} (trip count {self.trip_count}):"]
        for name, rng in sorted(self.scalar_post.items()):
            lines.append(f"  {name}: {rng}")
        for name in sorted(self.bottom_scalars):
            lines.append(f"  {name}: ⊥")
        for fact in self.array_facts.values():
            lines.append("  " + fact.describe())
        for arr in sorted(self.bottom_arrays):
            lines.append(f"  {arr}: ⊥")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


class Phase2Aggregator:
    """Aggregates one loop's :class:`IterationEffect` into a summary."""

    def __init__(self, loop: SLoop, effect: IterationEffect, prop_env: PropertyEnv):
        if abs(loop.step) != 1:
            raise AnalysisError(f"Phase 2 requires |step| == 1, got {loop.step}")
        self.loop = loop
        self.effect = effect
        self.prop_env = prop_env
        self.lv = loopvar(loop.var)
        lb = ir_to_sym(loop.lb)
        ub = ir_to_sym(loop.ub)
        if loop.step > 0:
            self.first, self.last = lb, sub(ub, 1)
            self.trip = sub(ub, lb)
        else:
            self.first, self.last = lb, add(ub, 1)
            self.trip = sub(lb, ub)
        self.index_range = (
            symrange(self.first, self.last) if loop.step > 0 else symrange(self.last, self.first)
        )
        self.facts = self._make_facts()
        self.prover = Prover(self.facts)

    def _make_facts(self) -> FactEnv:
        # Aggregation reasons under "the loop body executes", i.e. the
        # loop variable lies inside its iteration range; with a zero trip
        # count the written sections are empty and the summary is vacuous.
        facts = self.prop_env.to_facts()
        if not self.first.is_bottom and not self.last.is_bottom:
            facts.set_sym_range(self.lv, self.index_range)
        return facts

    # -- entry ----------------------------------------------------------------
    def run(self) -> LoopSummary:
        summary = LoopSummary(
            loop_label=self.loop.label,
            loop_var=self.loop.var,
            trip_count=self.trip,
        )
        self._aggregate_scalars(summary)
        self._aggregate_arrays(summary)
        summary.written_arrays = set(self.effect.updates) | set(self.effect.bottom_arrays)
        return summary

    # -- scalars -----------------------------------------------------------------
    def _aggregate_scalars(self, summary: LoopSummary) -> None:
        # final value of the loop variable itself
        exit_val = ir_to_sym(self.loop.ub)
        if not exit_val.is_bottom:
            summary.scalar_post[self.loop.var] = SymRange.point(exit_val)
        else:
            summary.bottom_scalars.add(self.loop.var)
        for name, rng in self.effect.scalars.items():
            if name == self.loop.var:
                continue
            post = self._aggregate_scalar(name, rng)
            if post is None:
                summary.bottom_scalars.add(name)
            else:
                summary.scalar_post[name] = post

    def _aggregate_scalar(self, name: str, rng: SymRange) -> SymRange | None:
        if rng.is_unknown:
            return None
        lam_sym = lam(name)
        lin_lo = as_linear(rng.lo, lam_sym) if not rng.lo.is_infinite else None
        lin_hi = as_linear(rng.hi, lam_sym) if not rng.hi.is_infinite else None
        if lin_lo is None or lin_hi is None:
            return None
        a_lo, b_lo = lin_lo
        a_hi, b_hi = lin_hi
        if self._mentions_other_lambda(b_lo, name) or self._mentions_other_lambda(b_hi, name):
            return None
        if a_lo == ZERO and a_hi == ZERO:
            # value independent of the previous iteration: final value is
            # the last iteration's value
            mapping = {self.lv: SymRange.point(self.last)}
            out = range_subst_range(rng, mapping)
            return None if out.is_unknown else out
        if a_lo == const(1) and a_hi == const(1):
            return self._aggregate_increment(name, b_lo, b_hi)
        return None

    def _aggregate_increment(self, name: str, b_lo: Expr, b_hi: Expr) -> SymRange | None:
        big = big_lam(name)
        lo_lin = as_linear(b_lo, self.lv)
        hi_lin = as_linear(b_hi, self.lv)
        if lo_lin is None or hi_lin is None:
            return None
        al, bl = lo_lin
        ah, bh = hi_lin
        if al == ZERO and ah == ZERO:
            # λ + [c_lo : c_hi] with loop-invariant bounds → Λ + n·[c_lo : c_hi]
            return symrange(add(big, mul(self.trip, bl)), add(big, mul(self.trip, bh)))
        if b_lo == b_hi and al == ah:
            # exact λ + (α·i + β): Λ + α·Σi + β·n, Σi over the real index
            # values (the paper's normalized form gives Λ + n(n-1)/2)
            sum_i = intdiv(mul(add(self.first, self.last), self.trip), 2)
            total = add(mul(al, sum_i), mul(bl, self.trip))
            return SymRange.point(add(big, total))
        return None

    def _mentions_other_lambda(self, e: Expr, name: str) -> bool:
        if e.is_infinite or e.is_bottom:
            return False
        return any(
            s.kind is SymKind.ITER0 and s.name != name for s in e.free_syms()
        )

    # -- arrays ----------------------------------------------------------------------
    def _aggregate_arrays(self, summary: LoopSummary) -> None:
        for arr in self.effect.bottom_arrays:
            summary.bottom_arrays.add(arr)
        for arr, upds in self.effect.updates.items():
            if arr in summary.bottom_arrays:
                continue
            fact = self._aggregate_array(arr, upds)
            if fact is None:
                summary.bottom_arrays.add(arr)
            else:
                summary.array_facts[arr] = fact

    def _aggregate_array(self, arr: str, upds: list[ArrayUpdate]) -> SectionFact | None:
        if len(upds) != 1:
            return None
        upd = upds[0]
        lin = as_linear(upd.index, self.lv)
        if lin is None:
            return None
        coeff, offset = lin
        if coeff != const(1):
            # the paper's "simple subscript" is i + k; anything else is ⊥
            return None
        if any(s.kind is SymKind.ITER0 for s in upd.index.free_syms()):
            return None  # e.g. column_number[index++] — subscript not i + k
        # trailing dimensions must be loop-invariant for the written
        # region to be the exact product (leading dim swept by i + k)
        for t in upd.trailing:
            if occurs_in(self.lv, t):
                return None
            if any(s.kind is SymKind.ITER0 for s in t.free_syms()):
                return None
            if any(isinstance(a, ArrayTerm) for a in t.atoms()):
                return None  # the indexed array could be overwritten mid-loop
        lo_idx = add(self.first, offset) if self.loop.step > 0 else add(self.last, offset)
        hi_idx = add(self.last, offset) if self.loop.step > 0 else add(self.first, offset)
        section = MultiSection.of(
            symrange(lo_idx, hi_idx), *(SymRange.point(t) for t in upd.trailing)
        )
        if upd.rank == 1:
            # structural rules bind rank-1 symbolic array terms
            # 1) recurrence a[i+k] = a[i+k-d] + t ?
            rec = self._try_recurrence(arr, upd, section, offset)
            if rec is not None:
                return rec
            # 2) exact linear-in-i value → identity / strict monotonicity
            ident = self._try_identity(arr, upd, section, offset)
            if ident is not None:
                return ident
        # 3) value range widened over the iteration space
        value = upd.value
        if not value.is_unknown:
            mapping = {self.lv: self.index_range}
            value = range_subst_range(value, mapping)
            if self._mentions_lambda_range(value):
                return None
        return SectionFact(
            array=arr,
            section=section,
            props=frozenset(),
            value_range=None if value.is_unknown else value,
            subset_guards=upd.guards,
            must=upd.always,
            written_offset=offset,
        )

    def _mentions_lambda_range(self, r: SymRange) -> bool:
        for ep in (r.lo, r.hi):
            if ep.is_infinite or ep.is_bottom:
                continue
            if any(s.kind is SymKind.ITER0 for s in ep.free_syms()):
                return True
        return False

    def _try_recurrence(
        self, arr: str, upd: ArrayUpdate, section: MultiSection, offset: Expr = ZERO
    ) -> SectionFact | None:
        if not upd.always:
            return None  # a skipped iteration breaks the chain
        candidates = [
            a
            for a in (upd.value.lo.atoms() if not upd.value.lo.is_infinite else frozenset())
            if isinstance(a, ArrayTerm) and a.array == arr
        ]
        for atom in candidates:
            d = sub(upd.index, atom.index)
            if not (isinstance(d, Const) and d.value >= 1):
                continue
            lin_lo = as_linear(upd.value.lo, atom) if not upd.value.lo.is_infinite else None
            lin_hi = as_linear(upd.value.hi, atom) if not upd.value.hi.is_infinite else None
            if lin_lo is None or lin_hi is None:
                continue
            if lin_lo[0] != const(1) or lin_hi[0] != const(1):
                continue
            t_lo, t_hi = lin_lo[1], lin_hi[1]
            if occurs_in(atom, t_lo) or occurs_in(atom, t_hi):
                continue
            props: frozenset[Prop] | None = None
            if self.prover.nonneg(t_lo) is Tri.TRUE:
                strict = self.prover.pos(t_lo) is Tri.TRUE
                props = frozenset({Prop.STRICT_INC if strict else Prop.MONO_INC})
            elif self.prover.nonneg(mul(-1, t_hi)) is Tri.TRUE:
                strict = self.prover.pos(mul(-1, t_hi)) is Tri.TRUE
                props = frozenset({Prop.STRICT_DEC if strict else Prop.MONO_DEC})
            if props is None:
                continue
            # the chain reaches back to the base element read first
            lead = section.lead
            full_section = MultiSection.of(symrange(sub(lead.lo, d), lead.hi))
            value_range = self._recurrence_value_range(arr, full_section, t_lo, t_hi, d.value)
            return SectionFact(
                array=arr,
                section=full_section,
                props=props,
                value_range=value_range,
                subset_guards=upd.guards,
                must=True,
                written_offset=offset,
            )
        return None

    def _recurrence_value_range(
        self, arr: str, section: MultiSection, t_lo: Expr, t_hi: Expr, d
    ) -> SymRange | None:
        """Bound the values from the base element, when it is known
        (e.g. rowptr[0] = 0 with non-negative increments ⟹ rowptr ≥ 0)."""
        base = self.prop_env.point_at(arr, section.lead.lo)
        if base is None:
            return None
        lo = base.lo
        hi = base.hi
        if t_hi.is_bottom or t_hi.is_infinite:
            from repro.symbolic.expr import POS_INF

            return symrange(lo, POS_INF) if self.prover.nonneg(t_lo) is Tri.TRUE else None
        total_hi = add(hi, mul(self.trip, t_hi))
        if self.prover.nonneg(t_lo) is Tri.TRUE:
            return symrange(lo, total_hi)
        return symrange(add(lo, mul(self.trip, t_lo)), total_hi)

    def _try_identity(
        self, arr: str, upd: ArrayUpdate, section: MultiSection, offset: Expr = ZERO
    ) -> SectionFact | None:
        if not upd.value.is_point:
            return None
        lin = as_linear(upd.value.lo, self.lv)
        if lin is None:
            return None
        c, b = lin
        if not isinstance(c, Const) or c.value == 0:
            return None
        if any(s.kind is SymKind.ITER0 for s in b.free_syms()):
            return None
        if occurs_in(self.lv, b):
            return None
        # The written index is i + k, so as a function of the *index* the
        # value has slope c: increasing along the array iff c > 0,
        # independent of the loop's direction.
        props = {Prop.STRICT_INC if c.value > 0 else Prop.STRICT_DEC}
        if c.value == 1 and b == ZERO:
            props.add(Prop.IDENTITY)
        i_min, i_max = self.index_range.lo, self.index_range.hi
        lo_v = add(mul(c, i_min if c.value > 0 else i_max), b)
        hi_v = add(mul(c, i_max if c.value > 0 else i_min), b)
        return SectionFact(
            array=arr,
            section=section,
            props=frozenset(props),
            value_range=symrange(lo_v, hi_v),
            subset_guards=upd.guards,
            must=upd.always,
            written_offset=offset,
        )


def aggregate(loop: SLoop, effect: IterationEffect, prop_env: PropertyEnv) -> LoopSummary:
    """Run Phase 2 for ``loop`` given its Phase-1 effect.  A loop with
    |step| ≠ 1 is not aggregated: every array its body writes and every
    scalar it modifies, the loop variable included, becomes ⊥."""
    if abs(loop.step) != 1:
        written = set(effect.updates) | effect.bottom_arrays
        return LoopSummary(
            loop_label=loop.label,
            loop_var=loop.var,
            trip_count=BOTTOM,
            bottom_scalars=effect.modified_scalars | {loop.var},
            bottom_arrays=written,
            written_arrays=set(written),
        )
    return Phase2Aggregator(loop, effect, prop_env).run()
