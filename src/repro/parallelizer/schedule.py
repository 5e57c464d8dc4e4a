"""Validated parallel-schedule IR: the contract between a PARALLEL
verdict and the parallel engine.

A :class:`LoopPlan` says a loop *may* run in parallel; a
:class:`ParallelSchedule` says exactly *how*: which scalars are
privatized per worker, which are reduction slots (operator + identity),
which arrays the body writes (for snapshot/rollback), and how the
iteration space chunks into contiguous blocks.  Following Prickle's
``ParRepr`` discipline, the schedule is re-validated against the loop
body at derivation time — every consistency failure is recorded in
``problems`` and an unvalidated schedule is never executed, it degrades
to the compiled serial path.  The checks are deliberately independent
of the planner: a bug in privatization cannot silently ship a wrong
schedule to the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.nodes import (
    IArrayRef,
    IVar,
    SAssign,
    SBreak,
    SIf,
    SLoop,
    SReturn,
    SWhile,
    Stmt,
)
from repro.ir.symtab import SymbolTable
from repro.parallelizer.planner import LoopPlan
from repro.parallelizer.privatization import (
    REDUCTION_IDENTITY,
    ScalarClass,
    analyze_scalars,
    reduction_update,
)


class ScheduleError(ValueError):
    """A schedule failed consistency validation and was asked to execute."""


@dataclass(frozen=True)
class ReductionSlot:
    """One reduction scalar: ``name = name ⊕ term`` events only."""

    name: str
    op: str
    identity: float | int

    def describe(self) -> str:
        return f"{self.op}:{self.name} (identity {self.identity})"


@dataclass(frozen=True)
class ParallelSchedule:
    """How one PARALLEL-verdict loop executes across workers."""

    label: str
    var: str
    step: int
    private: tuple[str, ...]
    reductions: tuple[ReductionSlot, ...]
    arrays_written: tuple[str, ...]
    #: consistency-validation failures; non-empty means the loop must
    #: take the serial path (and the engine records why)
    problems: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems

    def validate(self) -> "ParallelSchedule":
        """Raise :class:`ScheduleError` unless the schedule is executable."""
        if self.problems:
            raise ScheduleError(
                f"schedule for loop {self.label!r} failed validation: "
                + "; ".join(self.problems)
            )
        return self

    @staticmethod
    def chunks(trips: int, parts: int) -> list[tuple[int, int]]:
        """Split ``trips`` iterations into ≤ ``parts`` contiguous
        near-equal blocks of ``(first_trip, trip_count)``.

        Chunk *boundaries* depend on ``parts``, but because reductions
        fold back exactly in chunk order and privates take their final
        value from the last chunk, the observable result is independent
        of the split.
        """
        parts = max(1, min(parts, trips))
        base, rem = divmod(trips, parts)
        out: list[tuple[int, int]] = []
        start = 0
        for p in range(parts):
            n = base + (1 if p < rem else 0)
            out.append((start, n))
            start += n
        return out

    def describe(self) -> str:
        bits = [f"loop {self.label} over {self.var} step {self.step}"]
        if self.private:
            bits.append("private(" + ", ".join(self.private) + ")")
        for slot in self.reductions:
            bits.append("reduction(" + slot.describe() + ")")
        if self.arrays_written:
            bits.append("writes[" + ", ".join(self.arrays_written) + "]")
        if self.problems:
            bits.append("INVALID: " + "; ".join(self.problems))
        return " ".join(bits)

    @staticmethod
    def from_summary(d: dict) -> "ParallelSchedule":
        """Rebuild a schedule from its :meth:`summary` dict — the wire
        form the persistent worker fabric ships to pool workers (a
        round-trip is exact: ``s.from_summary(s.summary()) == s``)."""
        return ParallelSchedule(
            label=d["label"],
            var=d["var"],
            step=d["step"],
            private=tuple(d["private"]),
            reductions=tuple(
                ReductionSlot(r["name"], r["op"], r["identity"])
                for r in d["reductions"]
            ),
            arrays_written=tuple(d["arrays_written"]),
            problems=tuple(d["problems"]),
        )

    def summary(self) -> dict:
        """Deterministic JSON-safe summary for service payloads."""
        return {
            "label": self.label,
            "var": self.var,
            "step": self.step,
            "private": list(self.private),
            "reductions": [
                {"name": s.name, "op": s.op, "identity": s.identity}
                for s in self.reductions
            ],
            "arrays_written": list(self.arrays_written),
            "ok": self.ok,
            "problems": list(self.problems),
        }


def derive_schedule(
    loop: SLoop, plan: LoopPlan, symtab: SymbolTable
) -> ParallelSchedule:
    """Derive and consistency-check the schedule for one planned loop.

    Always returns a schedule; failures land in ``problems`` rather
    than raising, so callers can surface *why* a loop degraded.
    """
    problems: list[str] = []
    if not plan.parallel:
        problems.append(f"plan verdict is serial ({plan.reason})")
    scalars = plan.scalars
    if scalars is None or scalars.loop_var != loop.var:
        scalars = analyze_scalars(loop.body, loop.var, symtab)
    private = tuple(scalars.private)
    slots = []
    for name, op in scalars.reductions:
        if op not in REDUCTION_IDENTITY:
            problems.append(f"reduction {name}: unknown operator {op!r}")
            continue
        slots.append(ReductionSlot(name, op, REDUCTION_IDENTITY[op]))
    reductions = tuple(slots)
    if scalars.carried:
        problems.append("loop-carried scalars: " + ", ".join(scalars.carried))
    if loop.step == 0:
        problems.append("zero loop step")

    # --- independent re-validation against the body itself ---
    red_ops = {s.name: s.op for s in reductions}
    ok_written = {loop.var} | set(private) | set(red_ops)
    arrays: list[str] = []
    seen_arrays: set[str] = set()

    def scan(stmts: list[Stmt], top: bool) -> None:
        for s in stmts:
            if isinstance(s, SAssign):
                if isinstance(s.target, IArrayRef):
                    if s.target.array not in seen_arrays:
                        seen_arrays.add(s.target.array)
                        arrays.append(s.target.array)
                elif isinstance(s.target, IVar):
                    name = s.target.name
                    if name == loop.var:
                        problems.append(f"body rebinds loop variable {name}")
                    elif name in red_ops:
                        red = reduction_update(s)
                        if red is None or red[1] != red_ops[name]:
                            problems.append(
                                f"write to reduction scalar {name} is not a "
                                f"{red_ops[name]!r}-reduction update"
                            )
                    elif name not in ok_written and not symtab.is_array(name):
                        problems.append(f"unscheduled scalar write: {name}")
            elif isinstance(s, SBreak) and top:
                problems.append("break escapes the parallel loop")
            elif isinstance(s, SReturn):
                problems.append("return inside the parallel loop body")
            elif isinstance(s, SIf):
                scan(s.then, top)
                scan(s.other, top)
            elif isinstance(s, (SLoop, SWhile)):
                if isinstance(s, SLoop) and s.var == loop.var:
                    problems.append(f"nested loop rebinds loop variable {s.var}")
                # break/continue inside bind to the inner loop
                scan(s.body, False)

    scan(loop.body, True)
    return ParallelSchedule(
        label=loop.label,
        var=loop.var,
        step=loop.step,
        private=private,
        reductions=reductions,
        arrays_written=tuple(arrays),
        problems=tuple(dict.fromkeys(problems)),
    )
