"""The parallelization pass.

For each loop (outermost first — an already-parallel outer loop is the
paper's goal, inner parallelism is not pursued further), combine

* the array verdict of the chosen dependence test, and
* the scalar verdict of privatization/reduction analysis,

into a :class:`LoopPlan`.  Plans that succeed annotate the IR loop with
an ``omp parallel for`` pragma carrying the private/reduction clauses.

**The plan memo.**  A whole :class:`ParallelizationPlan` is a pure
function of the function's content, the analysis it consumed, and the
caller's ``method``, so :func:`plan_function` memoizes it under
``(function_key, method)`` — the content key of
:func:`repro.analysis.framework.function_key` (function name, IR text
printed without pragmas, loop labels, symbol table, initial-environment
fingerprint).  The pipeline plans a function and then lowers it for the
parallel engine; the lowering's plan is a memo hit instead of a second
analysis plus a second run of every dependence test.  The rules that
keep it sound:

* a caller-supplied analysis is trusted only while its recorded
  :attr:`~repro.analysis.driver.AnalysisResult.key` equals the key of
  the function as it is now — a stale analysis neither reads nor fills
  the memo;
* only a clean passes-engine analysis fills it: legacy results and
  fallback-degraded ones carry no key and are never stored;
* pragmas are planner output, not input: they are not in the key, and a
  hit with ``annotate=True`` writes them onto the caller's loops exactly
  as a miss does;
* the table (``planner.plans``, bounded at :data:`_PLAN_MEMO_LIMIT`)
  clears with every other registered memo table, so a plan computed
  after :func:`~repro.symbolic.expr.clear_memo_tables` is computed from
  scratch.

Memoized plans are shared between callers: treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, PropertyEnv, analyze_function
from repro.analysis.framework import assumed_fingerprint, function_key
from repro.dependence import LoopDependenceResult, test_loop
from repro.ir.nodes import IRFunction, SLoop, Stmt
from repro.parallelizer.privatization import PrivatizationResult, analyze_scalars
from repro.symbolic.expr import register_memo_table


@dataclass
class LoopPlan:
    label: str
    parallel: bool
    reason: str
    dependence: LoopDependenceResult | None = None
    scalars: PrivatizationResult | None = None
    pragma: str | None = None
    # the chain of evidence behind the verdict: the dependence-test
    # decision first, then the provenance of every fact it consumed
    provenance: list[str] = field(default_factory=list)

    def describe(self) -> str:
        head = f"{self.label}: {'PARALLEL' if self.parallel else 'serial'} — {self.reason}"
        if self.pragma:
            head += f"\n  #pragma {self.pragma}"
        return head


@dataclass
class ParallelizationPlan:
    function: str
    method: str
    loops: dict[str, LoopPlan] = field(default_factory=dict)

    @property
    def parallel_loops(self) -> list[str]:
        return [l for l, p in self.loops.items() if p.parallel]

    def describe(self) -> str:
        lines = [f"parallelization plan for {self.function} ({self.method}):"]
        lines += ["  " + p.describe().replace("\n", "\n  ") for p in self.loops.values()]
        return "\n".join(lines)


def covered_by_parallel_ancestor(label: str, verdicts: "dict[str, bool]") -> bool:
    """Is ``label`` nested inside a loop ``verdicts`` marks parallel?

    :func:`plan_function` stops descending into parallel loops, so inner
    labels legitimately drop out of a plan; the equivalence gates use
    this predicate to tell such subsumed labels from real verdict
    differences."""
    parts = label.split(".")
    return any(verdicts.get(".".join(parts[:k])) for k in range(1, len(parts)))


#: (function_key, method) -> plan; see the module docstring
_PLAN_MEMO: dict[tuple[str, str], ParallelizationPlan] = {}
_PLAN_MEMO_LIMIT = 256

register_memo_table("planner.plans", _PLAN_MEMO.__len__, _PLAN_MEMO.clear)


def _memo_function_key(
    func: IRFunction,
    analysis: AnalysisResult | None,
    initial_env: PropertyEnv | None,
    key: str | None,
) -> str | None:
    """The content key this call's plan is memoized under, or ``None``
    when the memo must stay out of it."""
    if analysis is not None:
        if analysis.key is None or analysis.fallback is not None:
            return None  # legacy or degraded: never cached
        if function_key(func, analysis.assumed) != analysis.key:
            return None  # stale: ``func`` changed since it was analyzed
        return analysis.key
    if key is None:
        key = function_key(func, assumed_fingerprint(initial_env))
    return key


def plan_function(
    func: IRFunction,
    analysis: AnalysisResult | None = None,
    method: str = "extended",
    initial_env: PropertyEnv | None = None,
    annotate: bool = True,
    *,
    key: str | None = None,
) -> ParallelizationPlan:
    """Plan (and by default annotate) parallelization of every loop nest,
    descending no further once a loop is parallel.

    Plans are memoized by content (see the module docstring).  ``key``
    spares a caller that analyzes nothing itself (``analysis=None``) and
    has just computed ``function_key(func, assumed_fingerprint(
    initial_env))`` — the parallel engine's lowering — from computing it
    twice.
    """
    fkey = _memo_function_key(func, analysis, initial_env, key)
    memo_key = (fkey, method) if fkey is not None else None
    if memo_key is not None:
        cached = _PLAN_MEMO.get(memo_key)
        if cached is not None:
            if annotate:
                for loop in func.loops():
                    lp = cached.loops.get(loop.label)
                    if lp is not None and lp.parallel:
                        _annotate(loop, lp)
            return cached
    result = analysis if analysis is not None else analyze_function(func, initial_env)
    plan = ParallelizationPlan(function=func.name, method=method)

    def visit_loops(stmts: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, SLoop):
                loop_plan = plan_loop(func, s, result, method)
                plan.loops[s.label] = loop_plan
                if loop_plan.parallel and annotate:
                    _annotate(s, loop_plan)
                if not loop_plan.parallel:
                    visit_loops(s.body)
            else:
                for b in s.blocks():
                    visit_loops(b)

    visit_loops(func.body)
    if memo_key is not None and result.key == fkey:
        if len(_PLAN_MEMO) >= _PLAN_MEMO_LIMIT:
            _PLAN_MEMO.clear()
        _PLAN_MEMO[memo_key] = plan
    return plan


def plan_loop(
    func: IRFunction,
    loop: SLoop,
    analysis: AnalysisResult,
    method: str = "extended",
) -> LoopPlan:
    """Decide parallelizability of a single loop."""
    if abs(loop.step) != 1:
        reason = f"non-unit stride (step {loop.step}): not analyzed"
        return LoopPlan(
            label=loop.label,
            parallel=False,
            reason=reason,
            provenance=[f"verdict[{method}]: {reason}"],
        )
    env = analysis.env_before.get(loop.label, analysis.final_env)
    scalars = analyze_scalars(loop.body, loop.var, func.symtab)
    if not scalars.ok:
        return LoopPlan(
            label=loop.label,
            parallel=False,
            reason=f"loop-carried scalar(s): {', '.join(scalars.carried)}",
            scalars=scalars,
            provenance=[f"verdict[{method}]: loop-carried scalar(s): "
                        f"{', '.join(scalars.carried)}"],
        )
    dep = test_loop(func, loop, env, method)
    if not dep.parallel:
        failing = dep.failed_pairs()
        why = failing[0].reason if failing else "dependence not refuted"
        arrays = sorted({p.a.array for p in failing})
        reason = f"array dependence on {', '.join(arrays)}: {why}"
        return LoopPlan(
            label=loop.label,
            parallel=False,
            reason=reason,
            dependence=dep,
            scalars=scalars,
            provenance=_loop_provenance(analysis, dep, method, reason),
        )
    pragma = _pragma_text(scalars)
    reason = _success_reason(dep)
    return LoopPlan(
        label=loop.label,
        parallel=True,
        reason=reason,
        dependence=dep,
        scalars=scalars,
        pragma=pragma,
        provenance=_loop_provenance(analysis, dep, method, reason),
    )


def _loop_provenance(
    analysis: AnalysisResult,
    dep: LoopDependenceResult,
    method: str,
    reason: str,
) -> list[str]:
    """The verdict's chain of evidence: the dependence decision followed
    by the provenance of every array fact the test could have consumed."""
    chain = [f"verdict[{method}]: {reason}"]
    arrays: set[str] = set()
    if dep.accesses is not None:
        for a in dep.accesses.accesses:
            arrays.add(a.array)
            if a.index is not None:
                for d in a.index.dims:
                    if d.indirect is not None:
                        arrays.add(d.indirect.via)
    chain += [s.describe() for s in analysis.provenance.for_arrays(arrays)]
    return chain


def _success_reason(dep: LoopDependenceResult) -> str:
    reasons = {p.reason for p in dep.pairs}
    if not reasons:
        return "no conflicting array accesses"
    return "; ".join(sorted(reasons))


def _pragma_text(scalars: PrivatizationResult) -> str:
    parts = ["omp parallel for"]
    if scalars.private:
        parts.append(f"private({','.join(scalars.private)})")
    for name, op in scalars.reductions:
        parts.append(f"reduction({op}:{name})")
    return " ".join(parts)


def _annotate(loop: SLoop, plan: LoopPlan) -> None:
    assert plan.pragma is not None
    existing = tuple(p for p in loop.pragmas if not p.startswith("omp"))
    loop.pragmas = existing + (plan.pragma,)
