"""End-to-end pipeline: C source in, annotated C + reports out.

This is the library's main entry point::

    from repro import parallelize
    out = parallelize(source)          # analyze + plan + annotate
    print(out.annotated_c)             # the paper's hand-produced artifact
    print(out.plan.describe())

Assertions seed properties of arrays whose filling code lies outside the
given function (the empirical-study kernels of Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import AnalysisResult, PropertyEnv, analyze_function
from repro.ir import IRFunction, build_function, function_to_c
from repro.parallelizer.planner import ParallelizationPlan, plan_function


@dataclass
class ParallelizeOutput:
    func: IRFunction
    analysis: AnalysisResult
    plan: ParallelizationPlan
    annotated_c: str

    @property
    def parallel_loops(self) -> list[str]:
        return self.plan.parallel_loops

    def describe(self) -> str:
        return self.plan.describe() + "\n\n" + self.annotated_c


def parallelize(
    source_or_func: "str | IRFunction",
    method: str = "extended",
    assertions: PropertyEnv | None = None,
    function: str | None = None,
) -> ParallelizeOutput:
    """Parallelize one mini-C function (source text or built IR)."""
    if isinstance(source_or_func, str):
        func = build_function(source_or_func, function)
    else:
        func = source_or_func
    analysis = analyze_function(func, assertions)
    plan = plan_function(func, analysis, method=method)
    return ParallelizeOutput(
        func=func,
        analysis=analysis,
        plan=plan,
        annotated_c=function_to_c(func),
    )
