"""Dependence-testing framework.

Given a loop, a property environment (from the analysis driver or from
assertions), and a method, decide whether the loop's iterations are
independent with respect to its *array* accesses.  Scalar dependences are
the parallelizer's business (privatization / reductions).

Methods:

* ``"gcd"``, ``"banerjee"`` — classic affine baselines;
* ``"range"``      — classic Range Test (no index-array properties);
* ``"extended"``   — the paper's extended Range Test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.env import PropertyEnv
from repro.dependence.accesses import collect_accesses
from repro.dependence.baselines import banerjee_test, gcd_test
from repro.dependence.extended import (
    ExtendedRangeTest,
    LoopDependenceResult,
    PairVerdict,
)
from repro.ir.nodes import IRFunction, SLoop
from repro.symbolic.compare import Tri

METHODS = ("gcd", "banerjee", "range", "extended")


def test_loop(
    func: IRFunction,
    loop: SLoop,
    prop_env: PropertyEnv | None = None,
    method: str = "extended",
) -> LoopDependenceResult:
    """Run one dependence-testing method over ``loop``."""
    env = prop_env if prop_env is not None else PropertyEnv()
    if method == "extended":
        return ExtendedRangeTest(func, loop, env, use_properties=True).run()
    if method == "range":
        return ExtendedRangeTest(func, loop, env, use_properties=False).run()
    if method in ("gcd", "banerjee"):
        return _affine_method(func, loop, env, method)
    raise ValueError(f"unknown dependence method {method!r}; pick from {METHODS}")


test_loop.__test__ = False  # not a pytest test, despite the name


def _affine_method(
    func: IRFunction, loop: SLoop, env: PropertyEnv, method: str
) -> LoopDependenceResult:
    accs = collect_accesses(func, loop)
    result = LoopDependenceResult(
        loop_label=loop.label, parallel=True, accesses=accs, method=f"{method}-test"
    )
    facts = env.to_facts()
    for a, b in accs.conflicting_pairs():
        if method == "gcd":
            tri = gcd_test(a, b, loop)
        else:
            tri = banerjee_test(a, b, loop, facts)
        ok = tri is Tri.TRUE
        reason = "no integer/in-bounds solution" if ok else "dependence not refuted"
        result.pairs.append(PairVerdict(a, b, ok, reason))
        if not ok:
            result.parallel = False
    return result


@dataclass
class MethodComparison:
    """Verdicts of every method on one loop (ablation harness)."""

    loop_label: str
    verdicts: dict[str, bool]

    def describe(self) -> str:
        cells = ", ".join(f"{m}={'P' if v else 's'}" for m, v in self.verdicts.items())
        return f"{self.loop_label}: {cells}"


def compare_methods(
    func: IRFunction,
    loop: SLoop,
    prop_env: PropertyEnv | None = None,
    methods: tuple[str, ...] = METHODS,
) -> MethodComparison:
    """Run all methods on one loop (the TAB-ABL1 ablation)."""
    verdicts = {m: test_loop(func, loop, prop_env, m).parallel for m in methods}
    return MethodComparison(loop.label, verdicts)
