"""A cold compile leaves no cyclic garbage.

Every object a compile builds is freed by reference counting the moment
nothing refers to it; none waits for the cycle collector.  A reference
cycle in a per-kernel object (a loop closure holding the dispatch hook
that holds the loop, a recursive nested function holding itself through
its closure cell) would hand every compiled function to the collector,
whose passes then grow with the compile rate.  The test compiles the
corpus and some fuzz kernels through every stage of ``repro
parallelize`` and the hybrid-tier lowering with the collector off, and
asserts that a collection afterwards finds nothing.
"""

from __future__ import annotations

import gc

from repro.analysis import analyze_function
from repro.corpus import all_kernels
from repro.frontend import parse_function
from repro.ir import build_function, function_to_c
from repro.parallelizer import plan_function
from repro.runtime import compile_parallel
from repro.symbolic.expr import clear_memo_tables
from repro.workloads import generators


def _compile(source: str, assertions) -> None:
    func = build_function(parse_function(source))
    analysis = analyze_function(func, assertions)
    plan_function(func, analysis, method="extended")
    function_to_c(func)
    compile_parallel(func, assertions, tier="hybrid")


def test_a_cold_compile_leaves_no_cyclic_garbage():
    jobs = [(k.source, k.assertion_env()) for k in all_kernels().values()]
    jobs += [(generators.random_kernel(seed).source, None) for seed in range(12)]
    jobs += [(generators.disjoint_sharing_kernel(seed).source, None) for seed in range(4)]
    for source, assertions in jobs:  # first-use imports and module tables
        _compile(source, assertions)
    gc.collect()
    gc.disable()
    try:
        for source, assertions in jobs:
            clear_memo_tables()
            _compile(source, assertions)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
