"""Differential fuzzing: compile-time verdicts vs the dynamic oracle.

:func:`repro.workloads.generators.random_kernel` synthesizes seeded
mini-C kernels from subscripted-subscript pattern segments (affine
fills, strided/guarded scatters, derived rowptr walks, histograms,
loop-carried recurrences).  For every generated kernel the suite asserts
**soundness**: any loop the compile-time analysis declares PARALLEL must
be independent under the dynamic oracle on every generated input.  The
converse direction is *not* asserted — the compiler is allowed to be
conservative.

The number of seeds is controlled by ``pytest --fuzz-seeds N``
(default 200), so CI smoke jobs can shrink it and soak runs can grow it
without touching the code.

The oracle and the executions here run on the *default* engine (the
compiled backend, :data:`repro.runtime.engines.DEFAULT_ENGINE`); the
compiled backend is itself differentially pinned to the interpreter by
``tests/test_engine_equivalence.py``, so soundness checked against one
engine is soundness against both.
"""

from __future__ import annotations

import pytest

from repro.ir import build_function
from repro.parallelizer import parallelize
from repro.runtime import check_loop_independence, execute
from repro.workloads.generators import random_kernel

#: distinct interpreter inputs exercised per declared-parallel loop
INPUTS_PER_KERNEL = 2


def test_fuzz_soundness(fuzz_seed):
    """Declared-parallel ⟹ oracle-independent, for every random kernel."""
    rk = random_kernel(fuzz_seed)
    out = parallelize(rk.source)
    func = build_function(rk.source)
    for label in out.parallel_loops:
        for k in range(INPUTS_PER_KERNEL):
            env = rk.make_inputs(1000 * fuzz_seed + k)
            report = check_loop_independence(func, env, label)
            assert report.independent, (
                f"SOUNDNESS VIOLATION in fuzz{fuzz_seed} {rk.families}: "
                f"loop {label} declared parallel but conflicts dynamically: "
                + "; ".join(c.describe() for c in report.conflicts[:3])
            )


class TestGeneratorContract:
    """The generator itself must hold up its side of the bargain."""

    def test_deterministic_per_seed(self):
        for seed in (0, 7, 123):
            a, b = random_kernel(seed), random_kernel(seed)
            assert a.source == b.source
            assert a.families == b.families

    def test_distinct_across_seeds(self):
        sources = {random_kernel(s).source for s in range(25)}
        assert len(sources) == 25

    def test_generated_kernels_execute_in_bounds(self):
        # every kernel must be valid mini-C whose execution stays inside
        # the arrays make_inputs sizes (the signed-rowptr variant once
        # walked ptr below zero — pinned here via plain execution)
        for seed in range(40):
            rk = random_kernel(seed)
            func = build_function(rk.source)
            execute(func, rk.make_inputs(seed))

    def test_corpus_mix_has_positives_and_negatives(self):
        parallel = serial = 0
        for seed in range(40):
            rk = random_kernel(seed)
            out = parallelize(rk.source)
            n_par = len(out.parallel_loops)
            parallel += n_par
            serial += len(out.plan.loops) - n_par
        # the family pool guarantees both verdicts appear: affine/gather
        # segments parallelize, histogram/shifted-copy never may
        assert parallel > 10
        assert serial > 10

    def test_new_families_covered(self):
        # PR 3 grew the pool (symbolic strides, depth-3 nests, guarded
        # counter fills); this PR adds 2-D kernels with an indirect
        # leading dimension — all must appear in a modest seed window so
        # the soundness sweep actually sees them
        seen: set[str] = set()
        for seed in range(80):
            for fam in random_kernel(seed).families:
                seen.add(fam.split("(")[0])
        assert {"param_stride", "deep_nest", "counter_fill", "multidim"} <= seen

    def test_multidim_direct_rows_parallel_indirect_conservative(self):
        # the index-vector algebra must parallelize the direct-row 2-D
        # fill (leading dimension = the loop variable) while the scatter
        # through the unanalyzed row map stays serial
        found = 0
        for seed in range(120):
            rk = random_kernel(seed)
            if not any(f.startswith("multidim") for f in rk.families):
                continue
            found += 1
            out = parallelize(rk.source)
            labels = sorted(out.plan.loops)
            mrow_loops = [
                l for l in labels
                if out.plan.loops[l].dependence is not None
                and any(
                    a.array.startswith("mrow")
                    for a in out.plan.loops[l].dependence.accesses.accesses
                    if a.is_write
                )
            ]
            mind_loops = [
                l for l in labels
                if out.plan.loops[l].dependence is not None
                and any(
                    a.array.startswith("mind")
                    for a in out.plan.loops[l].dependence.accesses.accesses
                    if a.is_write
                )
            ]
            assert mrow_loops and all(
                out.plan.loops[l].parallel for l in mrow_loops
            ), f"fuzz{seed}: direct-row 2-D fill not parallel"
            outer_mind = [l for l in mind_loops if "." not in l]
            assert outer_mind and all(
                not out.plan.loops[l].parallel for l in outer_mind
            ), f"fuzz{seed}: indirect-row scatter must stay conservative"
        assert found >= 3

    def test_param_stride_stays_conservative(self):
        # a symbolic stride may be 0 at run time: the scatter loop must
        # never be declared parallel no matter what the analysis derives
        seen = 0
        for seed in range(80):
            rk = random_kernel(seed)
            if not any(f.startswith("param_stride") for f in rk.families):
                continue
            seen += 1
            out = parallelize(rk.source)
            for lp in out.plan.loops.values():
                if lp.dependence is None:
                    continue
                for pair in lp.dependence.pairs:
                    if pair.a.array.startswith("pdat"):
                        assert not lp.parallel, (
                            f"fuzz{seed}: scatter through symbolic stride "
                            f"declared parallel: {lp.reason}"
                        )
        assert seen > 3

    def test_counter_fill_scatter_parallel_and_sound(self):
        # the guarded-counter derivation must fire on the fuzz family
        # (the dedicated soundness check is test_fuzz_soundness)
        fired = 0
        for seed in range(80):
            rk = random_kernel(seed)
            if not any(f.startswith("counter_fill") for f in rk.families):
                continue
            out = parallelize(rk.source)
            scatter_loops = [
                lp
                for lp in out.plan.loops.values()
                if lp.parallel
                and lp.dependence is not None
                and any(p.a.array.startswith("cout") for p in lp.dependence.pairs)
            ]
            if scatter_loops:
                fired += 1
        assert fired > 3, "guarded-counter rule never fired on the fuzz corpus"

    def test_histogram_family_never_parallel(self):
        seen = 0
        for seed in range(60):
            rk = random_kernel(seed)
            if not any(f.startswith("histogram") for f in rk.families):
                continue
            seen += 1
            out = parallelize(rk.source)
            # the counting loop must be refused, with the dependence
            # pinned on the cnt array (if it were mis-parallelized, no
            # serial loop would name cnt)
            refused = [
                lp.label
                for lp in out.plan.loops.values()
                if not lp.parallel and "cnt" in lp.reason
            ]
            assert refused, f"histogram counting loop not refused in fuzz{seed}"
        assert seen > 3  # the 60-seed window must actually cover the family
