"""Dependence tests: access collection shapes, baselines, the extended
Range Test on every pattern, and method comparison."""

from __future__ import annotations

import pytest

from repro.analysis import ArrayRecord, Prop, PropertyEnv, analyze_function
from repro.corpus import all_kernels
from repro.dependence import collect_accesses, compare_methods, test_loop
from repro.ir import build_function


def prepared(src: str, assertions: PropertyEnv | None = None):
    f = build_function(src)
    res = analyze_function(f, assertions)
    return f, res


class TestAccessCollection:
    def test_fig9_product_loop_shapes(self, fig9_func):
        accs = collect_accesses(fig9_func, fig9_func.loop("L3"))
        writes = [a for a in accs.accesses if a.is_write]
        assert all(a.array == "product_array" for a in writes)
        assert len(writes) == 2  # two guarded variants of the span
        assert all(a.span is not None for a in writes)
        guards = {str(g) for a in writes for g in a.guards}
        assert any("== 0" in g for g in guards)
        assert any("!= 0" in g for g in guards)

    def test_indirect_shape(self):
        f = build_function(
            "void f(int nb, int r[], int p[], int B[]) { int b, k;"
            " for (b = 0; b < nb; b++) { for (k = r[b]; k < r[b+1]; k++) { B[p[k]] = b; } } }"
        )
        accs = collect_accesses(f, f.loop("L1"))
        w = next(a for a in accs.accesses if a.is_write)
        assert w.indirect is not None
        assert w.indirect.via == "p"
        assert w.indirect.arg_span is not None

    def test_point_shape_with_subscript_array(self):
        f = build_function(
            "void f(int n, int m[], int o[]) { int i, t;"
            " for (i = 0; i < n; i++) { t = m[i]; o[t] = i; } }"
        )
        accs = collect_accesses(f, f.loop("L1"))
        w = next(a for a in accs.accesses if a.is_write)
        assert w.point is not None
        assert "m[" in str(w.point)

    def test_conflicting_pairs_need_a_write(self):
        f = build_function(
            "void f(int n, int a[], int b[]) { int i;"
            " for (i = 0; i < n; i++) { b[i] = a[i] + a[i+1]; } }"
        )
        accs = collect_accesses(f, f.loop("L1"))
        pairs = accs.conflicting_pairs()
        assert all(p[0].array == "b" or p[1].array == "b" for p in pairs)

    def test_opaque_call_makes_unknown_write(self):
        f = build_function(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < n; i++) { touch(a, i); } }"
        )
        accs = collect_accesses(f, f.loop("L1"))
        w = next(a for a in accs.accesses if a.is_write)
        assert w.is_unknown


class TestBaselines:
    def test_gcd_independent_strided(self):
        # a[2i] vs a[2i+1]: gcd 2 does not divide 1
        f, res = prepared(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < n; i++) { a[2*i] = a[2*i+1]; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "gcd")
        assert r.parallel

    def test_gcd_same_subscript_not_carried(self):
        # a[i] = a[i] + 1 touches only its own iteration's element: the
        # refined gcd test recognizes the = direction as harmless
        f, res = prepared(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = a[i] + 1; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "gcd")
        assert r.parallel

    def test_gcd_unknown_on_shifted_subscript(self):
        # a[i] = a[i+1]: gcd 1 divides 1 — dependence cannot be ruled out
        f, res = prepared(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = a[i+1]; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "gcd")
        assert not r.parallel

    def test_banerjee_bounded_offset(self):
        # a[i] vs a[i + n]: within one iteration space they cannot meet
        f, res = prepared(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < 10; i++) { a[i] = a[i + 20]; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "banerjee")
        assert r.parallel

    def test_baselines_fail_on_subscripted_subscripts(self):
        k = all_kernels()["fig2_ua_injective"]
        f, res = prepared(k.source, k.assertion_env())
        for method in ("gcd", "banerjee", "range"):
            r = test_loop(f, f.loop(k.target_loop), res.env_at(k.target_loop), method)
            assert not r.parallel, method


class TestExtendedRangeTest:
    @pytest.mark.parametrize(
        "kernel_name",
        [
            "fig2_ua_injective",
            "fig3_cg_monotonic",
            "fig4_cg_monodiff",
            "fig5_csparse_subset",
            "fig6_csparse_simul",
            "fig7_ua_simul_inj",
            "fig8_ua_disjoint",
            "fig9_csr_product",
            "strict_mono_kernel",
        ],
    )
    def test_pattern_parallelized(self, kernel_name):
        k = all_kernels()[kernel_name]
        f, res = prepared(k.source, k.assertion_env())
        r = test_loop(f, f.loop(k.target_loop), res.env_at(k.target_loop), "extended")
        assert r.parallel, r.describe()

    def test_histogram_stays_serial(self):
        k = all_kernels()["histogram_serial"]
        f, res = prepared(k.source, k.assertion_env())
        r = test_loop(f, f.loop(k.target_loop), res.env_at(k.target_loop), "extended")
        assert not r.parallel

    def test_injectivity_needed_not_just_any_fact(self):
        # mt_to_id only monotonic (non-strict): writes may collide
        env = PropertyEnv()
        env.set_record(ArrayRecord("m", props=frozenset({Prop.MONO_INC})))
        f, res = prepared(
            "void f(int n, int m[], int o[]) { int i, t;"
            " for (i = 0; i < n; i++) { t = m[i]; o[t] = i; } }",
            env,
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "extended")
        assert not r.parallel

    def test_subset_injectivity_requires_guard(self):
        # jmatch injective only on its non-negative subset, but the loop
        # writes unconditionally: must stay serial
        k = all_kernels()["fig5_csparse_subset"]
        unguarded = k.source.replace("if (jmatch[i] >= 0) {\n            imatch[jmatch[i]] = i;\n        }", "imatch[jmatch[i]] = i;")
        assert "if" not in unguarded.split("{", 2)[2]
        f, res = prepared(unguarded, k.assertion_env())
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "extended")
        assert not r.parallel

    def test_first_iteration_handled_without_peeling(self, fig9_func, fig9_analysis):
        r = test_loop(
            fig9_func, fig9_func.loop("L3"), fig9_analysis.env_at("L3"), "extended"
        )
        assert r.parallel
        reasons = " ".join(p.reason for p in r.pairs)
        assert "infeasible" in reasons  # the i == 0 guard reasoning fired

    def test_mono_without_filling_code_fails(self):
        # Figure 9's product loop alone (no filling code, no assertions):
        # the extended test must conservatively refuse
        f, res = prepared(
            "void f(int n, int rowptr[], int v[], int w[], int out[]) {"
            " int i, j, j1;"
            " for (i = 0; i < n + 1; i++) {"
            "   if (i == 0) { j1 = i; } else { j1 = rowptr[i-1]; }"
            "   for (j = j1; j < rowptr[i]; j++) { out[j] = v[j] * w[j]; } } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "extended")
        assert not r.parallel

    def test_write_read_conflict_detected(self):
        f, res = prepared(
            "void f(int n, int a[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = a[i+1]; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "extended")
        assert not r.parallel

    def test_distinct_constant_offsets_parallel(self):
        f, res = prepared(
            "void f(int n, int a[], int b[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = b[i] + b[i+1]; } }"
        )
        r = test_loop(f, f.loop("L1"), res.env_at("L1"), "extended")
        assert r.parallel


class TestMethodComparison:
    def test_only_extended_wins_on_fig9(self, fig9_func, fig9_analysis):
        cmp = compare_methods(fig9_func, fig9_func.loop("L3"), fig9_analysis.env_at("L3"))
        assert cmp.verdicts == {
            "gcd": False,
            "banerjee": False,
            "range": False,
            "extended": True,
        }

    def test_all_methods_agree_on_affine(self):
        f, res = prepared(
            "void f(int n, int a[], int b[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = b[i]; } }"
        )
        cmp = compare_methods(f, f.loop("L1"), res.env_at("L1"))
        assert cmp.verdicts["extended"] and cmp.verdicts["range"]


class TestIdentityConvertGuardPairing:
    def test_identity_convert_keeps_guard_pairing(self):
        # the indirect dim sits on the *b* side: after Identity
        # conversion the subset-injectivity check must instantiate each
        # access's own guards (a regression here pairs b's subscript
        # with a's guards and wrongly reports the pair dependent)
        from repro.analysis.env import ELEM
        from repro.dependence import (
            Access,
            DimAccess,
            ExtendedRangeTest,
            IndexVector,
            IndirectIndex,
        )
        from repro.ir.symx import CondAtom
        from repro.symbolic.expr import array_term, const, loopvar

        src = (
            "void f(int pos[], int id[], int out[], int n)"
            "{ int i; for (i = 0; i < n; i++) { out[pos[i]] = i; } }"
        )
        func = build_function(src)
        loop = next(iter(func.loops()))
        env = PropertyEnv()
        env.set_record(
            ArrayRecord(
                "pos",
                props=frozenset({Prop.INJECTIVE}),
                subset_guards=(CondAtom(">=", array_term("pos", ELEM), const(0)),),
                source="asserted",
            )
        )
        env.set_record(
            ArrayRecord("id", props=frozenset({Prop.IDENTITY}), source="asserted")
        )
        lv = loopvar("i")
        guard = (CondAtom(">=", array_term("pos", lv), const(0)),)
        a = Access(
            "out", True,
            index=IndexVector((DimAccess(point=array_term("pos", lv)),)),
            guards=guard,
        )
        b = Access(
            "out", True,
            index=IndexVector(
                (DimAccess(indirect=IndirectIndex("id", arg_point=array_term("pos", lv))),)
            ),
            guards=guard,
        )
        verdict = ExtendedRangeTest(func, loop, env).test_pair(a, b)
        assert verdict.independent, verdict.reason


def _order_independence_problems(source: str, assertions: PropertyEnv | None) -> list[str]:
    """Every planned loop's pairs, tested by one ``ExtendedRangeTest.run()``
    (which shares one prover among the unguarded directions of the loop)
    against each pair tested alone on a fresh ``ExtendedRangeTest``;
    returns the loops where a verdict or reason differs."""
    from repro.dependence import ExtendedRangeTest
    from repro.parallelizer import parallelize

    out = parallelize(source, assertions=assertions)
    func, analysis = out.func, out.analysis
    problems = []
    for label in out.plan.loops:
        loop = func.loop(label)
        env = analysis.env_before.get(label, analysis.final_env)
        accs = collect_accesses(func, loop)
        for use_properties in (True, False):
            together = ExtendedRangeTest(func, loop, env, use_properties).run(accs)
            alone = [
                ExtendedRangeTest(func, loop, env, use_properties).test_pair(a, b)
                for a, b in accs.conflicting_pairs()
            ]
            got = [(p.independent, p.reason) for p in together.pairs]
            want = [(p.independent, p.reason) for p in alone]
            if got != want:
                problems.append(f"{label} (use_properties={use_properties}): {got} != {want}")
    return problems


class TestPairOrderIndependence:
    """A pair's verdict must not depend on the pairs tested before it:
    the unguarded directions of a loop share one prover and its memo, a
    guarded direction tests on facts of its own."""

    @pytest.mark.parametrize("name", sorted(all_kernels()))
    def test_corpus_kernel(self, name):
        k = all_kernels()[name]
        assert _order_independence_problems(k.source, k.assertion_env()) == []

    def test_fuzz_kernel(self, fuzz_seed):
        from repro.workloads.generators import random_kernel

        rk = random_kernel(fuzz_seed)
        assert _order_independence_problems(rk.source, None) == []
