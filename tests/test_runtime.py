"""Runtime tests: interpreter vs NumPy references, the oracle, and the
performance model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import all_kernels
from repro.errors import InterpreterError
from repro.ir import build_function
from repro.runtime import check_loop_independence, run_function
from repro.runtime.perf_model import MachineModel, cg_time, figure10_model
from repro.workloads.npb_cg import CG_CLASSES


def run_kernel(name: str, seed: int = 0):
    k = all_kernels()[name]
    assert k.make_inputs is not None and k.reference is not None
    env = k.make_inputs(seed)
    expected = k.reference({k2: (v.copy() if isinstance(v, np.ndarray) else v) for k2, v in env.items()})
    func = build_function(k.source)
    run_function(func, env)
    return env, expected


class TestInterpreterVsReference:
    @pytest.mark.parametrize(
        "name",
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
            "histogram_serial",
            "par_reduce_mix",
            "par_private_branch",
            "par_carried_serial",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_kernel_matches_numpy_reference(self, name, seed):
        env, expected = run_kernel(name, seed)
        for arr_name, want in expected.items():
            got = env[arr_name]
            assert np.array_equal(got, want), f"{arr_name} mismatch in {name}"


class TestInterpreterSemantics:
    def test_c_division_truncates(self):
        f = build_function("void f(int out[]) { out[0] = -7 / 2; out[1] = -7 % 2; }")
        env = {"out": np.zeros(2, dtype=np.int64)}
        run_function(f, env)
        assert list(env["out"]) == [-3, -1]

    def test_bounds_check(self):
        f = build_function("void f(int a[], int n) { a[n] = 1; }")
        with pytest.raises(InterpreterError):
            run_function(f, {"a": np.zeros(4, dtype=np.int64), "n": 10})

    def test_while_and_break(self):
        f = build_function(
            "void f(int out[]) { int i; i = 0;"
            " while (1) { if (i == 5) { break; } i = i + 1; } out[0] = i; }"
        )
        env = {"out": np.zeros(1, dtype=np.int64)}
        run_function(f, env)
        assert env["out"][0] == 5

    def test_step_budget(self):
        f = build_function("void f() { int i; i = 0; while (1) { i = i + 1; } }")
        with pytest.raises(InterpreterError):
            run_function(f, {}, max_steps=1000)

    def test_downward_loop(self):
        f = build_function(
            "void f(int a[], int n) { int i; for (i = n - 1; i >= 0; i--) { a[i] = i; } }"
        )
        env = {"a": np.zeros(5, dtype=np.int64), "n": 5}
        run_function(f, env)
        assert list(env["a"]) == [0, 1, 2, 3, 4]


class TestOracle:
    def test_fig9_product_loop_independent(self):
        k = all_kernels()["fig9_csr_product"]
        env = k.make_inputs(3)
        f = build_function(k.source)
        report = check_loop_independence(f, env, "L3")
        assert report.independent
        assert report.iterations > 1

    def test_histogram_conflicts_found(self):
        k = all_kernels()["histogram_serial"]
        env = k.make_inputs(3)
        f = build_function(k.source)
        report = check_loop_independence(f, env, "L1")
        assert not report.independent
        assert any(c.other_is_write for c in report.conflicts)

    def test_recurrence_loop_dependent(self):
        f = build_function(
            "void f(int n, int a[]) { int i;"
            " for (i = 1; i < n; i++) { a[i] = a[i-1] + 1; } }"
        )
        env = {"a": np.zeros(10, dtype=np.int64), "n": 10}
        report = check_loop_independence(f, env, "L1")
        assert not report.independent
        assert not report.conflicts[0].other_is_write  # write-read chain

    def test_corrupted_rowptr_breaks_independence(self):
        """The oracle distinguishes input-dependent independence: a loop
        that is parallel for monotone rowptr conflicts when rowptr is
        corrupted — while the compiler's verdict for Figure 9 is input-
        independent because the *filling code* guarantees the property."""
        src = (
            "void f(int n, int rowptr[], int v[], int out[]) { int i, j, j1;"
            " for (i = 0; i < n + 1; i++) {"
            "   if (i == 0) { j1 = i; } else { j1 = rowptr[i-1]; }"
            "   for (j = j1; j < rowptr[i]; j++) { out[j] = v[j]; } } }"
        )
        f = build_function(src)
        from repro.workloads.generators import corrupted_rowptr, monotonic_rowptr

        good = monotonic_rowptr(6, seed=1)
        size = int(max(good)) + 20
        env = {
            "n": 6,
            "rowptr": np.concatenate([good, [good[-1]]]),
            "v": np.arange(size, dtype=np.int64),
            "out": np.zeros(size, dtype=np.int64),
        }
        assert check_loop_independence(f, env, "L1").independent
        bad = corrupted_rowptr(6, seed=1)
        size2 = int(max(bad)) + 20
        env2 = {
            "n": 6,
            "rowptr": np.concatenate([bad, [bad[-1]]]),
            "v": np.arange(size2, dtype=np.int64),
            "out": np.zeros(size2, dtype=np.int64),
        }
        assert not check_loop_independence(f, env2, "L1").independent


class TestFirstDivergence:
    """The one byte-exact comparison every engine check runs."""

    def test_identical_nans_agree(self):
        from repro.runtime.engines import first_divergence

        nan = np.array([np.nan, 1.0])
        assert first_divergence({"a": nan, "s": float("nan")}, {"a": nan.copy(), "s": np.nan}) is None

    @pytest.mark.parametrize(
        "got, name",
        [
            ({"a": np.array([1, 2], dtype=np.int32), "s": 3}, "a"),  # dtype
            ({"a": np.array([[1, 2]]), "s": 3}, "a"),  # shape
            ({"a": np.array([1, 3]), "s": 3}, "a"),  # bytes
            ({"a": np.array([1, 2]), "s": 4}, "s"),  # scalar value
            ({"a": np.array([1, 2])}, "s"),  # missing binding
            ({"a": np.array([1, 2]), "s": np.array([3])}, "s"),  # became an array
        ],
    )
    def test_first_binding_not_reproduced(self, got, name):
        from repro.runtime.engines import first_divergence

        want = {"a": np.array([1, 2], dtype=np.int64), "s": 3}
        assert first_divergence(want, got) == name

    def test_negative_zero_scalar_equals_zero(self):
        from repro.runtime.engines import first_divergence

        assert first_divergence({"s": 0.0}, {"s": -0.0}) is None
        assert first_divergence({"a": np.array([0.0])}, {"a": np.array([-0.0])}) == "a"


class TestPerfModel:
    def test_monotone_in_problem_size(self):
        m = MachineModel()
        assert cg_time(CG_CLASSES["B"], 1, m) > cg_time(CG_CLASSES["A"], 1, m)
        assert cg_time(CG_CLASSES["C"], 1, m) > cg_time(CG_CLASSES["B"], 1, m)

    def test_speedups_positive_and_bounded(self):
        series = figure10_model()
        for cls, points in series.items():
            for p in points:
                assert 1.0 < p.speedup < 8.0, (cls, p)

    def test_class_a_shape(self):
        s = {p.threads: p.speedup for p in figure10_model()["A"]}
        assert s[2] < s[4] < s[6]
        assert s[4] < s[8] < s[6]  # 8 threads only slightly above 4

    def test_class_bc_peak_at_8(self):
        for cls in ("B", "C"):
            s = {p.threads: p.speedup for p in figure10_model()[cls]}
            assert s[2] < s[4] < s[6] < s[8]

    def test_four_thread_speedup_near_paper(self):
        series = figure10_model()
        best4 = max(pts[1].speedup for pts in series.values())
        assert 3.0 <= best4 <= 4.5  # the paper reports 3.8 on four cores
