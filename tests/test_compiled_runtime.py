"""Unit tests for the compiled runtime backend: scalar closure
semantics, the vectorized fast path and its fallbacks, the batched
trace buffer, and the engine registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.ir import build_function
from repro.runtime import (
    TraceBuffer,
    check_loop_independence,
    compile_function,
    execute,
    resolve_engine,
)


class TestCompiledSemantics:
    """The interpreter-semantics tests, replayed on the compiled engine."""

    def test_c_division_truncates(self):
        f = build_function("void f(int out[]) { out[0] = -7 / 2; out[1] = -7 % 2; }")
        env = {"out": np.zeros(2, dtype=np.int64)}
        execute(f, env, engine="compiled")
        assert list(env["out"]) == [-3, -1]

    def test_bounds_check(self):
        f = build_function("void f(int a[], int n) { a[n] = 1; }")
        with pytest.raises(InterpreterError):
            execute(f, {"a": np.zeros(4, dtype=np.int64), "n": 10}, engine="compiled")

    def test_unbound_variable(self):
        f = build_function("void f(int a[]) { a[0] = ghost; }")
        with pytest.raises(InterpreterError):
            execute(f, {"a": np.zeros(1, dtype=np.int64)}, engine="compiled")

    def test_while_break_continue(self):
        f = build_function(
            "void f(int out[]) { int i, s; i = 0; s = 0;"
            " while (1) { i = i + 1; if (i == 3) { continue; }"
            " if (i > 6) { break; } s = s + i; } out[0] = s; }"
        )
        env = {"out": np.zeros(1, dtype=np.int64)}
        execute(f, env, engine="compiled")
        assert env["out"][0] == 1 + 2 + 4 + 5 + 6

    def test_step_budget(self):
        f = build_function("void f() { int i; i = 0; while (1) { i = i + 1; } }")
        with pytest.raises(InterpreterError):
            execute(f, {}, engine="compiled", max_steps=1000)

    def test_downward_loop(self):
        f = build_function(
            "void f(int a[], int n) { int i; for (i = n - 1; i >= 0; i--) { a[i] = i; } }"
        )
        env = {"a": np.zeros(5, dtype=np.int64), "n": 5}
        execute(f, env, engine="compiled")
        assert list(env["a"]) == [0, 1, 2, 3, 4]

    def test_body_modifying_loop_var(self):
        # the IR permits the body to rebind the loop variable; the
        # compiled loop must re-read it (fuzz kernels never do this, so
        # the closure normally advances a local instead)
        f = build_function(
            "void f(int a[], int n) { int i;"
            " for (i = 0; i < n; i++) { a[i] = 1; i = i + 1; } }"
        )
        env = {"a": np.zeros(8, dtype=np.int64), "n": 8}
        execute(f, env, engine="compiled")
        assert list(env["a"]) == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_return_stops_execution(self):
        f = build_function(
            "void f(int a[], int n) { int i;"
            " for (i = 0; i < n; i++) { if (i == 2) { return; } a[i] = 7; } }"
        )
        env = {"a": np.zeros(5, dtype=np.int64), "n": 5}
        execute(f, env, engine="compiled")
        assert list(env["a"]) == [7, 7, 0, 0, 0]

    def test_builtin_calls(self):
        f = build_function(
            "void f(int out[]) { out[0] = min(3, 8); out[1] = max(3, 8);"
            " out[2] = abs(0 - 9); }"
        )
        env = {"out": np.zeros(3, dtype=np.int64)}
        execute(f, env, engine="compiled")
        assert list(env["out"]) == [3, 8, 9]


class TestVectorizedFastPath:
    """The whole-array path must engage where legal and fall back where
    its preconditions fail — bit-identically either way."""

    def _stats(self, src, env, n=2000):
        f = build_function(src)
        compiled = compile_function(f)
        compiled.run(env)
        return compiled.last_stats

    def test_affine_loop_vectorizes(self):
        n = 2000
        env = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        stats = self._stats(
            "void f(int a[], int n) { int i; for (i = 0; i < n; i++) { a[i] = i * 3 + 1; } }",
            env,
        )
        assert stats.vec_activations == 1
        assert np.array_equal(env["a"], np.arange(n) * 3 + 1)

    def test_scatter_duplicate_indices_last_write_wins(self):
        n = 64
        src = (
            "void f(int off[], int data[], int n) { int i;"
            " for (i = 0; i < n; i++) { off[i] = 0; }"
            " for (i = 0; i < n; i++) { data[off[i]] = i; } }"
        )
        env = {"n": n, "off": np.zeros(n, dtype=np.int64), "data": np.zeros(4, dtype=np.int64)}
        stats = self._stats(src, env)
        assert stats.vec_activations == 2
        assert env["data"][0] == n - 1  # sequential semantics: last iteration wins

    def test_loop_carried_array_falls_back(self):
        # written array read in the body at a distance of two iterations
        # (no first-order recurrence): must run sequentially
        n = 100
        src = "void f(int a[], int n) { int i; for (i = 0; i < n; i++) { a[i + 2] = a[i] + 1; } }"
        env = {"n": n, "a": np.zeros(n + 2, dtype=np.int64)}
        stats = self._stats(src, env)
        assert stats.vec_activations == 0
        assert list(env["a"]) == [k // 2 for k in range(n + 2)]

    def test_out_of_bounds_falls_back_with_partial_effects(self):
        # iteration 50 goes out of bounds: the 50 earlier writes must
        # have landed (scalar replay), exactly like the interpreter
        n = 100
        src = "void f(int a[], int n) { int i; for (i = 0; i < n; i++) { a[i] = 9; } }"
        f = build_function(src)
        env = {"n": n, "a": np.zeros(50, dtype=np.int64)}
        with pytest.raises(InterpreterError):
            execute(f, env, engine="compiled")
        assert env["a"].sum() == 50 * 9

    def test_zero_divisor_falls_back_to_exact_error(self):
        src = (
            "void f(int a[], int b[], int n) { int i;"
            " for (i = 0; i < n; i++) { a[i] = 100 / b[i]; } }"
        )
        f = build_function(src)
        n = 40
        b = np.ones(n, dtype=np.int64)
        b[25] = 0
        env = {"n": n, "a": np.zeros(n, dtype=np.int64), "b": b}
        with pytest.raises(InterpreterError, match="division by zero"):
            execute(f, env, engine="compiled")
        assert env["a"][24] == 100 and env["a"][26] == 0

    def test_vectorized_c_division_and_mod(self):
        n = 200
        src = (
            "void f(int a[], int b[], int n) { int i;"
            " for (i = 0; i < n; i++) { a[i] = (i - 100) / 7; b[i] = (i - 100) % 7; } }"
        )
        env = {"n": n, "a": np.zeros(n, dtype=np.int64), "b": np.zeros(n, dtype=np.int64)}
        stats = self._stats(src, env)
        assert stats.vec_activations == 1
        for i in range(n):
            v = i - 100
            q = abs(v) // 7
            assert env["a"][i] == (q if v >= 0 else -q)
            r = abs(v) % 7
            assert env["b"][i] == (r if v >= 0 else -r)

    def test_int64_overflow_falls_back_to_python_semantics(self):
        # the interpreter computes intermediates as arbitrary-precision
        # Python ints and errors when the oversized result is stored;
        # the vector path must not silently wrap in int64 (review pin)
        n = 64
        src = (
            "void f(int a[], int n) { int i;"
            " for (i = 0; i < n; i++) { a[i] = (i + 1000000) * 4000000000 * 4000000000; } }"
        )
        f = build_function(src)
        env_i = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        env_c = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        err_i = err_c = None
        try:
            execute(f, env_i, engine="interp")
        except Exception as exc:  # noqa: BLE001 — numpy raises OverflowError here
            err_i = type(exc)
        try:
            execute(f, env_c, engine="compiled")
        except Exception as exc:  # noqa: BLE001
            err_c = type(exc)
        assert err_i is not None, "interp should reject the oversized store"
        # both engines fail at the same iteration with the same partial
        # effects (exception *classes* differ: numpy raises ValueError
        # through `.flat[i] =` and OverflowError through `[i] =`)
        assert err_c is not None, "compiled must not silently wrap in int64"
        assert np.array_equal(env_i["a"], env_c["a"])

    def test_int64_overflow_in_bounds_results_match(self):
        # large but representable products must still vectorize correctly
        n = 1000
        src = (
            "void f(int a[], int n) { int i;"
            " for (i = 0; i < n; i++) { a[i] = i * 9000000000000000 + 7; } }"
        )
        f = build_function(src)
        env = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        stats = self._stats(src, env, n)
        assert stats.vec_activations == 1
        assert env["a"][999] == 999 * 9000000000000000 + 7

    def test_guarded_body_not_vectorized(self):
        # a branch with an else: only a guard without one vectorizes
        n = 500
        src = (
            "void f(int a[], int n) { int i;"
            " for (i = 0; i < n; i++) { if (i % 2 == 0) { a[i] = 1; } else { a[i] = 3; } } }"
        )
        env = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        stats = self._stats(src, env)
        assert stats.vec_activations == 0
        assert env["a"].sum() == (n + 1) // 2 + 3 * (n // 2)

    def test_vectorized_trace_matches_interp_counts(self):
        n = 300
        src = (
            "void f(int idx[], int g[], int v[], int n) { int i;"
            " for (i = 0; i < n; i++) { idx[i] = (i * 5 + 2) % n; }"
            " for (i = 0; i < n; i++) { g[i] = v[idx[i]] + 1; } }"
        )
        f = build_function(src)

        def env():
            return {
                "n": n,
                "idx": np.zeros(n, dtype=np.int64),
                "g": np.zeros(n, dtype=np.int64),
                "v": np.arange(n, dtype=np.int64),
            }

        r_i = check_loop_independence(f, env(), "L2", engine="interp")
        r_c = check_loop_independence(f, env(), "L2", engine="compiled")
        assert r_c.independent and r_i.independent
        # one idx read + one v read + one g write per iteration
        assert r_i.accesses_recorded == r_c.accesses_recorded == 3 * n
        assert r_i.iterations == r_c.iterations == n


class TestTraceBuffer:
    def test_growth_preserves_rows(self):
        buf = TraceBuffer(["a"], capacity=16)
        for k in range(100):
            buf.append(0, k, k % 2 == 0, 1, k)
        buf.extend(0, np.arange(50), True, 2, np.arange(50), 50)
        aid, flat, wr, act, idx = buf.columns()
        assert buf.n == 150
        assert flat[99] == 99 and flat[100] == 0 and flat[149] == 49
        assert act[0] == 1 and act[149] == 2
        assert bool(wr[0]) and not bool(wr[1])

    def test_scalar_broadcast_extend(self):
        buf = TraceBuffer(["a", "b"], capacity=4)
        buf.extend(1, 7, False, 3, np.arange(10), 10)
        aid, flat, wr, act, idx = buf.columns()
        assert list(flat) == [7] * 10
        assert list(idx) == list(range(10))


class TestEngineRegistry:
    def test_default_is_compiled(self):
        assert resolve_engine(None) == "compiled"

    def test_explicit_engine_validated(self):
        with pytest.raises(ValueError):
            resolve_engine("warp-drive")

    def test_misspelled_tier_raises(self):
        # the caller's typo, like a misspelled engine: it raises instead
        # of running on a lower rung of the ladder or on the static tier
        from repro.service import (
            BatchEngine,
            corpus_requests,
            faults,
            validate_parallel_verdicts,
        )

        f = build_function(
            "void f(int a[], int n) { int i; for (i = 0; i < n; i++) { a[i] = i; } }"
        )
        env = {"a": np.zeros(4, np.int64), "n": 4}
        faults.drain_fallback_notes()
        with pytest.raises(ValueError, match="hybird"):
            execute(f, env, engine="parallel", tier="hybird")
        report = BatchEngine().run(
            r for r in corpus_requests() if r.name == "fig9_csr_product"
        )
        with pytest.raises(ValueError, match="bogus"):
            validate_parallel_verdicts(report, seeds=(0,), tier="bogus")
        assert faults.drain_fallback_notes() == []

    def test_compile_cache_reuses(self):
        f = build_function("void f(int a[]) { a[0] = 1; }")
        assert compile_function(f) is compile_function(f)
