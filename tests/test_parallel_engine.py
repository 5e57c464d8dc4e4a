"""The parallel engine's own contract, beyond the differential suite:

* ordered reductions are **byte-identical** to sequential execution
  (``float.hex`` equality) at every worker count, on both paths (the
  compiled serial closure below the fabric threshold, and
  multiprocessing over shared memory above it);
* below the fabric threshold nothing parallel runs: no chunks, no
  activations, and on the hybrid tier no inspection;
* scalar privatization: a written-before-read scalar parallelizes, a
  carried scalar derives no schedule and takes the serial path;
* schedule validation records problems instead of executing invalid
  plans;
* the degradation ladder: an injected chunk/shm failure rolls back,
  replays serially, and files an ``engine:compiled`` fallback note;
* program errors (OOB, budget) reproduce the interpreter's exact error
  and partial effects even when they happen inside a worker chunk.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.corpus import all_kernels
from repro.ir import build_function
from repro.parallelizer import ParallelSchedule, derive_schedule, plan_function
from repro.runtime import (
    compile_parallel,
    execute,
    run_function,
    run_parallel,
    schedules_for,
)
from repro.runtime.parallel import INSPECT_MIN_TRIPS, MP_MIN_TRIPS
from repro.service import faults

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

REDUCE_SRC = all_kernels()["par_reduce_mix"].source
BRANCH_SRC = all_kernels()["par_private_branch"].source
CARRIED_SRC = all_kernels()["par_carried_serial"].source


def _reduce_env(n: int) -> dict:
    rng = np.random.default_rng(7)
    return {
        "a": rng.uniform(-3.0, 3.0, size=n),
        "s": 0.125,
        "lo": np.inf,
        "hi": -np.inf,
        "n": n,
    }


def _branch_env(n: int) -> dict:
    rng = np.random.default_rng(11)
    return {
        "a": rng.integers(-9, 10, size=n).astype(np.int64),
        "out": np.zeros(n, dtype=np.int64),
        "n": n,
    }


def _copy(env: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


class TestReductionDeterminism:
    """The reduction event stream replays the exact sequential op order."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_short_activation_runs_the_compiled_closure(self, workers):
        func = build_function(REDUCE_SRC)
        base = _reduce_env(48)  # under every fabric threshold
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=workers)
        for name in ("s", "lo", "hi"):
            assert float(env[name]).hex() == float(ref[name]).hex(), name
        c = pf.last_counters
        assert c["inproc_chunks"] == c["mp_chunks"] == c["parallel_activations"] == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mp_byte_identical(self, workers):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(REDUCE_SRC)
        n = max(MP_MIN_TRIPS, 4 * workers) * 2
        base = _reduce_env(n)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=workers)
        assert pf.last_counters["mp_chunks"] == workers  # the pool really ran
        for name in ("s", "lo", "hi"):
            assert float(env[name]).hex() == float(ref[name]).hex(), name

    def test_schedule_names_all_three_reductions(self):
        func = build_function(REDUCE_SRC)
        (sched,) = schedules_for(func).values()
        assert sched.ok
        assert sorted((r.name, r.op) for r in sched.reductions) == [
            ("hi", "max"),
            ("lo", "min"),
            ("s", "+"),
        ]
        assert "t" in sched.private


class TestPrivatization:
    def test_private_scalar_parallelizes(self):
        func = build_function(BRANCH_SRC)
        scheds = schedules_for(func)
        assert scheds["L1"].ok and "t" in scheds["L1"].private

    def test_mp_shared_memory_writeback(self):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(BRANCH_SRC)
        n = MP_MIN_TRIPS * 8
        base = _branch_env(n)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=2)
        assert pf.last_counters["mp_chunks"] == 2
        assert np.array_equal(env["out"], ref["out"])
        # the final private value is the last chunk's, i.e. sequential's
        assert env["t"] == ref["t"]

    def test_carried_scalar_forces_serial_path(self):
        func = build_function(CARRIED_SRC)
        assert schedules_for(func) == {}  # no PARALLEL verdict, no schedule
        base = {"a": np.zeros(64), "s": 3.0, "n": 64}
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=4)
        assert pf.last_counters["parallel_activations"] == 0
        assert np.array_equal(env["a"], ref["a"]) and env["s"] == ref["s"]


class TestHybridThreshold:
    """On the hybrid tier the inspector guards a fabric dispatch only: an
    activation too short for the fabric runs serially, uninspected."""

    SCATTER_SRC = """
    void scat(int a[], int idx[], int b[], int n)
    {
        int i;
        for (i = 0; i < n; i++) { a[idx[i]] = b[i] + 1; }
    }
    """

    @pytest.mark.parametrize("mp_min_trips, dispatched", [(33, 0), (32, 1)])
    def test_inspection_only_in_front_of_a_dispatch(self, mp_min_trips, dispatched):
        if dispatched and not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(self.SCATTER_SRC)
        n = 32
        base = {
            "a": np.zeros(n, np.int64),
            "idx": np.random.default_rng(3).permutation(n).astype(np.int64),
            "b": np.arange(n, dtype=np.int64),
            "n": n,
        }
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func, tier="hybrid")
        assert "L1" in pf.inspectors
        env = _copy(base)
        pf.run(env, workers=2, mp_min_trips=mp_min_trips)
        assert np.array_equal(env["a"], ref["a"])
        c = pf.last_counters
        assert c["inspection_skips"] == 0
        assert c["inspections"] == c["inspection_passes"] == dispatched
        assert c["parallel_activations"] == dispatched

    def test_inspector_lowers_from_the_planners_accesses(self, monkeypatch):
        # one access collection per dependence-tested loop: the inspector
        # reads the access set the planner's dependence test collected
        from repro.dependence import extended
        from repro.runtime import inspector
        from repro.symbolic.expr import clear_memo_tables

        labels: list[str] = []

        def counting(real):
            def collect(func, loop):
                labels.append(loop.label)
                return real(func, loop)

            return collect

        for module in (extended, inspector):
            monkeypatch.setattr(
                module, "collect_accesses", counting(module.collect_accesses)
            )
        clear_memo_tables()
        pf = compile_parallel(build_function(self.SCATTER_SRC), tier="hybrid")
        assert "L1" in pf.inspectors
        assert labels == ["L1"]


class TestSelfPairHulls:
    """A CSR row scatter's write pairs with itself: the range test's
    hulls of both members are one, evaluated once."""

    CSR_SRC = """
    void seg(int ptr[], int out[], int inp[], int n)
    {
        int i, j;
        for (i = 0; i < n; i++) {
            for (j = ptr[i]; j < ptr[i + 1]; j++) { out[j] = inp[j] + 1; }
        }
    }
    """

    @pytest.mark.parametrize("overlap", [False, True])
    def test_a_self_pair_evaluates_its_hulls_once(self, monkeypatch, overlap):
        from repro.runtime import inspector
        from repro.symbolic.expr import clear_memo_tables

        pf = compile_parallel(build_function(self.CSR_SRC), tier="hybrid")
        plan = pf.inspectors["L1"]
        n = 600
        sizes = np.arange(n, dtype=np.int64) % 4
        ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        if overlap:
            ptr[302] = ptr[301] - 2  # row 302 starts inside row 299
        env = {"ptr": ptr, "out": np.zeros(int(ptr[-1]) + 1, np.int64), "inp": np.zeros(int(ptr[-1]) + 1, np.int64), "n": n}
        evals: list[tuple[object, int]] = []
        per_pair: list[list[tuple[object, int]]] = []
        real_eval, real_hulls = inspector._Ctx.eval, inspector._hulls

        def counting_eval(ctx, e, mask):
            evals.append((e, id(mask)))
            return real_eval(ctx, e, mask)

        def counting_hulls(ctx, *args):
            before = len(evals)
            out = real_hulls(ctx, *args)
            per_pair.append(evals[before:])
            return out

        monkeypatch.setattr(inspector._Ctx, "eval", counting_eval)
        monkeypatch.setattr(inspector, "_hulls", counting_hulls)
        clear_memo_tables()
        res = inspector.inspect(plan, env, pf.fingerprint, 0, n)
        assert res.parallel is not overlap, res.describe()
        # the out[j] write against itself: its row's two bounds, once each
        assert [len(pair) for pair in per_pair] == [2], per_pair
        assert len(set(per_pair[0])) == 2, per_pair


class TestConstantThresholds:
    """The path an activation takes depends on its loop and trip count
    alone: no measured cost moves a threshold."""

    SCATTER_SRC = """
    void scat(int a[], int idx[], int b[], int n)
    {
        int i;
        for (i = 0; i < n; i++) {
            if (b[i] > 0) { a[idx[i]] = b[i]; } else { a[idx[i]] = 0 - b[i]; }
        }
    }
    """

    def test_a_free_measured_dispatch_moves_no_activation(self, monkeypatch):
        if not HAVE_FORK:
            pytest.skip("the fabric needs the fork start method")
        from repro.runtime import fabric

        func = build_function(BRANCH_SRC)
        pf = compile_parallel(func)
        assert not pf.scheduled["L1"].vector
        monkeypatch.setattr(fabric.get_fabric(2), "dispatch_cost_us", 0.0)
        for n, dispatches in ((MP_MIN_TRIPS - 1, 0), (MP_MIN_TRIPS, 1)):
            base = _branch_env(n)
            ref = _copy(base)
            run_function(func, ref)
            env = _copy(base)
            before = fabric.fabric_stats()["dispatches"]
            pf.run(env, workers=2)
            assert np.array_equal(env["out"], ref["out"])
            assert fabric.fabric_stats()["dispatches"] - before == dispatches, n

    def test_inspection_starts_at_its_constant(self):
        if not HAVE_FORK:
            pytest.skip("the fabric needs the fork start method")
        func = build_function(self.SCATTER_SRC)
        pf = compile_parallel(func, tier="hybrid")
        assert "L1" in pf.inspectors and not pf.scheduled["L1"].vector
        for n, inspected in ((INSPECT_MIN_TRIPS - 1, 0), (INSPECT_MIN_TRIPS, 1)):
            rng = np.random.default_rng(n)
            base = {
                "a": np.zeros(n, np.int64),
                "idx": rng.permutation(n).astype(np.int64),
                "b": rng.integers(-9, 10, size=n).astype(np.int64),
                "n": n,
            }
            ref = _copy(base)
            run_function(func, ref)
            env = _copy(base)
            pf.run(env, workers=2)
            assert np.array_equal(env["a"], ref["a"])
            c = pf.last_counters
            assert (c["inspection_skips"], c["inspections"]) == (1 - inspected, inspected)
            assert c["parallel_activations"] == inspected  # a permutation passes


class TestScheduleValidation:
    def test_serial_plan_is_a_problem(self):
        func = build_function(CARRIED_SRC)
        plan = plan_function(func, annotate=False)
        (loop,) = func.loops()
        sched = derive_schedule(loop, plan.loops["L1"], func.symtab)
        assert not sched.ok
        assert any("serial" in p or "carried" in p for p in sched.problems), (
            sched.problems
        )

    def test_break_is_a_problem(self):
        src = """
        void early(int a[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                if (a[i] < 0) { break; }
                a[i] = a[i] + 1;
            }
        }
        """
        func = build_function(src)
        plan = plan_function(func, annotate=False)
        (loop,) = func.loops()
        sched = derive_schedule(loop, plan.loops["L1"], func.symtab)
        assert not sched.ok and any("break" in p for p in sched.problems)

    def test_chunks_cover_contiguously(self):
        for trips, parts in [(10, 3), (256, 4), (5, 8), (1, 1)]:
            chunks = ParallelSchedule.chunks(trips, parts)
            assert sum(c for _, c in chunks) == trips
            pos = 0
            for first, count in chunks:
                assert first == pos and count >= 1
                pos += count
            sizes = [c for _, c in chunks]
            assert max(sizes) - min(sizes) <= 1  # near-equal


class TestDegradationLadder:
    def test_injected_worker_fault_replays_serially(self):
        if not HAVE_FORK:
            pytest.skip("the worker fault site sits on the fabric path, which needs fork")
        func = build_function(BRANCH_SRC)
        base = _branch_env(512)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        faults.drain_fallback_notes()
        with faults.injected("engine.parallel.worker:par_private_branch"):
            pf.run(env, workers=2)
        assert np.array_equal(env["out"], ref["out"])
        assert pf.last_counters["serial_fallbacks"] == 1
        notes = faults.drain_fallback_notes()
        assert any(
            kind == "engine:compiled" and "FaultInjected" in detail
            for kind, detail in notes
        ), notes

    def test_injected_shm_fault_replays_serially(self):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(BRANCH_SRC)
        base = _branch_env(MP_MIN_TRIPS * 8)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        faults.drain_fallback_notes()
        with faults.injected("engine.parallel.shm:par_private_branch"):
            pf.run(env, workers=2)
        assert np.array_equal(env["out"], ref["out"])
        assert pf.last_counters["mp_chunks"] == 0
        assert any(
            kind == "engine:compiled" for kind, _ in faults.drain_fallback_notes()
        )

    def test_execute_ladder_rolls_back_to_compiled(self, monkeypatch):
        # a fault below run_parallel is handled *inside* the engine; a
        # fault in the compiled rung after an injected parallel failure
        # exercises execute()'s own rung ordering
        func = build_function(BRANCH_SRC)
        base = _branch_env(64)
        ref = _copy(base)
        run_function(func, ref)
        env = _copy(base)
        out = execute(func, env, engine="parallel")
        assert np.array_equal(out["out"], ref["out"])


class TestProgramErrorsReproduceExactly:
    OOB_SRC = """
    void oob(int a[], int out[], int n)
    {
        int i, t;
        for (i = 0; i < n; i++) {
            t = a[i] + 1;
            out[i + 1] = t;
        }
    }
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oob_error_and_partial_effects_match(self, workers):
        from repro.errors import InterpreterError

        func = build_function(self.OOB_SRC)
        n = 64
        base = {
            "a": np.arange(n, dtype=np.int64),
            "out": np.zeros(n, dtype=np.int64),
            "n": n,
        }
        ref = _copy(base)
        with pytest.raises(InterpreterError) as e_ref:
            run_function(func, ref)
        env = _copy(base)
        with pytest.raises(InterpreterError) as e_par:
            run_parallel(func, env, workers=workers)
        assert str(e_par.value) == str(e_ref.value)
        assert np.array_equal(env["out"], ref["out"])  # same partial writes

    def test_step_budget_matches_compiled(self):
        from repro.errors import InterpreterError

        func = build_function(BRANCH_SRC)
        env = _branch_env(2048)
        ref = _copy(env)
        with pytest.raises(InterpreterError) as e_ref:
            run_function(func, ref, max_steps=500)
        with pytest.raises(InterpreterError) as e_par:
            run_parallel(func, env, max_steps=500, workers=2)
        assert type(e_par.value) is type(e_ref.value)

    def test_nest_over_budget_stays_off_the_fabric(self):
        """The dispatch hook charges each outer trip of a constant-row
        nest its whole row (``2 + 4 × 2`` steps here, not the outer
        loop's 2), so an activation that cannot fit in the budget is not
        dispatched only to be replayed: the serial loop raises."""
        if not HAVE_FORK:
            pytest.skip("the fabric needs the fork start method")
        from repro.errors import InterpreterError
        from repro.runtime import compile_function, fabric_stats

        src = """
        void f(int mp[], int r[][4], int n)
        {
            int i, j;
            for (i = 0; i < n; i++) { for (j = 0; j < 4; j++) { r[i][j] = mp[i] + j; } }
        }
        """
        func = build_function(src)
        n = 64
        base = {"mp": np.arange(n, dtype=np.int64), "r": np.zeros((n, 4), np.int64), "n": n}
        budget = 4 * n  # above 2 steps per outer trip, below the 10 a row costs
        ref = _copy(base)
        with pytest.raises(InterpreterError) as e_ref:
            compile_function(func).run(ref, max_steps=budget)
        pf = compile_parallel(func)
        assert set(pf.scheduled) == {"L1"}
        env = _copy(base)
        dispatches = fabric_stats()["dispatches"]
        with pytest.raises(InterpreterError) as e_par:
            pf.run(env, max_steps=budget, workers=2, mp_min_trips=1)
        assert str(e_par.value) == str(e_ref.value)
        assert fabric_stats()["dispatches"] == dispatches
        assert np.array_equal(env["r"], ref["r"])


class TestCostClass:
    """A loop with a whole-array fast path stays on the compiled vector
    path below VECTOR_MIN_TRIPS; an explicit ``mp_min_trips`` still sends
    it to the fabric, and every other loop keeps the MP_MIN_TRIPS gate."""

    SRC = """
    void mix(int a[], int b[], int out[], int n)
    {
        int i, t;
        for (i = 0; i < n; i++) { b[i] = a[i] + 1; }
        for (i = 0; i < n; i++) {
            if (a[i] > 0) { t = a[i] * 3; } else { t = 1 - a[i]; }
            out[i] = t + i;
        }
    }
    """

    def _env(self, n: int) -> dict:
        rng = np.random.default_rng(3)
        return {
            "a": rng.integers(-9, 10, size=n).astype(np.int64),
            "b": np.zeros(n, dtype=np.int64),
            "out": np.zeros(n, dtype=np.int64),
            "n": n,
        }

    #: two scheduled inner loops with constant bounds, on either side of
    #: compiler.VEC_MIN_TRIPS (13): the 12-trip one can never take the
    #: vector path on its own
    CONST_SRC = """
    void rows(int a[][16], int b[][16], int p[], int n)
    {
        int i, j;
        for (i = 0; i < n; i++) {
            for (j = 0; j < 12; j++) { a[p[i]][j] = i + j; }
            for (j = 0; j < 13; j++) { b[p[i]][j] = i - j; }
        }
    }
    """

    def test_cost_classes(self):
        pf = compile_parallel(build_function(self.SRC))
        assert pf.cost_class("L1").startswith("vector")
        assert pf.cost_class("L2").startswith("scalar")
        assert pf.scheduled["L1"].vector and not pf.scheduled["L2"].vector
        const = compile_parallel(build_function(self.CONST_SRC))
        assert const.cost_class("L1.1").startswith("scalar")
        assert const.cost_class("L1.2").startswith("vector")

    @pytest.mark.parametrize("mp_min_trips", [None, 1])
    def test_vector_loop_stays_off_the_fabric(self, mp_min_trips):
        if not HAVE_FORK:
            pytest.skip("the fabric needs the fork start method")
        func = build_function(self.SRC)
        base = self._env(MP_MIN_TRIPS * 8)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=2, mp_min_trips=mp_min_trips)
        for name in ("b", "out"):
            assert np.array_equal(env[name], ref[name]), name
        c = pf.last_counters
        if mp_min_trips is None:
            # only the scalar-class loop crosses the fabric
            assert (c["vector_kept"], c["parallel_activations"], c["mp_chunks"]) == (1, 1, 2)
            assert pf.last_stats.vec_activations == 1
        else:
            assert (c["vector_kept"], c["parallel_activations"], c["mp_chunks"]) == (0, 2, 4)


class _CountingArray(np.ndarray):
    """An int array that counts its element reads."""

    reads = 0

    def __getitem__(self, key):
        _CountingArray.reads += 1
        return super().__getitem__(key)


class TestBoundsOnce:
    """A scheduled loop's bounds are evaluated once per activation, as on
    the compiled engine, whichever path the activation takes."""

    SRC = """
    void walk(int ptr[], int seg[], int n)
    {
        int i, j;
        for (i = 0; i < n; i++) {
            for (j = ptr[i]; j < ptr[i+1]; j++) { seg[j] = j; }
        }
    }
    """

    def _reads(self, run) -> int:
        n = 50
        ptr = np.arange(0, 2 * n + 1, 2, dtype=np.int64).view(_CountingArray)
        env = {"ptr": ptr, "seg": np.zeros(2 * n, dtype=np.int64), "n": n}
        _CountingArray.reads = 0
        run(env)
        assert np.array_equal(env["seg"], np.arange(2 * n))
        return _CountingArray.reads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bound_reads_match_compiled(self, workers):
        from repro.runtime.compiler import compile_function

        func = build_function(self.SRC)
        pf = compile_parallel(func)
        assert list(pf.scheduled) == ["L1.1"]  # only the inner loop is scheduled
        compiled = self._reads(compile_function(func).run)
        parallel = self._reads(lambda env: pf.run(env, workers=workers, mp_min_trips=10**9))
        assert compiled == parallel == 100


class TestAliasedArrays:
    """Two array parameters bound to one memory: every engine computes
    what the interpreter computes, element by element in iteration order
    (the vector path and the fabric both step aside)."""

    SRC = """
    void shift(double a[], double b[], int n)
    {
        int i;
        for (i = 1; i < n; i++) { b[i] = a[i - 1] + 1.0; }
    }
    """

    @staticmethod
    def _env(shape: str, n: int) -> dict:
        if shape == "same":
            buf = np.zeros(n)
            return {"a": buf, "b": buf, "n": n}
        buf = np.zeros(n + 1)
        return {"a": buf[:n], "b": buf[1:], "n": n}

    @pytest.mark.parametrize("shape", ["same", "overlapping"])
    @pytest.mark.parametrize("n", [7, 63, 5000])
    @pytest.mark.parametrize(
        "engine, opts",
        [
            ("compiled", {}),
            ("parallel", {}),
            ("parallel", {"workers": 2, "mp_min_trips": 1}),
        ],
        ids=["compiled", "parallel", "parallel-fabric"],
    )
    def test_matches_interp(self, shape, n, engine, opts):
        func = build_function(self.SRC)
        ref = self._env(shape, n)
        execute(func, ref, engine="interp")
        env = self._env(shape, n)
        execute(func, env, engine=engine, **opts)
        assert np.array_equal(env["a"], ref["a"]) and np.array_equal(env["b"], ref["b"])
        if shape == "same":
            assert env["b"][-1] == n - 1  # each write seen by the next iteration

    TWO_LOOPS_SRC = """
    void two(double x[], double a[], double b[], int n)
    {
        int i;
        for (i = 0; i < n; i++) { x[i] = x[i] * 2.0 + 1.0; }
        for (i = 1; i < n; i++) { b[i] = a[i - 1] + 1.0; }
    }
    """

    def test_overlap_anywhere_keeps_the_run_off_the_fabric(self):
        # the first loop's arrays are disjoint, but moving the run's
        # arrays into shared memory would split a and b into two copies
        func = build_function(self.TWO_LOOPS_SRC)
        n = 300

        def env() -> dict:
            buf = np.zeros(n + 1)
            return {"x": np.arange(n, dtype=np.float64), "a": buf[:n], "b": buf[1:], "n": n}

        ref = env()
        execute(func, ref, engine="interp")
        pf = compile_parallel(func)
        got = env()
        pf.run(got, workers=2, mp_min_trips=1)
        for name in ("x", "a", "b"):
            assert np.array_equal(got[name], ref[name]), name
        assert pf.last_counters["mp_chunks"] == 0


class _EnvSpy(dict):
    """A stand-in for ``os.environ`` that counts its reads."""

    reads = 0

    def get(self, key, default=None):
        _EnvSpy.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        _EnvSpy.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        _EnvSpy.reads += 1
        return super().__contains__(key)


class TestPerCallCost:
    """A call pays only for what it touches: a run whose activations all
    stay below the fabric floor builds no run state, and the dispatch
    decision lives in the loop's own closure."""

    @staticmethod
    def _dispatches() -> int:
        from repro.runtime import fabric_stats

        return fabric_stats()["dispatches"]

    def test_short_call_builds_no_run_state(self, monkeypatch):
        import os

        import repro.runtime.parallel as par

        func = build_function(BRANCH_SRC)
        base = _branch_env(32)  # under MP_MIN_TRIPS
        ref = _copy(base)
        run_function(func, ref)
        execute(func, _copy(base), engine="parallel")  # warm every cache
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(par, "default_workers", counting(par.default_workers))
        spy = _EnvSpy(os.environ)
        monkeypatch.setattr(os, "environ", spy)
        _EnvSpy.reads = 0
        env = _copy(base)
        execute(func, env, engine="parallel")
        reads = _EnvSpy.reads
        monkeypatch.undo()
        assert calls == []
        assert reads == 0
        assert np.array_equal(env["out"], ref["out"])
        assert dict(compile_parallel(func).last_counters) == dict.fromkeys(
            par._COUNTERS, 0
        )

    def test_failed_dispatch_replays_without_the_hook(self):
        if not HAVE_FORK:
            pytest.skip("the worker fault site sits on the fabric path, which needs fork")
        func = build_function(BRANCH_SRC)
        base = _branch_env(64)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        faults.drain_fallback_notes()
        before = self._dispatches()
        # one firing: a replay that re-entered the hook would dispatch
        with faults.injected("engine.parallel.worker:*:1"):
            pf.run(env, workers=2, mp_min_trips=1)
        assert np.array_equal(env["out"], ref["out"])
        assert [kind for kind, _ in faults.drain_fallback_notes()] == ["engine:compiled"]
        c = pf.last_counters
        assert (c["serial_fallbacks"], c["parallel_activations"], c["mp_chunks"]) == (1, 0, 0)
        assert self._dispatches() == before

    @pytest.mark.parametrize("mode", ["traced", "one_worker"])
    def test_runs_that_cannot_dispatch_never_do(self, mode):
        func = build_function(BRANCH_SRC)
        base = _branch_env(MP_MIN_TRIPS * 2)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        before = self._dispatches()
        if mode == "traced":
            trace = pf.new_trace()
            pf.run(env, trace, observe_label="L1", workers=2, mp_min_trips=1)
            assert trace.n > 0
        else:
            pf.run(env, workers=1, mp_min_trips=1)
        assert np.array_equal(env["out"], ref["out"])
        assert self._dispatches() == before
        assert pf.last_counters["mp_chunks"] == 0


class TestSharedArrays:
    """A fabric dispatch moves only the arrays the scheduled loops
    reference into shared memory."""

    SRC = """
    void f(double a[], double b[], double z[], int n)
    {
        int i;
        for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
        z[0] = b[n - 1];
    }
    """

    @pytest.mark.parametrize("z_is_a", [False, True])
    def test_only_referenced_arrays_move(self, z_is_a):
        """Segments are leased for ``a`` and ``b``, never for ``z``; a
        name bound to a moved array follows it into shared memory, so
        its write lands in one memory."""
        if not HAVE_FORK:
            pytest.skip("the fabric needs the fork start method")
        from repro.runtime import fabric_stats

        func = build_function(self.SRC)
        pf = compile_parallel(func)
        assert pf.shared_arrays == ("a", "b")
        n = 64

        def make() -> dict:
            env = {"a": np.arange(n, dtype=np.float64), "b": np.zeros(n), "n": n}
            env["z"] = env["a"] if z_is_a else np.full(3, -1.0)
            return env

        ref = make()
        run_function(func, ref)
        env = make()
        z = env["z"]
        leases = fabric_stats()["arena"]["leases"]
        pf.run(env, workers=2, mp_min_trips=1)
        assert pf.last_counters["mp_chunks"] > 0
        assert fabric_stats()["arena"]["leases"] - leases == 2
        assert env["z"] is z
        for name, want in ref.items():
            if isinstance(want, np.ndarray):
                assert env[name].tobytes() == want.tobytes(), name
