"""Seeded chaos suite: the batch service under injected faults.

Drives the fault-injection harness (:mod:`repro.service.faults`) against
the hardened :class:`~repro.service.engine.BatchEngine`, the degradation
ladders (passes→legacy, compiled→interp, oracle→unknown) and the
crash-safe disk cache, asserting the robustness invariants of the
ROADMAP: batches degrade per-kernel and never hang, non-faulted kernels
stay byte-identical to a fault-free run, every fallback is
provenance-visible, and the report's ``health`` section accounts for
every injected fault.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import InterpreterError, KernelTimeoutError, WorkerCrashError
from repro.parallelizer import parallelize
from repro.service import AnalysisRequest, BatchEngine, ResultCache, faults
from repro.service.cache import CACHE_SCHEMA
from repro.workloads.generators import pathological_kernel, random_kernel

SCATTER = """void scatter(int off[], int data[], int n)
{
    int i;
    for (i = 0; i < n; i++) { off[i] = i * 2; }
    for (i = 0; i < n; i++) { data[off[i]] = i; }
}
"""


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Every test starts and ends with no fault plan and the default
    fallback switch, whatever it does in between."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.FALLBACK_ENV_VAR, raising=False)
    faults.install(None)
    faults.drain_fallback_notes()
    yield
    faults.install(None)
    faults.drain_fallback_notes()


def _fuzz_requests(seeds) -> list[AnalysisRequest]:
    return [
        AnalysisRequest(name=f"fuzz{s}", source=random_kernel(s).source)
        for s in seeds
    ]


def _payload_bytes(report) -> dict[str, str]:
    return {
        v.name: json.dumps(v.payload, sort_keys=True) for v in report.verdicts
    }


# --------------------------------------------------------------------------
# the harness itself
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = faults.FaultPlan.parse(
            "worker.crash:fuzz17:1; cache.corrupt:*:*; worker.hang:abc"
        )
        assert [r.spec() for r in plan.rules] == [
            "worker.crash:fuzz17:1",
            "cache.corrupt:*:*",
            "worker.hang:abc:1",
        ]
        assert faults.FaultPlan.parse(plan.spec()) == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultPlan.parse("worker.explode:*")

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("worker.crash:*:0")

    def test_glob_and_times_semantics(self):
        with faults.injected("worker.transient:fuzz1*:2"):
            # attempt-keyed: fires while attempt < times, for matching keys
            assert faults.fires("worker.transient", "fuzz17", attempt=0)
            assert faults.fires("worker.transient", "fuzz17", attempt=1)
            assert not faults.fires("worker.transient", "fuzz17", attempt=2)
            assert not faults.fires("worker.transient", "fuzz2", attempt=0)
            assert not faults.fires("worker.crash", "fuzz17", attempt=0)

    def test_counter_consumed_without_attempt(self):
        with faults.injected("cache.write:*:2"):
            assert faults.fires("cache.write", "k1")
            assert faults.fires("cache.write", "k2")
            assert not faults.fires("cache.write", "k3")

    def test_no_plan_is_noop(self):
        assert not faults.fires("worker.crash", "anything")
        faults.maybe_fail("worker.crash", "anything")  # must not raise

    def test_env_plan_picked_up(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.transient:abc:1")
        assert faults.fires("worker.transient", "abc", attempt=0)

    def test_maybe_fail_actions(self):
        from repro.errors import TransientWorkerError

        with faults.injected("worker.crash:k; worker.transient:k; oracle.timeout:k"):
            with pytest.raises(WorkerCrashError):
                faults.maybe_fail("worker.crash", "k", 0)
            with pytest.raises(TransientWorkerError):
                faults.maybe_fail("worker.transient", "k", 0)
            with pytest.raises(KernelTimeoutError):
                faults.maybe_fail("oracle.timeout", "k", 0)

    def test_time_budget_interrupts_hang(self):
        with faults.injected("worker.hang:slow"):
            with pytest.raises(KernelTimeoutError, match="budget"):
                with faults.time_budget(0.2, "slow"):
                    faults.maybe_fail("worker.hang", "slow", 0)


# --------------------------------------------------------------------------
# serial-path resilience
# --------------------------------------------------------------------------


class TestSerialResilience:
    def test_one_unexpected_error_does_not_poison_neighbors(self):
        """Satellite: a kernel whose analysis raises a non-ReproError gets
        a structured failure record; its 20 neighbors are untouched."""
        reqs = _fuzz_requests(range(21))
        with faults.injected("worker.error:fuzz5"):
            report = BatchEngine(jobs=1, cache=ResultCache()).run(reqs)
        bad = report.verdict("fuzz5")
        assert bad.payload["failure"] == "unexpected"
        assert bad.payload["status"] == "failed"
        assert not bad.payload["quarantined"]
        assert not bad.ok
        assert report.health["unexpected_errors"] == 1
        assert report.health["failed"] == ["fuzz5"]
        ok = [v for v in report.verdicts if v.name != "fuzz5"]
        assert len(ok) == 20 and all(v.ok for v in ok)

    def test_harness_free_raiser_is_isolated_too(self, monkeypatch):
        """Same invariant without the fault harness: a genuine bug raised
        from inside the pipeline for one kernel."""
        import repro.parallelizer as pz

        real = pz.parallelize

        def boom(source_or_func, **kw):
            if getattr(source_or_func, "name", None) == "fuzz3":
                raise RuntimeError("synthetic analysis bug")
            return real(source_or_func, **kw)

        monkeypatch.setattr(pz, "parallelize", boom)
        report = BatchEngine(jobs=1, cache=ResultCache()).run(_fuzz_requests(range(6)))
        assert report.verdict("fuzz3").payload["failure"] == "unexpected"
        assert "synthetic analysis bug" in report.verdict("fuzz3").payload["error"]
        assert sum(1 for v in report.verdicts if v.ok) == 5

    def test_transient_failure_is_retried(self):
        with faults.injected("worker.transient:fuzz2:1"):
            report = BatchEngine(jobs=1, cache=ResultCache()).run(_fuzz_requests(range(3)))
        assert all(v.ok for v in report.verdicts)
        assert report.health["retries"] == 1
        assert report.health["transient_errors"] == 1
        assert report.health["quarantined"] == []

    def test_transient_exhaustion_quarantines(self):
        with faults.injected("worker.transient:fuzz2:*"):
            report = BatchEngine(
                jobs=1, cache=ResultCache(), max_failures=3
            ).run(_fuzz_requests(range(3)))
        rec = report.verdict("fuzz2").payload
        assert rec["failure"] == "transient"
        assert rec["status"] == "failed"
        assert rec["quarantined"] is True
        assert rec["attempts"] == 3
        assert report.health["quarantined"] == ["fuzz2"]
        assert report.health["transient_errors"] == 3
        assert report.health["retries"] == 2
        assert all(v.ok for v in report.verdicts if v.name != "fuzz2")

    def test_hang_is_cut_by_the_budget(self):
        with faults.injected("worker.hang:fuzz1:*"):
            report = BatchEngine(
                jobs=1, cache=ResultCache(), timeout=0.3, max_failures=2
            ).run(_fuzz_requests(range(3)))
        rec = report.verdict("fuzz1").payload
        assert rec["failure"] == "timeout"
        assert rec["status"] == "timeout"
        assert rec["quarantined"] is True
        assert report.health["timeouts"] == 2
        assert all(v.ok for v in report.verdicts if v.name != "fuzz1")

    def test_serial_crash_is_recorded(self):
        with faults.injected("worker.crash:fuzz0:*"):
            report = BatchEngine(
                jobs=1, cache=ResultCache(), max_failures=2
            ).run(_fuzz_requests(range(2)))
        rec = report.verdict("fuzz0").payload
        assert rec["failure"] == "worker-crash"
        assert report.health["worker_crashes"] == 2
        assert report.verdict("fuzz1").ok

    def test_failure_records_are_not_cached(self, tmp_path):
        reqs = _fuzz_requests(range(2))
        with faults.injected("worker.transient:fuzz0:*"):
            first = BatchEngine(
                jobs=1, cache=ResultCache(cache_dir=tmp_path), max_failures=2
            ).run(reqs)
        assert not first.verdict("fuzz0").ok
        # clean rerun over the same cache dir recomputes the quarantined
        # kernel and serves the healthy one from disk
        second = BatchEngine(jobs=1, cache=ResultCache(cache_dir=tmp_path)).run(reqs)
        assert second.verdict("fuzz0").ok
        assert not second.verdict("fuzz0").from_cache
        assert second.verdict("fuzz1").from_cache

    def test_prepare_crash_costs_one_row(self, monkeypatch):
        import repro.service.engine as eng

        real = eng._prepare

        def boom(req):
            if req.name == "fuzz1":
                raise RuntimeError("synthetic frontend bug")
            return real(req)

        monkeypatch.setattr(eng, "_prepare", boom)
        report = BatchEngine(jobs=1, cache=ResultCache()).run(_fuzz_requests(range(3)))
        assert report.verdict("fuzz1").payload["failure"] == "unexpected"
        assert report.health["failed"] == ["fuzz1"]
        assert all(v.ok for v in report.verdicts if v.name != "fuzz1")


# --------------------------------------------------------------------------
# process-pool resilience
# --------------------------------------------------------------------------


class TestPoolResilience:
    def test_worker_crash_respawns_and_requeues(self):
        """An os._exit worker death costs one respawn; everything —
        including the crashing kernel's retry — completes."""
        reqs = _fuzz_requests(range(8))
        with faults.injected("worker.crash:fuzz3:1"):
            report = BatchEngine(jobs=2, cache=ResultCache()).run(reqs)
        assert all(v.ok for v in report.verdicts)
        assert report.health["worker_crashes"] == 1
        assert report.health["pool_respawns"] == 1
        assert report.health["quarantined"] == []
        assert report.health["failed"] == []

    def test_pool_hang_times_out_and_quarantines(self):
        reqs = _fuzz_requests(range(6))
        with faults.injected("worker.hang:fuzz4:*"):
            report = BatchEngine(
                jobs=2, cache=ResultCache(), timeout=0.5, max_failures=2
            ).run(reqs)
        rec = report.verdict("fuzz4").payload
        assert rec["failure"] == "timeout"
        assert rec["status"] == "timeout"
        assert report.health["timeouts"] == 2
        assert all(v.ok for v in report.verdicts if v.name != "fuzz4")

    def test_pool_unexpected_error_is_isolated(self):
        reqs = _fuzz_requests(range(6))
        with faults.injected("worker.error:fuzz2:1"):
            report = BatchEngine(jobs=2, cache=ResultCache()).run(reqs)
        assert report.verdict("fuzz2").payload["failure"] == "unexpected"
        assert report.health["failed"] == ["fuzz2"]
        assert all(v.ok for v in report.verdicts if v.name != "fuzz2")


# --------------------------------------------------------------------------
# the graceful-degradation ladder
# --------------------------------------------------------------------------


class TestDegradationLadder:
    def test_passes_engine_falls_back_to_legacy(self):
        with faults.injected("analysis.passes:*:1"):
            out = parallelize(SCATTER)
        assert out.analysis.engine == "legacy"
        assert out.analysis.fallback["kind"] == "analysis:legacy"
        baseline = parallelize(SCATTER, engine="legacy")
        assert out.plan.parallel_loops == baseline.plan.parallel_loops
        assert {l: p.parallel for l, p in out.plan.loops.items()} == {
            l: p.parallel for l, p in baseline.plan.loops.items()
        }

    def test_fallback_visible_in_explain(self):
        from repro.analysis.explain import explain_loop

        with faults.injected("analysis.passes:*:1"):
            out = parallelize(SCATTER)
        text = explain_loop(out, "L2")
        assert "DEGRADED" in text
        assert "analysis:legacy" in text

    def test_fallback_visible_in_batch_health_and_uncached(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with faults.injected("analysis.passes:*:1"):
            report = BatchEngine(jobs=1, cache=cache).run(
                [AnalysisRequest(name="scatter", source=SCATTER)]
            )
        v = report.verdict("scatter")
        assert v.ok
        assert v.payload["fallbacks"][0]["kind"] == "analysis:legacy"
        assert report.health["fallbacks"] == {"analysis:legacy": 1}
        # degraded payloads must not be cached: a clean rerun recomputes
        # on the healthy engine and reports no fallback
        clean = BatchEngine(jobs=1, cache=ResultCache(cache_dir=tmp_path)).run(
            [AnalysisRequest(name="scatter", source=SCATTER)]
        )
        assert not clean.verdict("scatter").from_cache
        assert "fallbacks" not in clean.verdict("scatter").payload
        assert clean.verdict("scatter").payload["analysis_engine"] == "passes"

    def test_fallbacks_kill_switch(self, monkeypatch):
        monkeypatch.setenv(faults.FALLBACK_ENV_VAR, "0")
        with faults.injected("analysis.passes:*:1"):
            with pytest.raises(faults.FaultInjected):
                parallelize(SCATTER)

    def test_compiled_engine_falls_back_to_interp(self):
        from repro.ir import build_function
        from repro.runtime.engines import execute

        k = random_kernel(7)
        func = build_function(k.source)
        env_direct = k.make_inputs(0)
        execute(func, env_direct, engine="interp")
        env_ladder = k.make_inputs(0)
        with faults.injected("engine.compiled:*:1"):
            execute(func, env_ladder, engine="compiled")
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["engine:interp"]
        for name, val in env_direct.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, env_ladder[name]), name

    @pytest.mark.parametrize(
        "rung", ["engine:interp", "engine:compiled", "oracle:interp"]
    )
    def test_compiled_fallback_rolls_the_env_back(self, monkeypatch, rung):
        """A rung that changes a live-in scalar, adds a binding, writes
        garbage into every array and *then* dies must leak none of it
        into the rerun: every binding equals the interpreter's result,
        held in the caller's own array objects."""
        import repro.runtime.compiler as comp
        import repro.runtime.oracle as oracle
        import repro.runtime.parallel as par
        from repro.corpus import all_kernels
        from repro.ir import build_function
        from repro.runtime.engines import execute
        from repro.runtime.oracle import check_loop_independence

        def sabotage(func, env, *args, **kw):
            env["s"] = 1e6  # the reduction scalar, bound in the inputs
            env["stale"] = 0  # a binding the rerun never makes
            for v in env.values():
                if isinstance(v, np.ndarray):
                    v[...] = 77  # partial garbage, then die
            raise RuntimeError("synthetic engine bug")

        k = all_kernels()["par_reduce_mix"]
        func = build_function(k.source)
        env_ref = k.make_inputs(1)
        env = k.make_inputs(1)
        originals = {n: v for n, v in env.items() if isinstance(v, np.ndarray)}
        if rung == "oracle:interp":
            monkeypatch.setattr(oracle, "_check_compiled", sabotage)
            want = check_loop_independence(func, env_ref, "L1", engine="interp")
            got = check_loop_independence(func, env, "L1", engine="compiled")
            assert got == want
        else:
            module, attr, engine = {
                "engine:interp": (comp, "run_compiled", "compiled"),
                "engine:compiled": (par, "run_parallel", "parallel"),
            }[rung]
            monkeypatch.setattr(module, attr, sabotage)
            execute(func, env_ref, engine="interp")
            execute(func, env, engine=engine)
        assert [kind for kind, _ in faults.drain_fallback_notes()] == [rung]
        assert env.keys() == env_ref.keys()
        for name, want in env_ref.items():
            if isinstance(want, np.ndarray):
                assert env[name].tobytes() == want.tobytes(), name
            else:
                assert env[name] == want, name
        for name, arr in originals.items():
            assert env[name] is arr, name

    def test_oracle_falls_back_to_interp(self, monkeypatch):
        from repro.ir import build_function
        from repro.runtime.oracle import check_loop_independence

        k = random_kernel(3)
        func = build_function(k.source)
        env_direct = k.make_inputs(0)
        want = check_loop_independence(func, env_direct, "L2", engine="interp")
        assert want.conflicts  # the re-check has conflicts to reproduce
        env_ladder = k.make_inputs(0)
        with faults.injected("engine.compiled:*:1"):
            got = check_loop_independence(func, env_ladder, "L2", engine="compiled")
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["oracle:interp"]
        assert (got.iterations, got.accesses_recorded, got.conflicts) == (
            want.iterations,
            want.accesses_recorded,
            want.conflicts,
        )
        for name, val in env_direct.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, env_ladder[name]), name
        monkeypatch.setenv(faults.FALLBACK_ENV_VAR, "0")
        with faults.injected("engine.compiled:*:1"):
            with pytest.raises(faults.FaultInjected):
                check_loop_independence(
                    func, k.make_inputs(0), "L2", engine="compiled"
                )

    def test_oracle_timeout_downgrades_to_unknown(self):
        """An injected oracle timeout is not a soundness violation: the
        verdict downgrades to unknown, visibly, in health."""
        from repro.service import validate_parallel_verdicts

        k = random_kernel(7)
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=k.name, source=k.source)]
        )
        assert report.verdict(k.name).parallel_loops
        with faults.injected("oracle.timeout:*:*"):
            problems = validate_parallel_verdicts(
                report, seeds=(0,), extra_kernels=[k]
            )
        assert problems == {}
        downs = report.health["oracle_downgrades"]
        assert downs and all(d["verdict"] == "unknown" for d in downs)
        assert {d["name"] for d in downs} == {k.name}

    def test_step_budget_exhaustion_downgrades_too(self):
        from repro.service import validate_parallel_verdicts

        k = pathological_kernel(1)  # huge_trip: PARALLEL L1, huge run cost
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=k.name, source=k.source)]
        )
        assert report.verdict(k.name).parallel_loops == ["L1"]
        problems = validate_parallel_verdicts(
            report, seeds=(0,), engine="interp", max_steps=2000, extra_kernels=[k]
        )
        assert problems == {}
        downs = report.health["oracle_downgrades"]
        assert len(downs) == 1
        assert downs[0]["name"] == k.name and downs[0]["verdict"] == "unknown"
        assert "step budget" in downs[0]["reason"]


# --------------------------------------------------------------------------
# parallel-engine chaos
# --------------------------------------------------------------------------


HAVE_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fabric chaos sites need the fork start method"
)


class TestParallelEngineChaos:
    """The third engine's rung of the ladder: an injected chunk or
    shared-memory fault rolls the activation back, replays it serially
    on the compiled closures, and the fallback is provenance-visible in
    batch health."""

    def _kernel(self):
        from repro.corpus import all_kernels

        return all_kernels()["par_private_branch"]

    @needs_fork
    def test_worker_fault_recovers_exactly(self):
        from repro.ir import build_function
        from repro.runtime import run_function
        from repro.runtime.engines import execute

        k = self._kernel()
        func = build_function(k.source)
        env_ref = k.make_inputs(0)
        run_function(func, env_ref)
        env = k.make_inputs(0)
        with faults.injected("engine.parallel.worker:*:1"):
            # small corpus kernel: force the fabric path, where the site sits
            execute(func, env, engine="parallel", workers=2, mp_min_trips=8)
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["engine:compiled"]
        assert "FaultInjected" in notes[0][1]
        for name, val in env_ref.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, env[name]), name

    def test_parallel_fault_lands_in_batch_health(self):
        from repro.service import validate_parallel_verdicts

        k = self._kernel()
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=k.name, source=k.source)]
        )
        assert report.verdict(k.name).parallel_loops == ["L1"]
        with faults.injected("engine.parallel.worker:*:1"):
            problems = validate_parallel_verdicts(
                report, seeds=(0,), engine="parallel"
            )
        assert problems == {}  # the serial replay is exact: no violation
        assert report.health["fallbacks"] == {"engine:compiled": 1}
        assert "engine:compiled" in report.render()

    def test_parallel_kill_switch_in_validation(self, monkeypatch):
        from repro.service import validate_parallel_verdicts

        monkeypatch.setenv(faults.FALLBACK_ENV_VAR, "0")
        k = self._kernel()
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=k.name, source=k.source)]
        )
        with faults.injected("engine.parallel.worker:*:1"):
            with pytest.raises(faults.FaultInjected):
                validate_parallel_verdicts(report, seeds=(0,), engine="parallel")


class TestFabricChaos:
    """PR 9's persistent-fabric rungs: a warm pool that dies at reuse
    time and an arena segment lease that fails both degrade to the
    byte-identical serial replay, the fabric respawns on the next
    dispatch, and the fallback lands in batch health."""

    def _kernel(self):
        from repro.corpus import all_kernels

        return all_kernels()["par_private_branch"]

    def _execute(self, func, env):
        from repro.runtime.engines import execute

        # small corpus kernel: force the multiprocess fabric path
        execute(func, env, engine="parallel", workers=2, mp_min_trips=8)

    @needs_fork
    def test_pool_reuse_fault_replays_serially_and_respawns(self):
        from repro.ir import build_function
        from repro.runtime import fabric, run_function
        from repro.runtime.parallel import compile_parallel

        k = self._kernel()
        func = build_function(k.source)
        env_ref = k.make_inputs(0)
        run_function(func, env_ref)
        fabric.shutdown_fabric()  # earlier tests may have left a warm pool
        with faults.injected("engine.parallel.pool_reuse:*:1"):
            env = k.make_inputs(0)
            self._execute(func, env)  # cold dispatch: site arms, can't fire
            assert faults.drain_fallback_notes() == []
            base = fabric.fabric_stats()
            env = k.make_inputs(0)
            self._execute(func, env)  # warm reuse: fault fires
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["engine:compiled"]
        assert "pool_reuse" in notes[0][1]
        for name, val in env_ref.items():
            if isinstance(val, np.ndarray):
                assert val.tobytes() == env[name].tobytes(), name
        # the faulted pool was dropped; the next execute respawns it
        env = k.make_inputs(0)
        self._execute(func, env)
        assert compile_parallel(func).last_counters["mp_chunks"] > 0
        stats = fabric.fabric_stats()
        assert stats["respawns"] - base["respawns"] == 1
        assert faults.drain_fallback_notes() == []

    @needs_fork
    def test_arena_fault_replays_serially(self):
        from repro.ir import build_function
        from repro.runtime import run_function

        k = self._kernel()
        func = build_function(k.source)
        env_ref = k.make_inputs(0)
        run_function(func, env_ref)
        with faults.injected("engine.parallel.arena:*:1"):
            env = k.make_inputs(0)
            self._execute(func, env)
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["engine:compiled"]
        assert "arena" in notes[0][1]
        for name, val in env_ref.items():
            if isinstance(val, np.ndarray):
                assert val.tobytes() == env[name].tobytes(), name

    @needs_fork
    def test_pool_reuse_fault_lands_in_batch_health(self):
        from repro.service import validate_parallel_verdicts

        k = self._kernel()
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=k.name, source=k.source)]
        )
        # seed 0 warms the pool; the site fires on seed 1's warm reuse
        with faults.injected("engine.parallel.pool_reuse:*:1"):
            problems = validate_parallel_verdicts(
                report, seeds=(0, 1), engine="parallel"
            )
        assert problems == {}  # the serial replay is exact: no violation
        assert report.health["fallbacks"] == {"engine:compiled": 1}
        assert "engine:compiled" in report.render()

    @needs_fork
    def test_pool_reuse_kill_switch(self, monkeypatch):
        from repro.ir import build_function

        k = self._kernel()
        func = build_function(k.source)
        self._execute(func, k.make_inputs(0))  # warm the pool first
        monkeypatch.setenv(faults.FALLBACK_ENV_VAR, "0")
        with faults.injected("engine.parallel.pool_reuse:*:1"):
            with pytest.raises(faults.FaultInjected):
                self._execute(func, k.make_inputs(0))


class TestInspectorChaos:
    """PR 10's hybrid-tier rungs: a fault in the runtime inspector —
    predicate evaluation or the content-addressed memo lookup — must
    degrade that loop to serial with an ``inspector:serial`` note,
    never a wrong (uninspected) parallel dispatch, and the fallback
    must land in batch health."""

    SRC = """
    void scat(int a[], int idx[], int b[], int n)
    {
        int i;
        for (i = 0; i < n; i++) { a[idx[i]] = b[i] + 1; }
    }
    """

    def _inputs(self, seed=0, dup=False):
        rng = np.random.default_rng(seed)
        n = 512
        idx = rng.permutation(n).astype(np.int64)
        if dup:
            idx[5] = idx[7]
        return {
            "a": np.zeros(n, np.int64),
            "idx": idx,
            "b": np.arange(n, dtype=np.int64),
            "n": n,
        }

    def _cold_memo(self):
        from repro.runtime import inspector

        inspector._INSPECT_CACHE.clear()

    def _execute(self, func, env):
        from repro.runtime.engines import execute

        execute(
            func,
            env,
            engine="parallel",
            workers=2,
            mp_min_trips=8,
            tier="hybrid",
            inspect_min_trips=1,
        )

    def _pf(self, func):
        from repro.runtime.parallel import compile_parallel

        return compile_parallel(func, tier="hybrid")

    @pytest.mark.parametrize(
        "site", ["engine.inspector.predicate", "engine.inspector.cache"]
    )
    def test_inspector_fault_degrades_to_serial(self, site):
        from repro.ir import build_function
        from repro.runtime import run_function

        func = build_function(self.SRC)
        env_ref = self._inputs()
        run_function(func, env_ref)
        self._cold_memo()
        env = self._inputs()
        with faults.injected(f"{site}:*:1"):
            self._execute(func, env)
        notes = faults.drain_fallback_notes()
        assert [kind for kind, _ in notes] == ["inspector:serial"]
        assert "FaultInjected" in notes[0][1]
        c = self._pf(func).last_counters
        assert c["inspection_fallbacks"] == 1
        assert c["parallel_activations"] == 0  # serial, never uninspected
        for name, val in env_ref.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, env[name]), name

    def test_recovery_after_consumed_fault(self):
        """Once the one-shot fault is consumed, the next activation
        inspects for real and dispatches parallel again."""
        from repro.ir import build_function

        func = build_function(self.SRC)
        self._cold_memo()
        with faults.injected("engine.inspector.predicate:*:1"):
            self._execute(func, self._inputs())
            faults.drain_fallback_notes()
            self._execute(func, self._inputs())
        c = self._pf(func).last_counters
        assert c["inspection_passes"] == 1
        assert c["parallel_activations"] == 1
        assert faults.drain_fallback_notes() == []

    def test_refusal_is_not_a_fallback(self):
        """A *refused* inspection (duplicate subscripts) is the system
        working, not degrading: serial execution, refusal counted, no
        fallback note."""
        from repro.ir import build_function
        from repro.runtime import run_function

        func = build_function(self.SRC)
        self._cold_memo()
        env_ref = self._inputs(dup=True)
        run_function(func, env_ref)
        env = self._inputs(dup=True)
        self._execute(func, env)
        c = self._pf(func).last_counters
        assert c["inspection_refusals"] == 1
        assert c["parallel_activations"] == 0
        assert faults.drain_fallback_notes() == []
        for name, val in env_ref.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, env[name]), name

    def test_inspector_fault_lands_in_batch_health(self):
        import types

        from repro.service import validate_parallel_verdicts

        kernel = types.SimpleNamespace(
            name="chaos_scat",
            source=self.SRC,
            make_inputs=lambda seed: self._inputs(seed),
        )
        report = BatchEngine(jobs=1, cache=ResultCache()).run(
            [AnalysisRequest(name=kernel.name, source=kernel.source)]
        )
        # statically unknown: no parallel loops in the verdict — only
        # the hybrid tier validates (and inspects) it at all
        assert report.verdict(kernel.name).parallel_loops == []
        self._cold_memo()
        with faults.injected("engine.inspector.predicate:*:1"):
            problems = validate_parallel_verdicts(
                report,
                seeds=(0, 1),
                engine="parallel",
                tier="hybrid",
                extra_kernels=[kernel],
            )
        assert problems == {}  # serial execution is exact: no violation
        assert report.health["fallbacks"] == {"inspector:serial": 1}
        ins = report.health["inspector"]
        assert ins["passes"] >= 1  # the non-faulted seed inspected fine
        assert "inspector:serial" in report.render()
        assert "runtime inspector:" in report.render()

    def test_inspector_kill_switch(self, monkeypatch):
        from repro.ir import build_function

        func = build_function(self.SRC)
        self._cold_memo()
        monkeypatch.setenv(faults.FALLBACK_ENV_VAR, "0")
        with faults.injected("engine.inspector.predicate:*:1"):
            with pytest.raises(faults.FaultInjected):
                self._execute(func, self._inputs())


# --------------------------------------------------------------------------
# disk-cache chaos
# --------------------------------------------------------------------------


class TestCacheChaos:
    def test_injected_write_failures_counted(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with faults.injected("cache.write:*:2"):
            for i in range(3):
                cache.put(f"k{i}", {"i": i})
        assert cache.stats.write_errors == 2
        assert cache.stats.stores == 3
        on_disk = ResultCache(cache_dir=tmp_path)
        assert on_disk.get("k2") == {"i": 2}
        assert on_disk.get("k0") is None

    def test_injected_corruption_detected_on_read(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        with faults.injected("cache.corrupt:*:1"):
            cache.put("kc", {"x": 1})
            cache.put("kg", {"x": 2})
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("kc") is None
        assert fresh.stats.corrupt_entries == 1
        assert fresh.get("kg") == {"x": 2}
        # the corrupted entry was unlinked: next read is a plain miss
        again = ResultCache(cache_dir=tmp_path)
        assert again.get("kc") is None
        assert again.stats.corrupt_entries == 0

    def test_schema_mismatch_is_dropped_quietly(self, tmp_path):
        path = tmp_path / "kold.json"
        path.write_text(json.dumps({"schema": 999, "payload": {"x": 1}}))
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get("kold") is None
        assert cache.stats.schema_mismatches == 1
        assert cache.stats.corrupt_entries == 0
        assert not path.exists()

    def test_headerless_legacy_entry_is_schema_mismatch(self, tmp_path):
        (tmp_path / "klegacy.json").write_text(json.dumps({"name": "k", "loops": []}))
        cache = ResultCache(cache_dir=tmp_path)
        assert cache.get("klegacy") is None
        assert cache.stats.schema_mismatches == 1

    def test_envelope_schema_constant_written(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", {"x": 1})
        doc = json.loads((tmp_path / "k.json").read_text())
        assert doc["schema"] == CACHE_SCHEMA
        assert doc["payload"] == {"x": 1}


# --------------------------------------------------------------------------
# the pathological fuzz family
# --------------------------------------------------------------------------


class TestPathologicalFamily:
    def test_deterministic_per_seed(self):
        assert pathological_kernel(5).source == pathological_kernel(5).source
        assert pathological_kernel(0).source != pathological_kernel(1).source

    def test_analyzes_fast_but_runs_huge(self):
        from repro.ir import build_function
        from repro.runtime.engines import execute

        k = pathological_kernel(1)
        out = parallelize(k.source)
        assert "L1" in out.plan.parallel_loops
        with pytest.raises(InterpreterError, match="step budget"):
            execute(build_function(k.source), k.make_inputs(0),
                    engine="interp", max_steps=2000)

    def test_not_in_random_kernel_families(self):
        """Adding pathological to _SEGMENT_FAMILIES would reshuffle every
        existing fuzz seed; pin that it stays a separate generator."""
        for s in range(10):
            assert all(
                "huge_trip" not in f and "deep6" not in f
                for f in random_kernel(s).families
            )


# --------------------------------------------------------------------------
# acceptance: the 200-seed chaos sweep
# --------------------------------------------------------------------------


class TestChaosAcceptance:
    def test_chaos_sweep_accounts_for_every_fault(self, tmp_path):
        """ISSUE 7 acceptance: injected worker crash + kernel hang +
        transient + cache corruption over a 200-seed fuzz sweep — the
        batch completes without hanging, non-faulted kernels are
        byte-identical to a fault-free run, and health accounts for
        every injected fault."""
        import time

        reqs = _fuzz_requests(range(200))
        baseline = BatchEngine(jobs=2, cache=ResultCache()).run(reqs)
        assert all(v.ok for v in baseline.verdicts)
        base_bytes = _payload_bytes(baseline)

        spec = (
            "worker.crash:fuzz17:1; worker.hang:fuzz42:1; "
            "worker.transient:fuzz133:1; cache.corrupt:*:2"
        )
        t0 = time.monotonic()
        with faults.injected(spec):
            report = BatchEngine(
                jobs=2,
                cache=ResultCache(cache_dir=tmp_path),
                timeout=2.0,
                max_failures=3,
            ).run(reqs)
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"chaos batch took {elapsed:.1f}s — hang?"

        # every kernel recovered: no quarantine, no terminal failure,
        # and every payload (faulted or not) byte-identical to fault-free
        h = report.health
        assert h["quarantined"] == [] and h["failed"] == []
        assert all(v.ok for v in report.verdicts)
        assert _payload_bytes(report) == base_bytes

        # health accounts for every injection: 1 crash + 1 hang-timeout
        # + 1 transient observed, plus 2 corruptions found by the rerun
        assert h["worker_crashes"] == 1
        assert h["pool_respawns"] == 1
        assert h["timeouts"] == 1
        assert h["transient_errors"] == 1
        assert h["retries"] >= 3  # crash + hang + transient (+ crash bystander)

        # clean rerun over the same cache dir: the two corrupted entries
        # surface as corrupt_entries and are recomputed identically
        rerun_cache = ResultCache(cache_dir=tmp_path)
        rerun = BatchEngine(jobs=2, cache=rerun_cache).run(reqs)
        assert rerun_cache.stats.corrupt_entries == 2
        assert _payload_bytes(rerun) == base_bytes

        injected_total = 1 + 1 + 1 + 2  # crash, hang, transient, corruptions
        observed_total = (
            h["worker_crashes"]
            + h["timeouts"]
            + h["transient_errors"]
            + rerun_cache.stats.corrupt_entries
        )
        assert observed_total == injected_total
