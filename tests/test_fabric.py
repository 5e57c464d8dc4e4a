"""Persistent parallel execution fabric (PR 9).

Five contracts, each pinned:

* **warm-path reuse** — across 10 consecutive parallel ``execute()``
  calls the process pays exactly one pool spawn and one round of
  segment allocations; every later call recycles both.
* **arena hygiene** — segments are recycled across calls, new segments
  are sized at the high-water mark, leak accounting stays at zero, and
  every segment is unlinked at interpreter shutdown (no ``/dev/shm``
  residue from a child process that never called shutdown explicitly).
* **content-addressed schedule caching** — re-parsing the same source
  hits; changing the source, the planner assertions, or the
  pass-pipeline identity misses; the cache is a registered memo table
  so ``clear_memo_tables()`` keeps cold benchmarks honest.  Its
  identity front answers a warm lookup on the same IR object without
  re-fingerprinting it, stays bounded, and misses on exactly what the
  content key can see change under one object.
* **death recovery** — a SIGKILLed pool degrades the activation to the
  byte-identical serial replay and the next dispatch respawns; results
  stay pinned to the interpreter immediately after the death.
* **one owner** — shared-memory segments and worker pools are created
  in this module and nowhere else in the package.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ir import build_function
from repro.runtime import fabric, parallel, run_function
from repro.runtime.bench import _PAR_BRANCH_SRC, _par_branch_env
from repro.runtime.parallel import (
    ParallelFunction,
    _function_fingerprint,
    compile_parallel,
    run_parallel,
)
from repro.service import faults
from repro.symbolic.expr import clear_memo_tables, memo_stats

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fabric dispatch needs the fork start method"
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: well above any dispatch threshold, so the mp path always engages
N = 2048


def _reference(func, n: int = N) -> dict:
    env = _par_branch_env(n)
    run_function(func, env)
    return env


def _assert_equal(env: dict, ref: dict) -> None:
    for key, want in ref.items():
        got = env[key]
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), key
        else:
            assert got == want, key


# --------------------------------------------------------------------------
# warm-path reuse
# --------------------------------------------------------------------------


class TestWarmPathReuse:
    @needs_fork
    def test_ten_calls_spawn_one_pool_and_allocate_once(self):
        fabric.shutdown_fabric()  # fresh pools; arena counters are cumulative
        base = fabric.fabric_stats()
        func = build_function(_PAR_BRANCH_SRC)
        ref = _reference(func)

        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)
        _assert_equal(env, ref)
        assert compile_parallel(func).last_counters["mp_chunks"] > 0
        after_first = fabric.fabric_stats()
        created = after_first["arena"]["created"] - base["arena"]["created"]
        assert created >= 1  # the cold call allocates the segments

        for _ in range(9):
            env = _par_branch_env(N)
            run_parallel(func, env, workers=2)
            _assert_equal(env, ref)
            assert compile_parallel(func).last_counters["mp_chunks"] > 0

        stats = fabric.fabric_stats()
        # exactly one pool spawn and one allocation round for 10 calls
        assert stats["pool_spawns"] - base["pool_spawns"] == 1
        assert stats["respawns"] - base["respawns"] == 0
        arena = stats["arena"]
        assert arena["created"] - base["arena"]["created"] == created
        assert arena["recycled"] - base["arena"]["recycled"] == 9 * created
        assert arena["outstanding"] == 0
        assert arena["leaked"] == 0
        # every dispatch after the first hit a warm pool
        dispatches = stats["dispatches"] - base["dispatches"]
        warm = stats["warm_dispatches"] - base["warm_dispatches"]
        assert dispatches > 1 and warm == dispatches - 1

    @needs_fork
    def test_warm_dispatch_cost_is_measured_and_reported(self):
        func = build_function(_PAR_BRANCH_SRC)
        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)
        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)  # at least one warm dispatch
        cost = fabric.get_fabric(2).dispatch_cost_us
        assert cost is not None and cost > 0.0
        # the smallest cost across pools
        assert 0.0 < fabric.fabric_stats()["dispatch_cost_us"] <= cost


# --------------------------------------------------------------------------
# arena hygiene
# --------------------------------------------------------------------------


def _shm_entries(prefix: str) -> list[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return [f for f in os.listdir("/dev/shm") if f.startswith(prefix)]


class TestArenaHygiene:
    def test_release_recycles_and_growth_resizes(self):
        arena = fabric.ShmArena(prefix=f"reproT{os.getpid():x}a")
        try:
            s1 = arena.lease(100)
            assert s1.size >= 100
            arena.release(s1)
            s2 = arena.lease(50)
            assert s2.name == s1.name  # smallest-fit recycle, no new segment
            arena.release(s2)
            s3 = arena.lease(1000)  # nothing free fits: grow at high-water
            assert s3.name != s1.name and s3.size >= 1000
            arena.release(s3)
            s4 = arena.lease(500)  # the grown segment is recycled
            assert s4.name == s3.name
            arena.release(s4)
            assert arena.stats["created"] == 2
            assert arena.stats["recycled"] == 2
            assert arena.stats["grown"] == 1
            assert arena.leaked == 0
        finally:
            arena.shutdown()
        assert arena.stats["unlinked"] == 2
        assert arena.leaked == 0
        assert _shm_entries(arena.prefix) == []

    def test_new_segments_are_sized_at_the_high_water_mark(self):
        arena = fabric.ShmArena(prefix=f"reproT{os.getpid():x}b")
        try:
            big = arena.lease(4096)  # stays leased
            small = arena.lease(16)  # new segment, but high-water sized
            assert small.size >= 4096
            arena.release(big)
            arena.release(small)
        finally:
            arena.shutdown()

    def test_shutdown_unlinks_leased_segments_too(self):
        arena = fabric.ShmArena(prefix=f"reproT{os.getpid():x}c")
        arena.lease(64)  # never released: interpreter-exit worst case
        arena.shutdown()
        assert arena.leaked == 0
        assert arena.outstanding == 0
        assert _shm_entries(arena.prefix) == []

    @needs_fork
    def test_no_dev_shm_leak_after_interpreter_exit(self):
        """A child process runs the mp path and exits *without* any
        explicit teardown; the atexit hook must have unlinked every
        arena segment it created."""
        script = (
            "from repro.ir import build_function\n"
            "from repro.runtime import fabric\n"
            "from repro.runtime.bench import _PAR_BRANCH_SRC, _par_branch_env\n"
            "from repro.runtime.parallel import compile_parallel\n"
            "func = build_function(_PAR_BRANCH_SRC)\n"
            "pf = compile_parallel(func)\n"
            "pf.run(_par_branch_env(2048), workers=2)\n"
            "print(pf.last_counters['mp_chunks'], fabric.arena().prefix)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        mp_chunks, prefix = proc.stdout.split()[-2:]
        assert int(mp_chunks) > 0  # the child really exercised the arena
        assert prefix.startswith("reproA")
        assert _shm_entries(prefix) == []


# --------------------------------------------------------------------------
# content-addressed schedule + closure caching
# --------------------------------------------------------------------------


class TestScheduleCache:
    def test_reparsing_the_same_source_hits(self):
        f1 = build_function(_PAR_BRANCH_SRC)
        f2 = build_function(_PAR_BRANCH_SRC)
        assert f1 is not f2
        assert compile_parallel(f1) is compile_parallel(f2)

    def test_source_change_misses(self):
        f1 = build_function(_PAR_BRANCH_SRC)
        f2 = build_function(_PAR_BRANCH_SRC.replace("t + i", "t + i + 1"))
        assert _function_fingerprint(f1) != _function_fingerprint(f2)
        assert compile_parallel(f1) is not compile_parallel(f2)

    def test_pipeline_identity_change_misses(self, monkeypatch):
        from repro.analysis.domains import default_domains

        func = build_function(_PAR_BRANCH_SRC)
        before = _function_fingerprint(func)
        pf_before = compile_parallel(func)
        domain_cls = type(default_domains()[0])
        monkeypatch.setattr(domain_cls, "version", domain_cls.version + 1000)
        assert _function_fingerprint(func) != before
        assert compile_parallel(func) is not pf_before

    def test_cache_is_a_registered_memo_table(self):
        clear_memo_tables()
        assert memo_stats()["tables"]["parallel.functions"] == 0
        func = build_function(_PAR_BRANCH_SRC)
        pf = compile_parallel(func)
        assert memo_stats()["tables"]["parallel.functions"] == 1
        clear_memo_tables()
        assert memo_stats()["tables"]["parallel.functions"] == 0
        assert compile_parallel(func) is not pf  # genuinely cold again

    def test_warm_lookup_skips_the_fingerprint(self, monkeypatch):
        func = build_function(_PAR_BRANCH_SRC)
        pf = compile_parallel(func)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _function_fingerprint(*args, **kwargs)

        monkeypatch.setattr(parallel, "_function_fingerprint", counting)
        for _ in range(3):
            assert compile_parallel(func) is pf
        assert calls == []
        # a re-parsed source is a new object: it falls through to the
        # content table, which still hits
        assert compile_parallel(build_function(_PAR_BRANCH_SRC)) is pf
        assert len(calls) == 1

    def test_assertion_change_misses_the_front(self):
        from repro.analysis.env import ArrayRecord
        from repro.analysis.properties import Prop
        from repro.corpus import all_kernels

        k = all_kernels()["fig2_ua_injective"]
        func = build_function(k.source)
        plain = compile_parallel(func)
        asserted_env = k.assertion_env()
        asserted = compile_parallel(func, asserted_env)
        assert asserted is not plain
        assert list(asserted.scheduled) != list(plain.scheduled)
        # equal content in a fresh object hits; the plain form is still
        # cached under its own key
        assert compile_parallel(func, k.assertion_env()) is asserted
        assert compile_parallel(func) is plain
        # an in-place edit of the assertions is a different content
        asserted_env.set_record(
            ArrayRecord("id_to_mt", props=frozenset({Prop.INJECTIVE}), source="asserted")
        )
        assert compile_parallel(func, asserted_env) is not asserted

    def test_annotating_after_lowering_keeps_the_lowered_form(self):
        from repro.ir import function_to_c
        from repro.parallelizer import plan_function

        func = build_function(_PAR_BRANCH_SRC)
        pf = compile_parallel(func)
        before = _function_fingerprint(func)
        plan_function(func, annotate=True)  # adds omp pragmas in place
        assert "#pragma omp" in function_to_c(func)
        # pragmas are planner output, never part of a content key
        assert _function_fingerprint(func) == before
        assert compile_parallel(func) is pf
        assert compile_parallel(build_function(function_to_c(func))) is pf
        ref = _reference(func, 256)
        env = _par_branch_env(256)
        run_parallel(func, env)
        _assert_equal(env, ref)

    def test_front_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(parallel, "_PF_CACHE_LIMIT", 4)
        funcs = [build_function(_PAR_BRANCH_SRC) for _ in range(10)]
        for func in funcs:
            compile_parallel(func)
            assert len(parallel._PF_FRONT) <= 4
            assert len(parallel._PF_CACHE) <= 4
        assert compile_parallel(funcs[-1]) is compile_parallel(funcs[0])

    def test_schedule_summary_round_trips(self):
        from repro.parallelizer.schedule import ParallelSchedule

        func = build_function(_PAR_BRANCH_SRC)
        for sched in compile_parallel(func).schedules.values():
            assert ParallelSchedule.from_summary(sched.summary()) == sched


# --------------------------------------------------------------------------
# death recovery
# --------------------------------------------------------------------------


def _kill_pool(workers: int = 2) -> None:
    fab = fabric.get_fabric(workers)
    pool = fab.ensure()
    if not pool._processes:  # executors spawn workers on first submit
        pool.submit(os.getpid).result()
    for pid in list(pool._processes):
        os.kill(pid, signal.SIGKILL)


class TestDeathRecovery:
    @needs_fork
    def test_killed_pool_replays_serially_then_respawns(self):
        func = build_function(_PAR_BRANCH_SRC)
        ref = _reference(func)
        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)  # warm
        _assert_equal(env, ref)
        faults.drain_fallback_notes()
        base = fabric.fabric_stats()

        _kill_pool()
        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)
        _assert_equal(env, ref)  # byte-identical via the serial replay
        notes = faults.drain_fallback_notes()
        assert notes and notes[0][0] == "engine:compiled"
        assert "BrokenProcessPool" in notes[0][1]

        env = _par_branch_env(N)
        run_parallel(func, env, workers=2)
        _assert_equal(env, ref)
        assert compile_parallel(func).last_counters["mp_chunks"] > 0
        stats = fabric.fabric_stats()
        assert stats["respawns"] - base["respawns"] == 1
        assert faults.drain_fallback_notes() == []

    @needs_fork
    @pytest.mark.parametrize("seed", range(3))
    def test_fuzz_equivalence_immediately_after_pool_death(self, seed):
        """The equivalence pin survives a dead pool: kill the workers,
        then compare the very next parallel run against the interpreter
        on a fuzz kernel (forced low threshold so the fabric path is
        the one under test)."""
        from repro.workloads.generators import random_kernel

        rk = random_kernel(seed)
        func = build_function(rk.source)

        def outcome(runner):
            env = rk.make_inputs(seed)
            try:
                runner(env)
            except ReproError as exc:
                return env, f"{type(exc).__name__}: {exc}"
            return env, None

        env_ref, err_ref = outcome(lambda e: run_function(func, e))
        _kill_pool()
        env_par, err_par = outcome(
            lambda e: run_parallel(func, e, workers=2, mp_min_trips=8)
        )
        faults.drain_fallback_notes()
        assert err_par == err_ref
        for key, want in env_ref.items():
            got = env_par[key]
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), key
            else:
                assert got == want, key


# --------------------------------------------------------------------------
# one owner of shared memory and process pools
# --------------------------------------------------------------------------

#: constructor -> the package files allowed to call it, each with why
_OWNERS = {
    "SharedMemory(": {"repro/runtime/fabric.py": "the arena"},
    "ProcessPoolExecutor(": {
        "repro/runtime/fabric.py": "the worker fabric",
        "repro/service/engine.py": "the batch service's analysis workers, "
        "which never touch program arrays",
    },
    ".Pool(": {},
}


def test_fabric_is_the_only_owner_of_shared_memory_and_pools():
    """Persistent executor state lives in ``runtime/fabric.py``: a
    second pool or shared-memory owner would escape its teardown, pid
    guard and leak accounting."""
    found = {}
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(SRC_DIR).as_posix()
        for ctor, allowed in _OWNERS.items():
            if ctor in text and rel not in allowed:
                found.setdefault(ctor, []).append(rel)
    assert found == {}
