"""Runtime-engine benchmark: interp vs compiled on the oracle/fuzz path.

This is the harness behind ``repro bench`` and
``benchmarks/bench_runtime_engines.py``.  It measures, per representative
kernel, the dynamic-oracle (inspector) cost and the plain-execution cost
on both engines, plus a differential-fuzz sweep (the dominant CI cost the
compiled backend exists to cut), and emits a JSON document —
``BENCH_runtime.json`` at the repo root is the committed snapshot.

Reproduce the committed file with a single command::

    PYTHONPATH=src python -m repro bench --json BENCH_runtime.json

Timings vary with the host; the *shape* of the document and the
correctness fields (verdicts, access counts, ``engines_agree``) are
deterministic.  ``--check`` exits non-zero unless the compiled engine
beats the interpreter on every kernel and the parallel engine reaches
:data:`MIN_PARALLEL_SPEEDUP` of the compiled engine's speed on every
kernel (the CI perf-smoke gates).

Reading ``BENCH_runtime.json``:

* ``kernels[*].oracle`` — per-engine seconds for one oracle inspection,
  ``speedup`` = interp/compiled, ``accesses_per_s`` = trace throughput;
* ``kernels[*].execute`` — plain (untraced) execution, same layout:
  medians, of ``repeats`` runs for the interpreter and of
  ``10 * repeats + 1`` interleaved rounds for the compiled and parallel
  engines; ``parallel_speedup`` = compiled/parallel at
  ``workers = cpu_count``;
* ``fuzz_sweep`` — total seconds to oracle-check every loop of
  ``seeds`` random kernels per engine;
* ``parallel_dispatch_overhead_us`` — cold vs warm cost of one
  parallel dispatch through the persistent fabric (µs); ``warm`` must
  stay under half of ``cold`` on every fork-capable host, including a
  single-CPU runner where worker-scaling speedups are unmeasurable;
* ``inspector_overhead_us`` — cold vs fingerprint-warm cost of a
  hybrid-tier runtime inspection vs the full oracle trace it replaces
  (µs) on the Figure-9 CSR kernel; warm must stay under 0.1x cold and
  under 0.01x the oracle trace (the content-addressed memo is what
  makes the paper's "inspection overhead" objection moot in the
  steady state);
* ``vector_crossover`` — report-only: per loop shape, the compiled
  scalar loop's µs per trip, the vector fast path's µs per activation,
  and the trip count from which the vector path is the cheaper (what
  :data:`~repro.runtime.compiler.VEC_MIN_TRIPS` is set from);
* ``summary.oracle_geomean_speedup`` — the headline number tracked
  across PRs (acceptance floor for this PR: ≥ 5x).
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.ir import build_function
from repro.runtime.engines import ENGINES, resolve_engine
from repro.runtime.oracle import check_loop_independence

COMMAND = "PYTHONPATH=src python -m repro bench --json BENCH_runtime.json"

#: ``--check`` floor on every kernel's ``parallel_speedup``.  A noise
#: margin, not a target: the parallel engine should cost what the
#: compiled engine costs wherever it cannot win, and the failures this
#: floor exists to catch read 0.1–0.35x (whole-array loops sent to the
#: fabric) and 0.6–0.75x (loop bounds evaluated twice per activation).
MIN_PARALLEL_SPEEDUP = 0.8

# --------------------------------------------------------------------------
# representative kernels (sized for measurable interpreter times)
# --------------------------------------------------------------------------
#
# Three shapes cover the backend's regimes: a vectorizable scatter
# through a filled subscript array, a subscripted-subscript gather, and
# a Figure-9-style rowptr segment walk whose short inner segments keep
# the *scalar* closure path hot.

_SCATTER_SRC = """
void scatter(int off[], int data[], int n)
{
    int i;
    for (i = 0; i < n; i++) { off[i] = i * 2 + 1; }
    for (i = 0; i < n; i++) { data[off[i]] = i; }
}
"""

_GATHER_SRC = """
void gather(int idx[], int g[], int v[], int n)
{
    int i;
    for (i = 0; i < n; i++) { idx[i] = (i * 3 + 1) % n; }
    for (i = 0; i < n; i++) { g[i] = v[idx[i]] + 1; }
}
"""

_CSR_WALK_SRC = """
void csr_walk(int sz[], int ptr[], int seg[], int inp[], int n)
{
    int i, j;
    for (i = 0; i < n; i++) { sz[i] = i % 4; }
    ptr[0] = 0;
    for (i = 1; i < n + 1; i++) { ptr[i] = ptr[i-1] + sz[i-1]; }
    for (i = 0; i < n; i++) {
        for (j = ptr[i]; j < ptr[i+1]; j++) {
            seg[j] = inp[j] + 1;
        }
    }
}
"""


def _scatter_env(n: int) -> dict[str, Any]:
    return {"n": n, "off": np.zeros(n, np.int64), "data": np.zeros(2 * n + 2, np.int64)}


def _gather_env(n: int) -> dict[str, Any]:
    return {
        "n": n,
        "idx": np.zeros(n, np.int64),
        "g": np.zeros(n, np.int64),
        "v": np.arange(n, dtype=np.int64),
    }


def _csr_env(n: int) -> dict[str, Any]:
    return {
        "n": n,
        "sz": np.zeros(n, np.int64),
        "ptr": np.zeros(n + 1, np.int64),
        "seg": np.zeros(4 * n + 4, np.int64),
        "inp": np.ones(4 * n + 4, np.int64),
    }


# 2-D row scatter through a filled row map: the multi-dimensional store
# regime of the vectorized fast path (trailing dimension swept by the
# innermost straight-line loop).
_ROW_SCATTER_SRC = """
void row_scatter(int mp[], int grid[][16], int n)
{
    int i, j;
    for (i = 0; i < n; i++) { mp[i] = n - 1 - i; }
    for (j = 0; j < 16; j++) {
        for (i = 0; i < n; i++) {
            grid[mp[i]][j] = i + j;
        }
    }
}
"""


def _row_scatter_env(n: int) -> dict[str, Any]:
    return {
        "n": n,
        "mp": np.zeros(n, np.int64),
        "grid": np.zeros((n, 16), np.int64),
    }


# Branchy privatized-scalar loop: the body defeats the vectorized fast
# path, so ``execute`` measures real per-iteration closure work — the
# regime where a fabric dispatch can pay off (the ``parallel`` column:
# activations over the dispatch threshold cross the worker fabric, the
# rest run on the compiled closure; honest multi-core speedups need
# cpu_count >= 2).
_PAR_BRANCH_SRC = """
void par_branch(int a[], int out[], int n)
{
    int i, t;
    for (i = 0; i < n; i++) { a[i] = (i * 7) % 13 - 6; }
    for (i = 0; i < n; i++) {
        if (a[i] > 0) {
            t = a[i] * 3;
        } else {
            t = 1 - a[i];
        }
        out[i] = t + i;
    }
}
"""


def _par_branch_env(n: int) -> dict[str, Any]:
    return {
        "n": n,
        "a": np.zeros(n, np.int64),
        "out": np.zeros(n, np.int64),
    }


BENCH_KERNELS: dict[str, tuple[str, str, Callable[[int], dict[str, Any]]]] = {
    # name -> (source, observed loop, env builder)
    "scatter_filled": (_SCATTER_SRC, "L2", _scatter_env),
    "gather_subsub": (_GATHER_SRC, "L2", _gather_env),
    "csr_segment_walk": (_CSR_WALK_SRC, "L3", _csr_env),
    "row_scatter_2d": (_ROW_SCATTER_SRC, "L2", _row_scatter_env),
    "par_branch_private": (_PAR_BRANCH_SRC, "L2", _par_branch_env),
}


def measure_dispatch_overhead(
    size: int = 4096, repeats: int = 5
) -> "dict[str, Any] | None":
    """Cold-vs-warm cost of a parallel dispatch through the persistent
    fabric — the ``parallel_dispatch_overhead_us`` section of
    ``BENCH_runtime.json``.

    *Cold* is the first parallel call of a process: analysis, planning
    and schedule lowering from cold memo tables, pool fork, arena
    segment creation, worker-side closure compilation.
    *Warm* is every later call: cached schedule, live pool, recycled
    segments, cached worker closures.  Both run the same kernel at the
    same size with 2 forced workers, so the ratio is meaningful on any
    fork-capable host including a single-CPU runner — unlike a
    worker-scaling speedup, which needs real cores.  Returns ``None``
    where fork is unavailable."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from repro.runtime import fabric
    from repro.runtime.parallel import ParallelFunction, compile_parallel
    from repro.symbolic.expr import clear_memo_tables

    func = build_function(_PAR_BRANCH_SRC)

    def once(pf) -> float:  # noqa: ANN001
        env = _par_branch_env(size)
        t0 = time.perf_counter()
        pf.run(env, workers=2)
        return time.perf_counter() - t0

    fabric.shutdown_fabric()  # next dispatch pays fork + arena + worker compile
    clear_memo_tables()  # and lowering re-plans: no plan-memo hit
    t0 = time.perf_counter()
    cold_pf = ParallelFunction(func)  # lowering is part of the cold price
    cold = time.perf_counter() - t0 + once(cold_pf)
    warm = min(once(compile_parallel(func)) for _ in range(max(1, repeats)))
    stats = fabric.fabric_stats()
    return {
        "cold": round(cold * 1e6, 1),
        "warm": round(warm * 1e6, 1),
        "warm_over_cold": round(warm / cold, 4) if cold > 0 else 0.0,
        "workers": 2,
        "size": size,
        "pool_spawns": stats["pool_spawns"],
        "measured_dispatch_cost_us": round(stats["dispatch_cost_us"] or 0.0, 1),
    }


# Figure-9-style CSR segment walk whose rowptr is an *input* parameter:
# the static stack cannot see how it was filled, so the outer loop's
# verdict is unknown and the hybrid tier's runtime inspector decides —
# this is the kernel behind ``inspector_overhead_us``.
_CSR_INPUT_SRC = """
void csr_seg(int ptr[], int seg[], int inp[], int n)
{
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = ptr[i]; j < ptr[i+1]; j++) {
            seg[j] = inp[j] + 1;
        }
    }
}
"""


def _csr_input_env(n: int, seed: int = 7) -> dict[str, Any]:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 8, size=n)
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(sizes, out=ptr[1:])
    nnz = int(ptr[-1])
    return {
        "n": n,
        "ptr": ptr,
        "seg": np.zeros(nnz, np.int64),
        "inp": np.ones(nnz, np.int64),
    }


def measure_inspector_overhead(
    size: int = 20000, repeats: int = 5
) -> "dict[str, Any] | None":
    """Cold vs fingerprint-warm cost of a hybrid-tier runtime inspection
    vs a full oracle trace — the ``inspector_overhead_us`` section of
    ``BENCH_runtime.json``.

    *Cold* is the first inspection of a loop: lowering the collected
    access algebra to an inspector plan plus evaluating every vectorized
    predicate over the actual index-array values.  *Warm* is every later
    call with the same sparsity structure: one content hash, then a memo
    hit.  *Oracle* is what the inspection replaces as a runtime
    fallback: a full dynamic trace of the loop on the compiled engine.
    All three run the Figure-9-style CSR segment walk (rowptr as an
    input parameter, so the static verdict is genuinely unknown) at the
    same size — the amortization story of the paper's Related-Work
    head-to-head, measured."""
    from repro.runtime import inspector
    from repro.runtime.parallel import _function_fingerprint

    func = build_function(_CSR_INPUT_SRC)
    loop = next(lp for lp in func.loops() if lp.label == "L1")
    env = _csr_input_env(size)
    fp = _function_fingerprint(func)
    lb, m = 0, size

    inspector._INSPECT_CACHE.clear()
    t0 = time.perf_counter()
    plan = inspector.lower_inspector(func, loop)  # lowering is part of the cold price
    res_cold = inspector.inspect(plan, env, fp, lb, m)
    cold = time.perf_counter() - t0

    def once() -> float:
        t0 = time.perf_counter()
        inspector.inspect(plan, env, fp, lb, m)
        return time.perf_counter() - t0

    warm = min(once() for _ in range(max(1, repeats)))
    res_warm = inspector.inspect(plan, env, fp, lb, m)

    def oracle_once() -> float:
        oenv = _copy_env(env)
        t0 = time.perf_counter()
        check_loop_independence(func, oenv, "L1", engine="compiled")
        return time.perf_counter() - t0

    oracle = min(oracle_once() for _ in range(max(1, repeats)))
    return {
        "cold": round(cold * 1e6, 1),
        "warm": round(warm * 1e6, 1),
        "oracle_trace": round(oracle * 1e6, 1),
        "warm_over_cold": round(warm / cold, 4) if cold > 0 else 0.0,
        "warm_over_oracle": round(warm / oracle, 4) if oracle > 0 else 0.0,
        "amortization": round(cold / warm, 1) if warm > 0 else 0.0,
        "size": size,
        "parallel": bool(res_cold.parallel),
        "warm_cached": bool(res_warm.cached),
        "predicates": list(plan.predicates),
    }


# The three loop shapes behind ``compiler.VEC_MIN_TRIPS``: a shifted
# copy, an elementwise product and a subscripted-subscript gather.
_CROSSOVER_SHAPES: dict[str, str] = {
    "copy_plus_one": """
void f(int a[], int b[], int n)
{
    int i;
    for (i = 0; i < n; i++) { b[i] = a[i] + 1; }
}
""",
    "product": """
void f(int v[], int w[], int p[], int n)
{
    int j;
    for (j = 0; j < n; j++) { p[j] = v[j] * w[j]; }
}
""",
    "gather": """
void f(int idx[], int v[], int g[], int n)
{
    int i;
    for (i = 0; i < n; i++) { g[i] = v[idx[i]] + 1; }
}
""",
}

#: trip counts at which :func:`measure_vector_crossover` times each path
CROSSOVER_TRIPS = (4, 8, 16, 32, 64)


def _crossover_env(n: int) -> dict[str, Any]:
    k = np.arange(n, dtype=np.int64)
    return {
        "n": n,
        "a": k.copy(),
        "b": np.zeros(n, np.int64),
        "v": k + 3,
        "w": k % 7,
        "p": np.zeros(n, np.int64),
        "idx": (k * 5 + 2) % n,
        "g": np.zeros(n, np.int64),
    }


def _line(xs: "tuple[int, ...]", ys: "list[float]") -> tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``ys`` over ``xs``."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return my - slope * mx, slope


def measure_vector_crossover(rounds: int = 21, batch: int = 10) -> dict[str, Any]:
    """Cost of one untraced activation on the compiled scalar loop and
    on the vector fast path, for three loop shapes — the report-only
    ``vector_crossover`` section of ``BENCH_runtime.json`` and the
    measurement behind :data:`~repro.runtime.compiler.VEC_MIN_TRIPS`.

    Both paths run the same lowered loop at each of
    :data:`CROSSOVER_TRIPS` trips, interleaved over ``rounds`` rounds of
    ``batch`` activations (µs per activation, medians).  A
    least-squares line through each path's medians gives
    ``scalar_us_per_trip`` (its slope) and ``vector_us_per_activation``
    (the vector line's intercept: its fixed cost), and
    ``crossover_trips`` is the first whole trip count past the point
    where the two lines cross: from there on the vector path is the
    cheaper."""
    from repro.runtime.compiler import VEC_MIN_TRIPS, _Compiler, _Rt

    trips = CROSSOVER_TRIPS
    env = _crossover_env(max(trips))
    rt = _Rt(None, None, 1 << 62)
    shapes: dict[str, Any] = {}
    for name, src in _CROSSOVER_SHAPES.items():
        func = build_function(src)
        loop = func.loops()[0]
        lowering = _Compiler(func)
        scalar = lowering._counted_loop(loop, None)
        plan = lowering._vector_plan(loop, len(loop.body) + 1)
        assert plan is not None, name

        def vector(m: int) -> None:
            if not plan.run(env, rt, 0, m, 0):
                raise RuntimeError(f"vector_crossover {name}: the vector path fell back")

        samples: dict[str, list[list[float]]] = {
            "scalar": [[] for _ in trips],
            "vector": [[] for _ in trips],
        }
        for r in range(rounds):
            for k, m in enumerate(trips):
                runs = (("scalar", lambda: scalar(env, rt, 0, m)), ("vector", lambda: vector(m)))
                for path, run in runs if r % 2 == 0 else runs[::-1]:
                    t0 = time.perf_counter()
                    for _ in range(batch):
                        run()
                    samples[path][k].append((time.perf_counter() - t0) / batch * 1e6)
        medians = {
            path: [statistics.median(ts) for ts in per_m] for path, per_m in samples.items()
        }
        s0, s1 = _line(trips, medians["scalar"])
        v0, v1 = _line(trips, medians["vector"])
        cross = math.floor((v0 - s0) / (s1 - v1)) + 1 if s1 > v1 else None
        shapes[name] = {
            "scalar_us": [round(t, 2) for t in medians["scalar"]],
            "vector_us": [round(t, 2) for t in medians["vector"]],
            "scalar_us_per_trip": round(s1, 3),
            "vector_us_per_activation": round(v0, 2),
            "vector_us_per_trip": round(v1, 3),
            "crossover_trips": max(cross, 1) if cross is not None else None,
        }
    return {"trips": list(trips), "shapes": shapes, "vec_min_trips": VEC_MIN_TRIPS}


@dataclass
class TraceThroughput:
    """Measured oracle-inspection rate of one engine on one kernel."""

    engine: str
    seconds: float
    accesses: int
    independent: bool
    conflicts: int

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.seconds if self.seconds > 0 else 0.0


def measure_oracle_throughput(
    func: Any,
    env_factory: Callable[[], dict[str, Any]],
    loop_label: str,
    engine: "str | None" = None,
    repeats: int = 3,
    max_conflicts: int = 100,
) -> TraceThroughput:
    """Time the oracle (inspector) path of one engine on one kernel.

    ``env_factory`` must return a *fresh* environment per call (the
    oracle mutates it in place).  Reports the best of ``repeats`` runs —
    the inspector-overhead number the paper's Related Work argues about,
    measured per engine so ``BENCH_runtime.json`` can track the
    compiled backend's trace throughput over time.
    """
    name = resolve_engine(engine)
    best = float("inf")
    report = None
    for _ in range(max(1, repeats)):
        env = env_factory()
        t0 = time.perf_counter()
        report = check_loop_independence(
            func, env, loop_label, max_conflicts=max_conflicts, engine=name
        )
        best = min(best, time.perf_counter() - t0)
    assert report is not None
    return TraceThroughput(
        engine=name,
        seconds=best,
        accesses=report.accesses_recorded,
        independent=report.independent,
        conflicts=len(report.conflicts),
    )


def _time_execute(
    func: Any, env_factory: Callable[[], dict[str, Any]], engines: tuple[str, ...], rounds: int
) -> dict[str, float]:
    """Median seconds of ``execute`` per engine over ``rounds`` rounds of
    one run per engine, the engines interleaved and their order rotated
    each round, so host drift and the cache state a previous run leaves
    hit every engine alike."""
    from repro.runtime.engines import execute

    times: dict[str, list[float]] = {engine: [] for engine in engines}
    for r in range(max(1, rounds)):
        k = r % len(engines)
        for engine in engines[k:] + engines[:k]:
            env = env_factory()
            t0 = time.perf_counter()
            execute(func, env, engine=engine)
            times[engine].append(time.perf_counter() - t0)
    return {engine: statistics.median(ts) for engine, ts in times.items()}


def run_runtime_bench(
    size: int = 20000,
    repeats: int = 3,
    fuzz_seeds: int = 15,
    kernels: "list[str] | None" = None,
) -> dict[str, Any]:
    """Measure every benchmark kernel and the fuzz sweep; return the
    JSON-ready document."""
    chosen = kernels or list(BENCH_KERNELS)
    unknown = [k for k in chosen if k not in BENCH_KERNELS]
    if unknown:
        raise ValueError(
            f"unknown bench kernel(s) {', '.join(unknown)} "
            f"(choose from {', '.join(BENCH_KERNELS)})"
        )
    from repro.runtime.parallel import default_workers

    doc: dict[str, Any] = {
        "command": COMMAND,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count() or 1,
            "parallel_workers": default_workers(),
        },
        "params": {"size": size, "repeats": repeats, "fuzz_seeds": fuzz_seeds},
        "kernels": [],
    }
    speedups: list[float] = []
    par_speedups: list[float] = []
    for name in chosen:
        src, label, env_builder = BENCH_KERNELS[name]
        func = build_function(src)
        entry: dict[str, Any] = {"name": name, "loop": label, "oracle": {}, "execute": {}}
        reports = {}
        for engine in ENGINES:
            tp = measure_oracle_throughput(
                func, lambda: env_builder(size), label, engine=engine, repeats=repeats
            )
            reports[engine] = tp
            entry["oracle"][engine] = {
                "seconds": round(tp.seconds, 6),
                "accesses": tp.accesses,
                "accesses_per_s": round(tp.accesses_per_s),
                "independent": tp.independent,
                "conflicts": tp.conflicts,
            }
        # the interpreter apart: a run 50-500x slower than the others
        # would leave them a cold cache.  The gated pair gets many
        # rounds: a sub-millisecond kernel's median of 7 still swings
        # by ±10% on a shared host.
        secs = _time_execute(func, lambda: env_builder(size), ("interp",), repeats)
        secs.update(
            _time_execute(
                func, lambda: env_builder(size), ("compiled", "parallel"), 10 * repeats + 1
            )
        )
        for engine in ENGINES:
            entry["execute"][engine] = {"seconds": round(secs[engine], 6)}
        i, c = reports["interp"], reports["compiled"]
        entry["oracle"]["speedup"] = round(i.seconds / c.seconds, 2) if c.seconds > 0 else 0.0
        entry["execute"]["speedup"] = (
            round(entry["execute"]["interp"]["seconds"] / entry["execute"]["compiled"]["seconds"], 2)
            if entry["execute"]["compiled"]["seconds"] > 0
            else 0.0
        )
        # the Figure-10 direction: real parallel execution vs the
        # compiled serial engine (> 1 needs cpu_count >= 2)
        entry["execute"]["parallel_speedup"] = (
            round(
                entry["execute"]["compiled"]["seconds"]
                / entry["execute"]["parallel"]["seconds"],
                2,
            )
            if entry["execute"]["parallel"]["seconds"] > 0
            else 0.0
        )
        entry["engines_agree"] = all(
            reports[e].independent == i.independent
            and reports[e].accesses == i.accesses
            for e in ENGINES
        )
        speedups.append(max(entry["oracle"]["speedup"], 1e-9))
        par_speedups.append(max(entry["execute"]["parallel_speedup"], 1e-9))
        doc["kernels"].append(entry)
    doc["fuzz_sweep"] = _fuzz_sweep(fuzz_seeds)
    doc["parallel_dispatch_overhead_us"] = measure_dispatch_overhead() or {
        "skipped": "no fork start method on this host"
    }
    doc["inspector_overhead_us"] = measure_inspector_overhead(size=size)
    doc["vector_crossover"] = measure_vector_crossover()
    doc["summary"] = {
        "oracle_geomean_speedup": round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
        )
        if speedups
        else 0.0,
        "fuzz_sweep_speedup": doc["fuzz_sweep"]["speedup"],
        "parallel_execute_best_speedup": max(par_speedups, default=0.0),
        "parallel_warm_dispatch_over_cold": doc["parallel_dispatch_overhead_us"].get(
            "warm_over_cold"
        ),
        "inspector_warm_over_cold": (doc["inspector_overhead_us"] or {}).get(
            "warm_over_cold"
        ),
        "inspector_amortization": (doc["inspector_overhead_us"] or {}).get(
            "amortization"
        ),
    }
    return doc


def _copy_env(env: dict[str, Any]) -> dict[str, Any]:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def _fuzz_sweep(seeds: int) -> dict[str, Any]:
    """Oracle-check every loop of ``seeds`` random kernels per engine —
    the differential fuzz suite's dynamic cost, minus the (engine-
    independent) static analysis and input generation."""
    from repro.workloads.generators import random_kernel

    prepared = []
    for seed in range(seeds):
        rk = random_kernel(seed)
        func = build_function(rk.source)
        base = rk.make_inputs(seed)
        prepared.append((func, [lp.label for lp in func.loops()], base))
    out: dict[str, Any] = {"seeds": seeds}
    times: dict[str, float] = {}
    verdicts: dict[str, list[bool]] = {}
    for engine in ENGINES:
        # fresh environments per engine, built outside the timed region
        # (the oracle mutates them in place)
        envs = [[_copy_env(base) for _ in labels] for _, labels, base in prepared]
        t0 = time.perf_counter()
        flags: list[bool] = []
        for (func, labels, _), envlist in zip(prepared, envs):
            for label, env in zip(labels, envlist):
                rep = check_loop_independence(func, env, label, engine=engine)
                flags.append(rep.independent)
        times[engine] = time.perf_counter() - t0
        verdicts[engine] = flags
        out[engine] = {"seconds": round(times[engine], 6)}
    out["speedup"] = (
        round(times["interp"] / times["compiled"], 2) if times["compiled"] > 0 else 0.0
    )
    out["verdicts_agree"] = all(
        verdicts[e] == verdicts["interp"] for e in ENGINES
    )
    return out


def check_regression(doc: dict[str, Any], min_speedup: float = 1.0) -> list[str]:
    """CI gate: the compiled engine must beat the interpreter on every
    kernel (generous threshold — a real regression, not noise), the
    parallel engine must reach :data:`MIN_PARALLEL_SPEEDUP` of the
    compiled engine on every kernel, and the engines must agree on
    every verdict."""
    problems: list[str] = []
    for entry in doc["kernels"]:
        if entry["oracle"]["speedup"] <= min_speedup:
            problems.append(
                f"{entry['name']}: compiled oracle speedup {entry['oracle']['speedup']}x "
                f"<= {min_speedup}x"
            )
        par = entry["execute"]["parallel_speedup"]
        if par < MIN_PARALLEL_SPEEDUP:
            problems.append(
                f"{entry['name']}: parallel runs at {par}x compiled "
                f"< {MIN_PARALLEL_SPEEDUP}x — it pays for parallelism it cannot use"
            )
        if not entry["engines_agree"]:
            problems.append(f"{entry['name']}: engines disagree on the oracle verdict")
    if not doc["fuzz_sweep"]["verdicts_agree"]:
        problems.append("fuzz sweep: engine verdicts disagree")
    overhead = doc.get("parallel_dispatch_overhead_us") or {}
    if overhead.get("cold") and overhead.get("warm") is not None:
        # relative, so it holds on any fork-capable host: a warm
        # dispatch must skip enough (fork, shm creation, lowering) to
        # cost well under half a cold one
        if overhead["warm"] >= 0.5 * overhead["cold"]:
            problems.append(
                f"parallel dispatch: warm {overhead['warm']}us >= 0.5x cold "
                f"{overhead['cold']}us — the persistent fabric is not amortizing"
            )
    insp = doc.get("inspector_overhead_us") or {}
    if insp.get("cold") and insp.get("warm") is not None:
        # relative gates, so they hold on any host: a fingerprint-warm
        # inspection is one content hash + a memo hit, which must cost
        # well under a cold predicate evaluation and be negligible next
        # to the full oracle trace it replaces
        if insp["warm"] >= 0.1 * insp["cold"]:
            problems.append(
                f"inspector: warm {insp['warm']}us >= 0.1x cold "
                f"{insp['cold']}us — the content-addressed memo is not amortizing"
            )
        if insp.get("oracle_trace") and insp["warm"] >= 0.01 * insp["oracle_trace"]:
            problems.append(
                f"inspector: warm {insp['warm']}us >= 0.01x oracle trace "
                f"{insp['oracle_trace']}us — inspection is not cheap enough "
                f"to beat a dynamic fallback"
            )
        if not insp.get("parallel"):
            problems.append(
                "inspector: the CSR bench kernel failed inspection — the "
                "range-disjointness predicate regressed"
            )
    return problems


def render(doc: dict[str, Any]) -> str:
    """Human-readable summary table."""
    from repro.utils.tables import Table

    t = Table(
        [
            "kernel",
            "loop",
            "interp ms",
            "compiled ms",
            "speedup",
            "parallel ms",
            "par speedup",
            "Macc/s (compiled)",
        ],
        title=f"runtime engines — oracle path (size={doc['params']['size']})",
    )
    for e in doc["kernels"]:
        t.add_row(
            e["name"],
            e["loop"],
            f"{e['oracle']['interp']['seconds'] * 1e3:.1f}",
            f"{e['oracle']['compiled']['seconds'] * 1e3:.1f}",
            f"{e['oracle']['speedup']:.1f}x",
            f"{e['execute']['parallel']['seconds'] * 1e3:.1f}",
            f"{e['execute']['parallel_speedup']:.1f}x",
            f"{e['oracle']['compiled']['accesses_per_s'] / 1e6:.1f}",
        )
    lines = [t.render()]
    fs = doc["fuzz_sweep"]
    lines.append(
        f"fuzz sweep ({fs['seeds']} seeds, every loop): interp {fs['interp']['seconds'] * 1e3:.0f} ms, "
        f"compiled {fs['compiled']['seconds'] * 1e3:.0f} ms — {fs['speedup']:.1f}x, "
        f"verdicts {'agree' if fs['verdicts_agree'] else 'DISAGREE'}"
    )
    lines.append(
        f"geomean oracle speedup: {doc['summary']['oracle_geomean_speedup']:.1f}x"
    )
    host = doc["host"]
    lines.append(
        f"parallel execute: best speedup "
        f"{doc['summary']['parallel_execute_best_speedup']:.2f}x over compiled "
        f"({host['parallel_workers']} workers on {host['cpu_count']} cpus"
        + (" — single cpu, >1x not expected" if host["cpu_count"] < 2 else "")
        + ")"
    )
    overhead = doc.get("parallel_dispatch_overhead_us") or {}
    if overhead.get("cold"):
        lines.append(
            f"parallel dispatch: cold {overhead['cold'] / 1e3:.1f} ms -> warm "
            f"{overhead['warm'] / 1e3:.1f} ms "
            f"({overhead['warm_over_cold']:.2f}x of cold; persistent fabric, "
            f"{overhead['workers']} workers)"
        )
    elif overhead:
        lines.append(f"parallel dispatch: {overhead.get('skipped', 'not measured')}")
    insp = doc.get("inspector_overhead_us") or {}
    if insp.get("cold"):
        lines.append(
            f"runtime inspector: cold {insp['cold'] / 1e3:.2f} ms -> warm "
            f"{insp['warm'] / 1e3:.3f} ms ({insp['amortization']:.0f}x amortized; "
            f"oracle trace {insp['oracle_trace'] / 1e3:.1f} ms, warm = "
            f"{insp['warm_over_oracle'] * 100:.2f}% of it)"
        )
    cross = doc.get("vector_crossover") or {}
    if cross.get("shapes"):
        lines.append(
            "vector crossover (trips from which the vector path beats the scalar loop): "
            + ", ".join(f"{k} {v['crossover_trips']}" for k, v in cross["shapes"].items())
            + f" (VEC_MIN_TRIPS = {cross['vec_min_trips']})"
        )
    return "\n".join(lines)


def to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


__all__ = [
    "BENCH_KERNELS",
    "COMMAND",
    "MIN_PARALLEL_SPEEDUP",
    "TraceThroughput",
    "check_regression",
    "measure_dispatch_overhead",
    "measure_inspector_overhead",
    "measure_oracle_throughput",
    "measure_vector_crossover",
    "render",
    "run_runtime_bench",
    "to_json",
]
