"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the op list untraced, resets the
program to its post-set-up state, runs the same op list again with spans
around every call into a layer, and reports the per-layer metrics.  See
README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # before the re-exec that pins it too

import pins  # noqa: E402
from harness import Calibrator, Tracer, p90, ratio  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-up is repeated this many times per run (``import repro`` once in
#: the parent, then in fresh interpreters); setup_s sums the per-stage
#: medians
SETUP_REPS = 5
UNTRACED = Tracer(enabled=False)
#: metric names and units: BENCHMARK.json at the checkout root
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_IMPORT_PROBE = (
    "import time, numpy\n"
    "t0 = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - t0)\n"
)


def hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def pinned_environment(seed: int) -> dict[str, str]:
    """Interpreter settings every run of ``seed`` gets: the hash seed
    (dict and set orders, hence the program's paths, follow it), the
    fabric's worker count, one per CPU, and the program's sources.  No
    bytecode is cached, so every run imports the program as the first
    run in a fresh checkout does, and no run writes to the checkout."""
    return {
        "PYTHONHASHSEED": hash_seed(seed),
        "REPRO_WORKERS": str(worker_count()),
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def import_program() -> float:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - t0


def child_import_seconds() -> float:
    """``import repro`` timed in a fresh interpreter (the parent's own
    import can only be timed once)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(wl: Workload, calib: Calibrator, first_import_s: float) -> list[dict]:
    """Repeat the program's set-up SETUP_REPS times; ``import repro``
    is timed in the parent once and in a fresh interpreter after that."""
    reps = []
    for rep in range(SETUP_REPS):
        calib.sample()
        import_s = first_import_s if rep == 0 else child_import_seconds()
        reps.append({"import": import_s, **reset(wl)})
    calib.sample()
    return reps


def reset(wl: Workload) -> dict[str, float]:
    """Bring the program from cold memo tables and no worker pool to its
    post-set-up state: build and lower the kernels, spawn the fabric
    (exec_large's first warm-up op pays it), run the warm-up ops.
    Returns seconds per stage; input generation is not timed."""
    from repro.runtime import shutdown_fabric
    from repro.symbolic.expr import clear_memo_tables

    clear_memo_tables()
    shutdown_fabric()
    t0 = time.perf_counter()
    wl.lower()
    stages = {"lower": time.perf_counter() - t0, "pool_spawn": 0.0, "warmup": 0.0}
    for i, op in enumerate(wl.warmup_ops()):
        job = wl.prepare(op)
        t0 = time.perf_counter()
        wl.execute(job, UNTRACED)
        stage = "pool_spawn" if i == 0 and wl.uses_fabric else "warmup"
        stages[stage] += time.perf_counter() - t0
    return stages


# --------------------------------------------------------------------------
# one pass over the op list
# --------------------------------------------------------------------------


class Pass:
    """Raw results of one pass over the op list."""

    def __init__(self) -> None:
        self.op_ns: list[int] = []
        #: op times at reference host speed
        self.op_ms: list[float] = []
        self.kernels: list[str] = []
        self.failures: list[str] = []
        self.fallbacks = 0
        self.parallel_loops = 0
        self.planned_loops = 0
        self.counts: dict[str, float] = {}
        self.compiled_s = 0.0
        self.scale = 1.0
        #: fabric_stats() when the pass ended
        self.fabric: dict = {}

    def add(self, key: str, val: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + val


def run_pass(
    wl: Workload, ops: list, calib: Calibrator, tracer: Tracer, digest=None
) -> Pass:
    from repro.runtime import fabric_stats
    from repro.service.faults import drain_fallback_notes

    res = Pass()
    first_sample = len(calib.samples_ms)
    drain_fallback_notes()
    traced = tracer.enabled
    for i, op in enumerate(ops):
        if i % wl.calib_every == 0:
            calib.sample()
        job = wl.prepare(op)
        if digest is not None:
            wl.digest(digest, job)
        tracer.op = i
        if traced:
            before = wl.snapshot()
            pf = wl.lookup_traced(op.kernel, tracer)
        failure = None
        out = None
        t0 = time.perf_counter_ns()
        try:
            with tracer.span("op"):
                out = wl.execute(job, tracer)
        except Exception:  # noqa: BLE001 — a failed op is counted, the run goes on
            failure = traceback.format_exc(limit=3)
        res.op_ns.append(time.perf_counter_ns() - t0)
        res.kernels.append(op.kernel)
        notes = drain_fallback_notes()
        res.fallbacks += len(notes)
        if traced and failure is None:
            after = wl.snapshot()
            for key, val in after.items():
                res.add(key, val - before[key])
            for key, val in wl.op_counters(job, out, pf).items():
                res.add(key, val)
            res.compiled_s += wl.compiled_seconds(job)
        if failure is None:
            failure = wl.check(job, out)
        if failure is None:
            par, planned = wl.parallel_verdicts(job, out)
            res.parallel_loops += par
            res.planned_loops += planned
        else:
            res.failures.append(f"op {op.index} ({op.kernel} {op.variant}): {failure}")
    calib.sample()
    scales = calib.local_scales(first_sample)
    res.op_ms = [
        ns / 1e6 * scales[i // wl.calib_every] for i, ns in enumerate(res.op_ns)
    ]
    res.scale = calib.scale(first_sample)
    res.fabric = fabric_stats()
    return res


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    op_ms = p.op_ms
    return {
        "setup_s": setup_s,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90(op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "parallel_loop_share": ratio(p.parallel_loops, p.planned_loops),
    }


def per_layer(
    wl: Workload,
    untraced: Pass,
    traced: Pass,
    tracer: Tracer,
    setup: dict[str, float],
    calib: Calibrator,
) -> dict[str, float]:
    n = len(traced.op_ns)
    scale = traced.scale
    c = traced.counts
    self_ms = {k: v / 1e6 * scale / n for k, v in tracer.self_times_ns().items()}
    total_ms = {k: v / 1e6 * scale / n for k, v in tracer.totals_ns().items()}
    inspections = c.get("inspector.inspections", 0)
    dispatches = c.get("fabric.dispatches", 0)
    lookups = c.get("symbolic.memo_hits", 0) + c.get("symbolic.memo_misses", 0)
    nest = c.get("analysis.nest_hits", 0) + c.get("analysis.nest_misses", 0)
    fab = traced.fabric
    out = {
        "frontend.parse_ms": self_ms.get("frontend.parse", 0.0),
        "ir.build_ms": self_ms.get("ir.build", 0.0),
        "ir.emit_ms": self_ms.get("ir.emit", 0.0),
        "analysis.analyze_ms": self_ms.get("analysis.analyze", 0.0),
        "analysis.nest_hit_rate": ratio(c.get("analysis.nest_hits", 0), nest),
        "symbolic.memo_hit_rate": ratio(c.get("symbolic.memo_hits", 0), lookups),
        "symbolic.memo_lookups_per_op": lookups / n,
        "parallelizer.plan_ms": self_ms.get("parallelizer.plan", 0.0),
        "parallelizer.parallel_verdicts_per_op": traced.parallel_loops / n,
        "parallelizer.schedules_ok": c.get("parallelizer.schedules_ok", 0) / n,
        "runtime.lower_ms": self_ms.get("runtime.lower", 0.0),
        "runtime.inspector_plans": c.get("runtime.inspector_plans", 0) / n,
        "runtime.lookup_us": total_ms.get("runtime.lookup", 0.0) * 1e3,
        "runtime.execute_ms": total_ms.get("runtime.execute", 0.0),
        "runtime.parallel_over_compiled": ratio(
            sum(traced.op_ns) / 1e9, traced.compiled_s
        ),
        "runtime.fallbacks": untraced.fallbacks + traced.fallbacks,
        "parallel.activations_per_op": c.get("parallel.activations", 0) / n,
        "parallel.inproc_chunks_per_op": c.get("parallel.inproc_chunks", 0) / n,
        "parallel.mp_chunks_per_op": c.get("parallel.mp_chunks", 0) / n,
        "compiler.steps_per_op": c.get("compiler.steps", 0) / n,
        "compiler.vec_activations_per_op": c.get("compiler.vec_activations", 0) / n,
        "fabric.dispatches_per_op": dispatches / n,
        "fabric.warm_share": ratio(c.get("fabric.warm_dispatches", 0), dispatches),
        "fabric.pool_spawns": c.get("fabric.pool_spawns", 0),
        "fabric.arena_high_water_mb": fab["arena"]["high_water_bytes"] / 2**20,
        "fabric.dispatch_cost_us": (fab["dispatch_cost_us"] or 0.0) * scale,
        "inspector.inspections_per_op": inspections / n,
        "inspector.hit_share": ratio(c.get("inspector.hits", 0), inspections),
        "inspector.pass_share": ratio(c.get("inspector.passes", 0), inspections),
        "inspector.refusal_share": ratio(c.get("inspector.refusals", 0), inspections),
        "inspector.cold_us": ratio(
            c.get("inspector.cold_us_sum", 0.0), c.get("inspector.cold_count", 0)
        )
        * scale,
        "setup.import_s": setup["import"],
        "setup.lower_s": setup["lower"],
        "setup.pool_spawn_s": setup["pool_spawn"],
        "setup.warmup_s": setup["warmup"],
        "host.calib_ms": calib.median_ms(),
        "trace.overhead": ratio(sum(traced.op_ms), sum(untraced.op_ms)),
        "trace.child_coverage": tracer.child_coverage("op"),
        "trace.ops": n,
    }
    by_kernel: dict[str, list[float]] = {}
    for name, ms in zip(untraced.kernels, untraced.op_ms):
        by_kernel.setdefault(name, []).append(ms)
    for name in pins.kernel_rows():
        times = by_kernel.get(name)
        out[f"kernel.{name}.ms_p50"] = statistics.median(times) if times else 0.0
    return out


def median_setup(reps: list[dict], scale: float) -> dict[str, float]:
    """Median seconds of each set-up stage over the repetitions."""
    return {k: statistics.median(r[k] for r in reps) * scale for k in reps[0]}


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    pinned = pinned_environment(args.seed)
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        # the hash seed only takes effect at interpreter start-up
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **pinned},
        )
    wl_class = WORKLOADS[args.workload]
    if not wl_class.uses_fabric:
        # one process, one CPU: unpinned, the process sometimes lands on
        # the less contended vCPU, where ops speed up more than the
        # calibration kernel does
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    first_import_s = import_program()

    problems = pins.verify_program()
    if problems:
        print("perfbench: the program no longer produces the pinned workloads:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        return 2

    calib = Calibrator(pins.calib_ref_ms())
    wl = wl_class(args.seed, args.seconds)
    ops = wl.ops()
    digest = hashlib.sha256()
    try:
        reps = set_up(wl, calib, first_import_s)
        untraced = run_pass(wl, ops, calib, UNTRACED, digest)
        passes = [untraced]
        if args.trace:
            reset(wl)
            tracer = Tracer(enabled=True)
            traced = run_pass(wl, ops, calib, tracer)
            passes.append(traced)
    finally:
        _stop_fabric()

    expected = pins.op_list_digest(args.workload, args.seed, args.seconds)
    if expected is not None and expected != digest.hexdigest():
        print(
            f"perfbench: op list of {args.workload} seed {args.seed} differs from "
            "its pinned digest; refusing to report",
            file=sys.stderr,
        )
        return 2

    setup = median_setup(reps, calib.scale())
    failures = [f for p in passes for f in p.failures]
    for f in failures[:5]:
        print("perfbench: FAILED " + f, file=sys.stderr)
    if args.trace:
        metrics = per_layer(wl, untraced, traced, tracer, setup, calib)
        spec = SPEC["per_layer"]
    else:
        metrics = end_to_end(untraced, sum(setup.values()))
        spec = SPEC["end_to_end"]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} ops={len(ops)} "
        f"PYTHONHASHSEED={os.environ['PYTHONHASHSEED']} "
        f"REPRO_WORKERS={os.environ['REPRO_WORKERS']} "
        f"cpus={sorted(os.sched_getaffinity(0))} "
        f"calib_median_ms={calib.median_ms():.4f} scale={untraced.scale:.4f}"
    )
    result = {
        "correct": not failures,
        "attempted": sum(len(p.op_ns) for p in passes),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec
        },
    }
    print(json.dumps(result))
    return 0


def _stop_fabric() -> None:
    """Shut the worker pool down and wait for every child process: the
    pool's workers, then the shared-memory resource tracker.  The
    tracker is not a ``multiprocessing`` child; it would exit only after
    this process does, unreaped.  It is stopped last, once the workers
    that inherited its pipe are gone and every segment is unlinked."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.runtime import shutdown_fabric

    shutdown_fabric()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
