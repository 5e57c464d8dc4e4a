"""The benchmark's three workloads.

Each workload is a closed loop with one client: the harness issues one
op, waits for it, checks it, and issues the next.  An op list is a pure
function of the workload seed and the run length, built from the mini-C
sources copied under ``kernels/`` — never from ``src/`` — so a change to
the program cannot change what is measured (``pins.py`` refuses to run
when the program's own copies drift from these).

* ``compile_cold`` — source text plus assertions in, annotated C plus an
  executable out: the ``repro parallelize FILE`` path plus lowering, from
  cold memo tables.  Nothing executes.
* ``exec_small`` — ``execute(engine="parallel")`` on the static tier at
  the generators' own sizes, where every scheduled loop stays under the
  fabric's 64-trip floor: fixed per-call costs dominate.
* ``exec_large`` — ``execute(engine="parallel", tier="hybrid")`` on large
  sparse shapes: the fabric, shared-memory copies, inspection, reduction
  replay and per-activation snapshots do the work.

Every op list is made of whole rounds.  A round holds each kernel of the
workload a fixed number of times in a seeded order, so two seeds run the
same mix and differ only in order and inputs; sizes are stratified over
the rounds for the same reason.  That keeps seed-to-seed variation out of
the run-to-run spread the bounds in ``BENCHMARK.json`` are checked on.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from harness import Tracer

KERNEL_DIR = Path(__file__).resolve().parent / "kernels"

#: fuzz pool copied under kernels/fuzz: random_kernel(0..63) and
#: disjoint_sharing_kernel(0..15)
RANDOM_SEEDS = range(64)
SHARING_SEEDS = range(16)

#: op indices of set-up ops start here, far past any op list, so their
#: seeded inputs never coincide with a measured op's
WARMUP_INDEX = 1_000_000


def read_kernel(group: str, name: str) -> str:
    return (KERNEL_DIR / group / f"{name}.c").read_text()


def fuzz_names() -> list[str]:
    return [f"fuzz{s}" for s in RANDOM_SEEDS] + [f"share{s}" for s in SHARING_SEEDS]


def fuzz_generator(name: str):
    """The program's generator that produced a pooled fuzz kernel (its
    ``make_inputs`` builds the kernel's inputs)."""
    from repro.workloads import generators

    if name.startswith("share"):
        return generators.disjoint_sharing_kernel(int(name[len("share"):]))
    return generators.random_kernel(int(name[len("fuzz"):]))


def copy_env(env: dict[str, Any]) -> dict[str, Any]:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def digest_env(h: "hashlib._Hash", env: dict[str, Any]) -> None:
    for name in sorted(env):
        val = env[name]
        h.update(name.encode())
        if isinstance(val, np.ndarray):
            h.update(f"{val.dtype}{val.shape}".encode())
            h.update(val.tobytes())
        else:
            h.update(repr(val).encode())
        h.update(b"\x00")


def env_mismatch(got: dict[str, Any], want: dict[str, Any]) -> "str | None":
    """First binding of ``want`` that ``got`` does not reproduce exactly
    (arrays byte for byte, scalars by value), or None."""
    for name, w in want.items():
        if name not in got:
            return f"{name} missing"
        g = got[name]
        if isinstance(w, np.ndarray):
            if not (
                isinstance(g, np.ndarray)
                and g.dtype == w.dtype
                and g.shape == w.shape
                and g.tobytes() == w.tobytes()
            ):
                return f"array {name} differs"
        elif not (g == w or (g != g and w != w)):
            return f"{name} = {g!r}, expected {w!r}"
    return None


@dataclass
class Op:
    index: int
    kernel: str
    variant: str = ""
    #: exec_small: the input seed; exec_large: the trip count
    size: int = 0
    #: exec_large: index of the op whose index arrays this op uses
    struct: int = -1


@dataclass
class Job:
    """One op with its inputs generated (outside the timing)."""

    op: Op
    inputs: Any
    env: Any = None


def _rounds(seconds: int, ops_per_s: float, round_len: int) -> int:
    """Whole rounds needed for ``seconds`` of ops at reference speed, and
    never fewer than 100 ops (so at least ten lie beyond p90)."""
    want = max(100, seconds * ops_per_s)
    return max(1, math.ceil(want / round_len))


def _stratified(rng: np.random.Generator, rounds: int) -> np.ndarray:
    """One quantile in [0, 1) per round, one per stratum, seeded order."""
    return (rng.permutation(rounds) + rng.random(rounds)) / rounds


class Workload:
    name = ""
    #: ops between two calibration samples
    calib_every = 1
    #: ops per second at reference host speed: sizes the op list
    ops_per_s = 1.0
    #: whether ops dispatch to the worker fabric (the first warm-up op
    #: then pays the pool spawn)
    uses_fabric = False

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        #: mini-C source of every kernel of the workload, by name
        self.sources: dict[str, str] = {}

    # -- the op list ----------------------------------------------------
    def ops(self) -> list[Op]:
        raise NotImplementedError

    # -- set-up -----------------------------------------------------------
    def lower(self) -> None:
        """Build and lower every kernel of the workload (set-up)."""

    def warmup_ops(self) -> list[Op]:
        """Ops run during set-up; the first one pays the fabric spawn."""
        raise NotImplementedError

    # -- one op -------------------------------------------------------------
    def prepare(self, op: Op) -> Job:
        raise NotImplementedError

    def execute(self, job: Job, tracer: Tracer) -> Any:
        raise NotImplementedError

    def check(self, job: Job, out: Any) -> "str | None":
        raise NotImplementedError

    def digest(self, h: "hashlib._Hash", job: Job) -> None:
        raise NotImplementedError

    # -- traced pass ------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Process-wide program counters, read before and after an op."""
        from repro.analysis.framework import nest_cache_stats
        from repro.runtime import fabric_stats, inspector_stats
        from repro.symbolic.expr import memo_stats

        fab = fabric_stats()
        ins = inspector_stats()
        memo = memo_stats()
        nest = nest_cache_stats()
        return {
            "fabric.dispatches": fab["dispatches"],
            "fabric.warm_dispatches": fab["warm_dispatches"],
            "fabric.chunks": fab["chunks"],
            "fabric.pool_spawns": fab["pool_spawns"],
            "inspector.inspections": ins["inspections"],
            "inspector.hits": ins["hits"],
            "inspector.passes": ins["passes"],
            "inspector.refusals": ins["refusals"],
            "symbolic.memo_hits": memo["hits"],
            "symbolic.memo_misses": memo["misses"],
            "analysis.nest_hits": nest["hits"],
            "analysis.nest_misses": nest["misses"],
        }

    def lookup_traced(self, name: str, tracer: Tracer) -> Any:
        """Traced pass: the lowered function an op is about to run."""
        return None

    def op_counters(self, job: Job, out: Any, pf: Any) -> dict[str, float]:
        """Per-op counts read from the lowered function after the op."""
        return {}

    def compiled_seconds(self, job: Job) -> float:
        """Seconds the compiled engine takes on a copy of the op's inputs."""
        return 0.0

    def parallel_verdicts(self, job: Job, out: Any) -> tuple[int, int]:
        """(PARALLEL verdicts, planned loops) behind one op."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# compile_cold
# --------------------------------------------------------------------------


class CompileCold(Workload):
    """One op compiles one kernel from cold memo tables: parse, build,
    analyze, plan, emit annotated C, lower for the hybrid tier."""

    name = "compile_cold"
    calib_every = 25
    ops_per_s = 120.0

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        from repro.corpus import all_kernels

        self.corpus = all_kernels()
        self.sources = {n: read_kernel("corpus", n) for n in self.corpus}
        self.sources.update({n: read_kernel("fuzz", n) for n in fuzz_names()})
        self._oracle: dict[tuple[str, str], bool] = {}
        self._inputs: dict[str, Any] = {}

    def ops(self) -> list[Op]:
        names = list(self.sources)
        rng = np.random.default_rng([self.seed, 1])
        out: list[Op] = []
        for _ in range(_rounds(self.seconds, self.ops_per_s, len(names))):
            for i in rng.permutation(len(names)):
                out.append(Op(len(out), names[int(i)]))
        return out

    def warmup_ops(self) -> list[Op]:
        return [Op(WARMUP_INDEX + i, n) for i, n in enumerate(sorted(self.corpus)[:8])]

    def prepare(self, op: Op) -> Job:
        from repro.symbolic.expr import clear_memo_tables

        kernel = self.corpus.get(op.kernel)
        assertions = kernel.assertion_env() if kernel is not None else None
        clear_memo_tables()  # every op starts cold, outside the timing
        return Job(op, assertions)

    def execute(self, job: Job, tracer: Tracer) -> Any:
        from repro.analysis import analyze_function
        from repro.frontend import parse_function
        from repro.ir import build_function, function_to_c
        from repro.parallelizer import plan_function
        from repro.runtime import compile_parallel

        assertions = job.inputs
        with tracer.span("frontend.parse"):
            ast = parse_function(self.sources[job.op.kernel])
        with tracer.span("ir.build"):
            func = build_function(ast)
        with tracer.span("analysis.analyze"):
            analysis = analyze_function(func, assertions)
        with tracer.span("parallelizer.plan"):
            plan = plan_function(func, analysis, method="extended")
        with tracer.span("ir.emit"):
            annotated = function_to_c(func)
        with tracer.span("runtime.lower"):
            pf = compile_parallel(func, assertions, tier="hybrid")
        return plan, annotated, pf

    def _kernel_inputs(self, name: str) -> "dict[str, Any] | None":
        if name not in self._inputs:
            kernel = self.corpus.get(name)
            if kernel is not None:
                make = kernel.make_inputs
            else:
                make = fuzz_generator(name).make_inputs
            self._inputs[name] = make(0) if make is not None else None
        return self._inputs[name]

    def _oracle_independent(self, name: str, label: str) -> bool:
        """The dynamic oracle's answer for one loop on the kernel's own
        inputs, cached per source (verdicts are deterministic)."""
        key = (self.sources[name], label)
        if key not in self._oracle:
            from repro.ir import build_function
            from repro.runtime import check_loop_independence

            env = copy_env(self._kernel_inputs(name))
            report = check_loop_independence(
                build_function(self.sources[name]), env, label
            )
            self._oracle[key] = report.independent
        return self._oracle[key]

    def check(self, job: Job, out: Any) -> "str | None":
        plan, annotated, pf = out
        name = job.op.kernel
        kernel = self.corpus.get(name)
        if not annotated or pf is None:
            return "no output"
        if kernel is not None:
            lp = plan.loops.get(kernel.target_loop)
            if lp is None or lp.parallel != kernel.expect_parallel:
                return f"{kernel.target_loop}: verdict differs from expect_parallel"
        if self._kernel_inputs(name) is None:
            return None
        for label in plan.parallel_loops:
            if not self._oracle_independent(name, label):
                return f"{label}: PARALLEL verdict refuted by the oracle"
        return None

    def digest(self, h: "hashlib._Hash", job: Job) -> None:
        h.update(self.sources[job.op.kernel].encode())
        assertions = job.inputs
        h.update((assertions.fingerprint() if assertions is not None else "-").encode())

    def parallel_verdicts(self, job: Job, out: Any) -> tuple[int, int]:
        plan = out[0]
        return len(plan.parallel_loops), len(plan.loops)

    def op_counters(self, job: Job, out: Any, pf: Any) -> dict[str, float]:
        pf = out[2]
        return {
            "parallelizer.schedules_ok": sum(1 for s in pf.schedules.values() if s.ok),
            "runtime.inspector_plans": len(pf.inspectors),
        }


# --------------------------------------------------------------------------
# the two exec workloads
# --------------------------------------------------------------------------


class _Exec(Workload):
    tier = "static"

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.funcs: dict[str, Any] = {}
        self._verdicts: dict[str, tuple[int, int]] = {}

    def lower(self) -> None:
        from repro.ir import build_function
        from repro.runtime import compile_parallel

        self.funcs = {}
        for name, source in self.sources.items():
            func = build_function(source)
            compile_parallel(func, tier=self.tier)
            self.funcs[name] = func

    def execute(self, job: Job, tracer: Tracer) -> Any:
        from repro.runtime import execute

        with tracer.span("runtime.execute"):
            return execute(
                self.funcs[job.op.kernel], job.env, engine="parallel", tier=self.tier
            )

    def lookup_traced(self, name: str, tracer: Tracer) -> Any:
        """Warm ``compile_parallel``, just before the op: the fingerprint
        lookup every ``execute`` pays, and the object whose counters the
        op leaves behind."""
        from repro.runtime import compile_parallel

        with tracer.span("runtime.lookup"):
            return compile_parallel(self.funcs[name], tier=self.tier)

    def op_counters(self, job: Job, out: Any, pf: Any) -> dict[str, float]:
        c = pf.last_counters
        stats = pf.last_stats
        cold_us = [r.cost_us for r in pf.last_inspections.values() if not r.cached]
        return {
            "parallel.activations": c["parallel_activations"],
            "parallel.inproc_chunks": c["inproc_chunks"],
            "parallel.mp_chunks": c["mp_chunks"],
            "compiler.steps": stats.steps,
            "compiler.vec_activations": stats.vec_activations,
            "inspector.cold_us_sum": sum(cold_us),
            "inspector.cold_count": len(cold_us),
        }

    def compiled_seconds(self, job: Job) -> float:
        """Seconds ``execute(engine="compiled")`` takes on a copy of the
        op's inputs — the denominator of parallel_over_compiled."""
        from repro.runtime import execute

        env = copy_env(job.inputs)
        t0 = time.perf_counter()
        execute(self.funcs[job.op.kernel], env, engine="compiled")
        return time.perf_counter() - t0

    def parallel_verdicts(self, job: Job, out: Any) -> tuple[int, int]:
        name = job.op.kernel
        if name not in self._verdicts:
            from repro.ir import build_function
            from repro.parallelizer import plan_function

            plan = plan_function(build_function(self.sources[name]), annotate=False)
            self._verdicts[name] = (len(plan.parallel_loops), len(plan.loops))
        return self._verdicts[name]

    def digest(self, h: "hashlib._Hash", job: Job) -> None:
        h.update(self.sources[job.op.kernel].encode())
        digest_env(h, job.inputs)


class ExecSmall(_Exec):
    """``execute(engine="parallel")`` on the static tier at the
    generators' own sizes; checked against the reference interpreter."""

    name = "exec_small"
    calib_every = 150
    ops_per_s = 1500.0
    #: input seeds per kernel: small, so interpreter references are
    #: computed once per (kernel, input seed) and reused
    INPUT_SEEDS = 8

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        from repro.corpus import all_kernels

        self.makers = {
            n: k.make_inputs for n, k in all_kernels().items() if k.make_inputs is not None
        }
        self.sources = {n: read_kernel("corpus", n) for n in self.makers}
        for name in fuzz_names():
            self.makers[name] = fuzz_generator(name).make_inputs
            self.sources[name] = read_kernel("fuzz", name)
        self._refs: dict[tuple[str, int], dict[str, Any]] = {}

    def ops(self) -> list[Op]:
        names = list(self.sources)
        rng = np.random.default_rng([self.seed, 2])
        offsets = rng.integers(0, self.INPUT_SEEDS, size=len(names))
        rounds = _rounds(self.seconds, self.ops_per_s, len(names))
        rounds += -rounds % self.INPUT_SEEDS  # every input seed equally often
        out: list[Op] = []
        for r in range(rounds):
            for i in rng.permutation(len(names)):
                i = int(i)
                size = int((r + offsets[i]) % self.INPUT_SEEDS)
                out.append(Op(len(out), names[i], size=size))
        return out

    def warmup_ops(self) -> list[Op]:
        # input seed INPUT_SEEDS is never in the op list
        return [
            Op(WARMUP_INDEX + i, n, size=self.INPUT_SEEDS)
            for i, n in enumerate(self.sources)
        ]

    def prepare(self, op: Op) -> Job:
        inputs = self.makers[op.kernel](op.size)
        return Job(op, inputs, copy_env(inputs))

    def reference(self, job: Job) -> dict[str, Any]:
        """The reference interpreter's result on the op's inputs."""
        key = (job.op.kernel, job.op.size)
        if key not in self._refs:
            from repro.runtime import execute

            self._refs[key] = execute(
                self.funcs[job.op.kernel], copy_env(job.inputs), engine="interp"
            )
        return self._refs[key]

    def check(self, job: Job, out: Any) -> "str | None":
        return env_mismatch(out, self.reference(job))


# -- exec_large: sizes, inputs and NumPy references ---------------------------

#: trip-count ranges (log-uniform).  Every scheduled outer loop runs at
#: least 2000 trips — above the fabric's dispatch ceiling (256) and the
#: inspector's amortization ceiling (512) — so the measured thresholds
#: cannot change which path an activation takes.  Rows hold 1..8
#: nonzeros, below the 64-trip floor, so an inner loop dispatched per row
#: always runs in-process.
LARGE_SIZES = {
    "scatter_filled": (2000, 64000),
    "gather_subsub": (2000, 64000),
    "row_scatter_2d": (2000, 16000),
    "par_branch_private": (2000, 16000),
    "par_reduce_mix": (2000, 8000),
    "csr_segment_walk": (2000, 8000),
    "cg_product": (2000, 8000),
    "csr_seg": (2000, 8000),
}
#: refused ops cost a serial outer loop plus one dispatch per row
OVERLAP_SIZES = (2000, 3000)
MAX_ROW = 8

#: one round: (kernel, variant run in sequence).  "reuse" repeats the
#: previous op's index arrays with fresh values (an inspection memo hit);
#: "overlap" carries overlapping rows the inspector must refuse.
LARGE_ROUND = (
    ("scatter_filled", ("fresh",)),
    ("gather_subsub", ("fresh",)),
    ("row_scatter_2d", ("fresh",)),
    ("par_branch_private", ("fresh",)),
    ("par_reduce_mix", ("fresh",)),
    ("csr_segment_walk", ("fresh", "reuse")),
    ("cg_product", ("fresh", "reuse")),
    ("cg_product", ("overlap",)),
    ("csr_seg", ("fresh", "reuse")),
    ("csr_seg", ("overlap",)),
)


def _rowptr(rng: np.random.Generator, rows: int, overlap: bool) -> np.ndarray:
    ptr = np.zeros(rows + 1, np.int64)
    np.cumsum(rng.integers(1, MAX_ROW + 1, size=rows), out=ptr[1:])
    if overlap:
        # pull every 7th row start back into the rows before it
        ptr[1:-1:7] = np.maximum(ptr[1:-1:7] - 2, 0)
    return ptr


def _covered(ptr: np.ndarray, size: int) -> np.ndarray:
    """Mask of the positions some row [ptr[i], ptr[i+1]) covers."""
    starts, ends = ptr[:-1], ptr[1:]
    live = ends > starts
    edge = np.zeros(size + 1, np.int64)
    np.add.at(edge, starts[live], 1)
    np.add.at(edge, ends[live], -1)
    return np.cumsum(edge[:size]) > 0


def large_inputs(op: Op, seed: int) -> dict[str, Any]:
    """Inputs of one exec_large op.  Index arrays come from the rng of
    ``op.struct`` (the op itself, or the op it reuses); values from the
    op's own rng."""
    n = op.size
    rng = np.random.default_rng([seed, 3, op.index])
    srng = np.random.default_rng([seed, 4, op.struct])
    k = op.kernel
    if k == "scatter_filled":
        return {"n": n, "off": np.zeros(n, np.int64), "data": np.zeros(2 * n + 2, np.int64)}
    if k == "gather_subsub":
        return {
            "n": n,
            "idx": np.zeros(n, np.int64),
            "g": np.zeros(n, np.int64),
            "v": rng.integers(0, 1000, size=n).astype(np.int64),
        }
    if k == "row_scatter_2d":
        return {"n": n, "mp": np.zeros(n, np.int64), "grid": np.zeros((n, 16), np.int64)}
    if k == "par_branch_private":
        return {"n": n, "a": np.zeros(n, np.int64), "out": np.zeros(n, np.int64)}
    if k == "par_reduce_mix":
        return {"a": rng.uniform(-4.0, 4.0, size=n), "s": 0.25, "lo": np.inf, "hi": -np.inf, "n": n}
    if k == "csr_segment_walk":
        return {
            "n": n,
            "sz": np.zeros(n, np.int64),
            "ptr": np.zeros(n + 1, np.int64),
            "seg": np.zeros(4 * n + 4, np.int64),
            "inp": rng.integers(0, 1000, size=4 * n + 4).astype(np.int64),
        }
    ptr = _rowptr(srng, n, op.variant == "overlap")
    nnz = int(ptr.max())
    if k == "cg_product":
        return {
            "rowptr": ptr,
            "value": rng.uniform(-1.0, 1.0, size=nnz),
            "vector": rng.uniform(-1.0, 1.0, size=nnz),
            "product": np.zeros(nnz),
            "nrows": n,
        }
    if k == "csr_seg":
        return {
            "n": n,
            "ptr": ptr,
            "seg": np.zeros(nnz, np.int64),
            "inp": rng.integers(0, 1000, size=nnz).astype(np.int64),
        }
    raise KeyError(k)


def large_reference(kernel: str, env: dict[str, Any]) -> dict[str, Any]:
    """Hand-written NumPy result of one exec_large kernel: every array of
    the kernel, plus the reduction scalars of par_reduce_mix."""
    out = copy_env({k: v for k, v in env.items() if isinstance(v, np.ndarray)})
    if kernel == "par_reduce_mix":
        # sequential order, as the C loop: no pairwise np.sum
        s, lo, hi = env["s"], env["lo"], env["hi"]
        for x in env["a"][: env["n"]].tolist():
            t = x * 2.0
            s = s + t
            lo = min(lo, t)
            hi = max(hi, t)
        out.update(s=s, lo=lo, hi=hi)
        return out
    if kernel == "csr_seg" or kernel == "cg_product":
        ptr = env["ptr"] if kernel == "csr_seg" else env["rowptr"]
        dst = "seg" if kernel == "csr_seg" else "product"
        mask = _covered(ptr, out[dst].size)
        if kernel == "csr_seg":
            out[dst][mask] = env["inp"][mask] + 1
        else:
            out[dst][mask] = env["value"][mask] * env["vector"][mask]
        return out
    n = env["n"]
    i = np.arange(n, dtype=np.int64)
    if kernel == "scatter_filled":
        out["off"][:] = 2 * i + 1
        out["data"][2 * i + 1] = i
    elif kernel == "gather_subsub":
        out["idx"][:] = (3 * i + 1) % n
        out["g"][:] = env["v"][out["idx"]] + 1
    elif kernel == "row_scatter_2d":
        out["mp"][:] = n - 1 - i
        out["grid"][n - 1 - i, :] = i[:, None] + np.arange(16, dtype=np.int64)[None, :]
    elif kernel == "par_branch_private":
        a = (i * 7) % 13 - 6
        out["a"][:] = a
        out["out"][:] = np.where(a > 0, a * 3, 1 - a) + i
    elif kernel == "csr_segment_walk":
        out["sz"][:] = i % 4
        out["ptr"][1:] = np.cumsum(i % 4)
        end = int(out["ptr"][n])
        out["seg"][:end] = env["inp"][:end] + 1
    else:
        raise KeyError(kernel)
    return out


class ExecLarge(_Exec):
    """``execute(engine="parallel", tier="hybrid")`` on large sparse
    shapes; checked against hand-written NumPy references."""

    name = "exec_large"
    tier = "hybrid"
    uses_fabric = True
    calib_every = 4
    ops_per_s = 40.0
    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.sources = {
            name: read_kernel("corpus" if name == "par_reduce_mix" else "large", name)
            for name in LARGE_SIZES
        }

    def ops(self) -> list[Op]:
        round_len = sum(len(v) for _, v in LARGE_ROUND)
        rounds = _rounds(self.seconds, self.ops_per_s, round_len)
        rng = np.random.default_rng([self.seed, 5])
        quantiles = [_stratified(rng, rounds) for _ in LARGE_ROUND]
        out: list[Op] = []
        for r in range(rounds):
            for u in rng.permutation(len(LARGE_ROUND)):
                kernel, variants = LARGE_ROUND[int(u)]
                lo, hi = OVERLAP_SIZES if variants[0] == "overlap" else LARGE_SIZES[kernel]
                n = int(round(lo * (hi / lo) ** quantiles[int(u)][r]))
                first = len(out)
                for variant in variants:
                    out.append(Op(len(out), kernel, variant, n, struct=first))
        return out

    def warmup_ops(self) -> list[Op]:
        # the scatter runs first: its fabric dispatch pays the pool spawn
        ops: list[Op] = []
        for kernel, variants in LARGE_ROUND:
            first = WARMUP_INDEX + len(ops)
            for variant in variants:
                ops.append(Op(WARMUP_INDEX + len(ops), kernel, variant, 2000, struct=first))
        return ops

    def prepare(self, op: Op) -> Job:
        inputs = large_inputs(op, self.seed)
        return Job(op, inputs, copy_env(inputs))

    def check(self, job: Job, out: Any) -> "str | None":
        return env_mismatch(out, large_reference(job.op.kernel, job.inputs))


WORKLOADS = {w.name: w for w in (CompileCold, ExecSmall, ExecLarge)}
