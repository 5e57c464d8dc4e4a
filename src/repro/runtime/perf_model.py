"""Analytic performance model of the paper's evaluation machine.

The paper measures NPB CG (Classes A/B/C) on an Intel Kaby Lake R with
4 cores / 8 hardware threads at 1.6 GHz and DDR4-1866 (≈14.9 GB/s),
gcc 7.3 with OpenMP.  We cannot reproduce that testbed in Python, so
Figure 10's *modeled* series comes from a roofline-style cost model that
captures the three effects the paper attributes its curves to:

1. **compute scaling** — threads beyond the 4 physical cores add only
   SMT throughput (a second hardware context adds ~30 % issue width);
2. **memory behaviour** — CG's sparse mat-vec is a stream over ``a`` /
   ``colidx`` plus an irregular *gather* ``p[colidx[k]]``.  The gather is
   latency-bound; extra hardware threads hide latency almost linearly up
   to 8, which is why the *large* classes (B, C) keep improving with 8
   threads while streaming bandwidth saturates around 3–4 threads.
   For Class A the gathered vector (~110 KB) stays cache-resident, so
   the kernel is compute-bound and SMT adds little;
3. **parallel-region overhead** — fork/join costs grow with the thread
   count and are amortized by per-iteration work; Class A's small
   iterations make the 8-thread point dip back toward the 4-thread one.

Every constant is a documented physical parameter, not a per-point
fudge; speedups *emerge* from the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.workloads.npb_cg import CG_CLASSES, CGClass


@dataclass(frozen=True)
class MachineModel:
    """Parameters of the modeled machine (paper's Kaby Lake R)."""

    cores: int = 4
    hw_threads: int = 8
    #: sustained scalar flop rate per core (GHz × flops/cycle, derated)
    core_gflops: float = 1.6 * 1.2
    #: throughput gain of the second SMT context on one core
    smt_compute_gain: float = 0.30
    #: latency-hiding gain of the second SMT context (extra outstanding
    #: misses) — this is what lets Classes B/C keep improving at 8 threads
    smt_latency_gain: float = 0.30
    #: peak DRAM bandwidth (GB/s), DDR4-1866 single channel pair
    dram_bw: float = 14.9
    #: fraction of peak one thread can stream (a single core cannot keep
    #: enough requests in flight to saturate DRAM)
    stream_share_1t: float = 0.18
    #: last-level cache (bytes) — decides gather miss rates
    llc_bytes: int = 6 * 1024 * 1024
    #: effective fraction of the LLC available to the gathered vector
    llc_share: float = 0.25
    #: DRAM latency (s) and misses-in-flight per hardware thread
    dram_latency: float = 80e-9
    mlp_per_thread: float = 2.2
    #: useful fraction of each 64-byte miss line (sparse gathers waste
    #: most of a line; neighbouring nonzeros reuse some of it)
    line_utilization: float = 0.25
    #: fork/join overhead per parallel region: base + linear + quadratic
    #: (tree barrier + straggler effects) in seconds
    region_overhead_base: float = 8e-6
    region_overhead_per_thread: float = 1.6e-6
    region_overhead_quad: float = 1.2e-6
    #: parallel regions per CG iteration (SpMV + dots + axpys)
    regions_per_iter: float = 6.0
    #: fraction of one-thread work that stays sequential
    serial_fraction: float = 0.004

    # -- derived helpers ---------------------------------------------------
    def compute_contexts(self, threads: int) -> float:
        """Effective core-equivalents for compute at ``threads``."""
        primary = min(threads, self.cores)
        extra = max(0, min(threads, self.hw_threads) - self.cores)
        return primary + self.smt_compute_gain * extra

    def latency_contexts(self, threads: int) -> float:
        """Effective contexts for hiding gather latency."""
        primary = min(threads, self.cores)
        extra = max(0, min(threads, self.hw_threads) - self.cores)
        return primary + self.smt_latency_gain * extra

    def stream_bandwidth(self, threads: int) -> float:
        """Achievable memory bandwidth (GB/s)."""
        t = min(threads, self.hw_threads)
        return self.dram_bw * min(1.0, self.stream_share_1t * t)

    def gather_rate(self, threads: int) -> float:
        """Gather misses serviced per second (latency hiding via MLP)."""
        return self.latency_contexts(threads) * self.mlp_per_thread / self.dram_latency

    def region_overhead(self, threads: int) -> float:
        return (
            self.region_overhead_base
            + self.region_overhead_per_thread * threads
            + self.region_overhead_quad * threads * threads
        )


@dataclass(frozen=True)
class CgWork:
    """Per-CG-iteration work characterization for one class."""

    flops: float  # floating point operations
    stream_bytes: float  # sequential traffic (a, colidx, p writes...)
    gathers: float  # irregular loads p[colidx[k]]
    gather_miss_rate: float  # fraction missing the LLC
    iters: int  # CG iterations (niter × inner 25)


def characterize(cls: CGClass, machine: MachineModel) -> CgWork:
    """Derive the work profile of one NPB class from its parameters."""
    nnz = cls.estimated_nnz()
    na = cls.na
    flops = 2.0 * nnz + 10.0 * na
    stream_bytes = nnz * (8 + 4) + na * 9 * 8.0
    # the gathered vector is na doubles; miss rate grows as it outgrows
    # the cache share left over by the streamed data
    vec_bytes = na * 8.0
    pressure = vec_bytes / (machine.llc_bytes * machine.llc_share)
    miss_rate = max(0.02, min(0.85, 1.0 - math.exp(-pressure)))
    return CgWork(
        flops=flops,
        stream_bytes=stream_bytes,
        gathers=float(nnz),
        gather_miss_rate=miss_rate,
        iters=cls.niter * 25,
    )


@dataclass
class ModeledPoint:
    threads: int
    time_s: float
    speedup: float


def _body_time(w: CgWork, m: MachineModel, threads: int) -> float:
    """max(compute, memory traffic, gather latency) for one CG iteration's
    parallel body at the given thread count."""
    misses = w.gathers * w.gather_miss_rate
    t_comp = (w.flops / 1e9) / (m.core_gflops * m.compute_contexts(threads))
    mem_bytes = w.stream_bytes + misses * 64.0 * m.line_utilization
    t_mem = (mem_bytes / 1e9) / m.stream_bandwidth(threads)
    t_gather = misses / m.gather_rate(threads)
    return max(t_comp, t_mem, t_gather)


def cg_time(cls: CGClass, threads: int, machine: MachineModel | None = None) -> float:
    """Modeled wall-clock time of the parallelized CG for one class."""
    m = machine if machine is not None else MachineModel()
    w = characterize(cls, m)
    body = _body_time(w, m, threads)
    serial = m.serial_fraction * _body_time(w, m, 1)
    overhead = m.regions_per_iter * m.region_overhead(threads) if threads > 1 else 0.0
    return (serial + body + overhead) * w.iters


def speedup_series(
    cls: CGClass,
    thread_counts: tuple[int, ...] = (2, 4, 6, 8),
    machine: MachineModel | None = None,
) -> list[ModeledPoint]:
    """Figure 10 series for one class (speedup over 1 thread)."""
    m = machine if machine is not None else MachineModel()
    t1 = cg_time(cls, 1, m)
    return [ModeledPoint(p, cg_time(cls, p, m), t1 / cg_time(cls, p, m)) for p in thread_counts]


def figure10_model(
    classes: tuple[str, ...] = ("A", "B", "C"),
    thread_counts: tuple[int, ...] = (2, 4, 6, 8),
    machine: MachineModel | None = None,
) -> dict[str, list[ModeledPoint]]:
    """All modeled Figure 10 series."""
    return {
        name: speedup_series(CG_CLASSES[name], thread_counts, machine)
        for name in classes
    }
