"""Persistent parallel execution fabric: process-wide worker pools and
a recycled shared-memory arena.

PR 8's parallel engine paid fork + shared-memory allocate/copy/unlink +
schedule re-lowering on **every** ``execute()`` call, which is why the
measured payoff was thin (``parallel_execute_best_speedup: 1.07``): the
paper's whole argument is that compile-time proofs *amortize* across
executions, and our runtime amortized nothing.  This module is where
the amortization lives:

* :class:`WorkerFabric` — one lazily-started, fork-based process pool
  per worker count, shared by every ``execute()`` call in the process.
  A dead pool (``BrokenProcessPool``, injected or real) is absorbed:
  the caller invalidates the fabric, replays the activation serially,
  and the *next* dispatch respawns the pool — the same
  respawn-on-death discipline the batch scheduler uses.
* :class:`ShmArena` — named shared-memory segments leased per call and
  **recycled** instead of allocated + unlinked.  New segments are sized
  at the arena's byte high-water mark, so a steady-state workload
  converges on a fixed set of segments that every call reuses.  The
  arena keeps explicit leak accounting (`created - unlinked - free -
  leased` must be zero) and unlinks everything at interpreter shutdown.
* worker-side caches — workers no longer inherit closures through fork
  (that only works for a pool created *after* the arrays moved, i.e. a
  pool per call).  Tasks instead ship ``(fingerprint, source text,
  schedule summary, segment names)``; each worker rebuilds the chunk
  closure once per fingerprint and attaches each segment once per
  name, so the warm path sends a few hundred bytes and runs cached
  closures against cached mappings.

Lifecycle: everything here is process-wide state, torn down exactly
once via ``atexit`` *in the owning process* (fork children inherit the
module dict, so every teardown path is pid-guarded — a pool worker
exiting must never unlink the parent's segments).

The fabric also measures what ``MP_MIN_TRIPS`` used to hard-code: the
per-host cost of a warm dispatch (wall-clock round-trip minus the
slowest worker's own compute), folded into an EWMA that
:func:`repro.runtime.perf_model.min_parallel_trips` turns into a
chunk-sizing threshold.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import numpy as np

__all__ = [
    "ShmArena",
    "WorkerFabric",
    "arena",
    "dispatch_cost_us",
    "fabric_stats",
    "get_fabric",
    "shutdown_fabric",
]

#: Segment names carry the owning pid so concurrent test runs on one
#: host cannot collide and a leaked segment is attributable.
_ARENA_PREFIX = f"reproA{os.getpid():x}"


# --------------------------------------------------------------------------
# shared-memory arena
# --------------------------------------------------------------------------


class ShmArena:
    """Leases named shared-memory segments and recycles them.

    ``lease(nbytes)`` returns a segment of at least ``nbytes`` — a
    recycled one when any free segment fits (smallest fit wins), else a
    fresh segment sized at the arena high-water mark so later, smaller
    leases can reuse it.  ``release`` returns a segment to the free
    list *without* unlinking; :meth:`shutdown` unlinks everything.
    """

    def __init__(self, prefix: "str | None" = None) -> None:
        self.prefix = prefix or _ARENA_PREFIX
        self._seq = 0  # monotonic, so names are never reused in-process
        self._free: list = []
        self._leased: dict[str, Any] = {}
        self.high_water = 0
        self.stats = {
            "created": 0,
            "grown": 0,
            "recycled": 0,
            "leases": 0,
            "releases": 0,
            "unlinked": 0,
        }

    def lease(self, nbytes: int):
        from multiprocessing import shared_memory

        nbytes = max(int(nbytes), 1)
        self.stats["leases"] += 1
        best = None
        for seg in self._free:
            if seg.size >= nbytes and (best is None or seg.size < best.size):
                best = seg
        if best is not None:
            self._free.remove(best)
            self._leased[best.name] = best
            self.stats["recycled"] += 1
            return best
        if nbytes > self.high_water:
            if self.high_water:
                self.stats["grown"] += 1
            self.high_water = nbytes
        self._seq += 1
        seg = shared_memory.SharedMemory(
            create=True,
            name=f"{self.prefix}_{self._seq}",
            size=max(nbytes, self.high_water),
        )
        self.stats["created"] += 1
        self._leased[seg.name] = seg
        return seg

    def release(self, seg) -> None:
        if self._leased.pop(seg.name, None) is None:
            return  # not ours / double release: ignore
        self.stats["releases"] += 1
        self._free.append(seg)

    @property
    def outstanding(self) -> int:
        return len(self._leased)

    @property
    def leaked(self) -> int:
        """Segments this arena created that are neither free, leased,
        nor unlinked — must be zero at all times, and ``created ==
        unlinked`` after :meth:`shutdown`."""
        return (
            self.stats["created"]
            - self.stats["unlinked"]
            - len(self._free)
            - len(self._leased)
        )

    def accounting(self) -> dict[str, int]:
        return {
            **self.stats,
            "free": len(self._free),
            "outstanding": len(self._leased),
            "leaked": self.leaked,
            "high_water_bytes": self.high_water,
        }

    def shutdown(self) -> None:
        """Unlink every segment (leased ones too: at interpreter exit a
        still-leased segment would otherwise outlive the process)."""
        for seg in self._free + list(self._leased.values()):
            try:
                seg.close()
            except BufferError:  # a stray view still exports the buffer
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            self.stats["unlinked"] += 1
        self._free.clear()
        self._leased.clear()
        self.high_water = 0


# --------------------------------------------------------------------------
# worker side: rebuild-and-cache instead of inherit-through-fork
# --------------------------------------------------------------------------

_WORKER_CACHE_LIMIT = 256

#: (fingerprint, label) -> chunk runner
_WORKER_CLOSURES: dict[tuple, Any] = {}
#: segment name -> attached SharedMemory (segments are recycled under a
#: stable name, so an attachment stays valid for the arena's lifetime)
_WORKER_SEGS: dict[str, Any] = {}


def _attach(name: str):
    seg = _WORKER_SEGS.get(name)
    if seg is None:
        from multiprocessing import shared_memory

        if len(_WORKER_SEGS) >= _WORKER_CACHE_LIMIT:
            for old in _WORKER_SEGS.values():
                try:
                    old.close()
                except BufferError:
                    pass
            _WORKER_SEGS.clear()
        # Attaching registers the name with the (inherited) resource
        # tracker; the tracker's cache is a set, so the parent's single
        # unlink-and-unregister at shutdown still settles the books.
        seg = shared_memory.SharedMemory(name=name)
        _WORKER_SEGS[name] = seg
    return seg


def _fabric_chunk(task: tuple) -> tuple:
    """Execute one chunk in a fabric worker.

    The task is self-contained: closure key + function source text +
    schedule summary (rebuilt and cached per key), segment-backed array
    specs (attached and cached per name), scalars, chunk bounds, and
    the remaining step budget.  Errors return tagged rather than
    raising so the parent can classify them without losing the pool.
    """
    (key, source, fn_name, label, summary, t_lb, t_ub, scalars, arrays, budget) = task
    t0 = time.perf_counter()
    try:
        from repro.runtime.compiler import _Rt
        from repro.runtime.parallel import _CLB, _CUB, _build_chunk_runner

        run_chunk = _WORKER_CLOSURES.get(key)
        if run_chunk is None:
            if len(_WORKER_CLOSURES) >= _WORKER_CACHE_LIMIT:
                _WORKER_CLOSURES.clear()
            run_chunk = _build_chunk_runner(source, fn_name, label, summary)
            _WORKER_CLOSURES[key] = run_chunk
        env: dict[str, Any] = {}
        for name, (seg_name, shape, dtype) in arrays.items():
            seg = _attach(seg_name)
            env[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        env.update(scalars)
        env[_CLB] = t_lb
        env[_CUB] = t_ub
        rt = _Rt(None, None, budget)
        packs, priv = run_chunk(env, rt)
    except BaseException as exc:  # noqa: BLE001 — classified by the parent
        from repro.runtime.parallel import _is_program_error

        return ("err", type(exc).__name__, str(exc), _is_program_error(exc))
    return ("ok", packs, priv, rt.steps, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# the persistent pools
# --------------------------------------------------------------------------


class WorkerFabric:
    """One persistent fork pool for a fixed worker count."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool: "ProcessPoolExecutor | None" = None
        self.stats = {
            "pool_spawns": 0,
            "respawns": 0,
            "dispatches": 0,
            "warm_dispatches": 0,
            "chunks": 0,
        }
        #: EWMA of warm dispatch overhead (round-trip wall minus the
        #: slowest worker's own compute), microseconds.
        self.dispatch_cost_us: "float | None" = None

    @property
    def warm(self) -> bool:
        return self.pool is not None

    def ensure(self) -> ProcessPoolExecutor:
        if self.pool is None:
            from repro.service import faults

            plan = faults.active_plan()
            if self.stats["pool_spawns"]:
                self.stats["respawns"] += 1
            self.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=faults.pool_worker_init,
                initargs=(plan.spec() if plan is not None else None,),
            )
            self.stats["pool_spawns"] += 1
        return self.pool

    def invalidate(self) -> None:
        """Discard the pool (dead or suspect); the next dispatch
        respawns it."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def dispatch(self, tasks: list) -> list:
        """Run every task on the pool, results in task order.  A broken
        pool is invalidated before :class:`BrokenProcessPool` is
        re-raised, so the caller's serial replay leaves the fabric
        ready to respawn."""
        was_warm = self.warm
        pool = self.ensure()
        t0 = time.perf_counter()
        try:
            futures = [pool.submit(_fabric_chunk, t) for t in tasks]
            results = [f.result() for f in futures]
        except BrokenProcessPool:
            self.invalidate()
            raise
        wall_us = (time.perf_counter() - t0) * 1e6
        self.stats["dispatches"] += 1
        self.stats["chunks"] += len(tasks)
        if was_warm:
            self.stats["warm_dispatches"] += 1
            busiest = max(
                (r[4] for r in results if r[0] == "ok"), default=0.0
            )
            overhead = max(0.0, wall_us - busiest * 1e6)
            if self.dispatch_cost_us is None:
                self.dispatch_cost_us = overhead
            else:
                self.dispatch_cost_us = 0.5 * self.dispatch_cost_us + 0.5 * overhead
        return results


# --------------------------------------------------------------------------
# process-wide registry + teardown
# --------------------------------------------------------------------------

_ARENA = ShmArena()
_FABRICS: dict[int, WorkerFabric] = {}
_OWNER_PID = os.getpid()


def arena() -> ShmArena:
    return _ARENA


def get_fabric(workers: int) -> WorkerFabric:
    fab = _FABRICS.get(workers)
    if fab is None:
        fab = _FABRICS[workers] = WorkerFabric(workers)
    return fab


def dispatch_cost_us(workers: "int | None" = None) -> "float | None":
    """Measured warm-dispatch overhead: the named fabric's EWMA, or the
    smallest measured EWMA across fabrics, or ``None`` before any warm
    dispatch has been observed."""
    if workers is not None:
        fab = _FABRICS.get(workers)
        return fab.dispatch_cost_us if fab is not None else None
    costs = [f.dispatch_cost_us for f in _FABRICS.values() if f.dispatch_cost_us]
    return min(costs) if costs else None


def fabric_stats() -> dict[str, Any]:
    """Aggregate counters across every pool plus arena accounting —
    what tests and batch health sections read."""
    agg = {
        "pool_spawns": 0,
        "respawns": 0,
        "dispatches": 0,
        "warm_dispatches": 0,
        "chunks": 0,
    }
    for fab in _FABRICS.values():
        for key in agg:
            agg[key] += fab.stats[key]
    agg["dispatch_cost_us"] = dispatch_cost_us()
    agg["arena"] = _ARENA.accounting()
    return agg


def shutdown_fabric() -> None:
    """Tear down every pool and unlink every arena segment.  Safe to
    call repeatedly; benchmarks call it to measure a genuinely cold
    dispatch.  No-op in fork children: only the owning process may
    unlink."""
    if os.getpid() != _OWNER_PID:
        return
    for fab in _FABRICS.values():
        fab.invalidate()
    _FABRICS.clear()
    _ARENA.shutdown()


atexit.register(shutdown_fabric)
