"""Batch analysis engine: frontend → analysis → dependence → plan over a
whole corpus of kernels, with caching, parallel workers, and per-kernel
fault tolerance.

Design
------

* An :class:`AnalysisRequest` names one analysis task: a mini-C source
  (plus optional function name), the dependence method, and — for
  built-in corpus kernels — the registry name whose assertion
  environment seeds index-array properties.  Requests are plain,
  picklable data so they can cross process boundaries.
* The parent process keys every request on the plan memo's content key
  (:func:`~repro.analysis.framework.function_key`: function name, IR
  text, loop labels, declarations, assertions) plus the method and
  the analyzer version (see :mod:`repro.service.cache`) and satisfies
  what it can from the :class:`~repro.service.cache.ResultCache`.
  Only cache *misses* are computed — serially for ``jobs == 1``,
  otherwise on a ``concurrent.futures.ProcessPoolExecutor``.  A fully
  warm batch never spawns a pool at all.
* Workers return pure-JSON verdict payloads (loop verdicts, reasons,
  pragmas, annotated C — never timings), so a payload is byte-for-byte
  identical whether it was computed cold, served warm, or produced by
  any number of workers.  Wall-clock timings are recorded around the
  payload and reported separately.
* A request whose frontend or analysis raises a
  :class:`~repro.errors.ReproError` yields an *error payload* instead of
  aborting the batch; these are deterministic verdicts and are cached.

Fault tolerance (the resilience layer)
--------------------------------------

Batches degrade **per kernel, never per batch**:

* Every miss runs under a guard (:func:`_worker_run`) that converts any
  infrastructure failure — a wall-clock timeout (``timeout=`` seconds,
  enforced in-worker via SIGALRM), a transient error, an unexpected
  exception — into a structured *failure payload* instead of an escaped
  exception.
* The scheduler retries ``timeout`` / ``transient`` / ``worker-crash``
  failures (with a small backoff) until a kernel accumulates
  ``max_failures`` of them; then it is **quarantined** with a structured
  ``timeout`` / ``failed`` record.  ``unexpected`` failures (a genuine
  bug surfaced by one kernel) are terminal immediately — retrying a
  deterministic crash only wastes the budget.
* A dead worker process (``BrokenProcessPool``) costs the batch one pool
  respawn: completed results are kept, in-flight work is blamed one
  ``worker-crash`` failure and requeued, and a fresh pool continues.  A
  parent-side watchdog backstops the in-worker alarm: if a worker blows
  well past the budget without reporting, the pool is killed and the
  kernel is treated as timed out.
* Failure records and fallback-degraded payloads are **never cached** —
  they describe the environment, not the kernel.
* Everything above is accounted in the report's ``health`` section
  (retries, timeouts, crashes, respawns, quarantined kernels, fallbacks
  taken, oracle downgrades), rendered by ``repro batch`` and exercised
  end-to-end by the seeded chaos suite (``tests/test_chaos.py``) via
  :mod:`repro.service.faults`.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import (
    InfrastructureError,
    KernelTimeoutError,
    ReproError,
    TransientWorkerError,
    WorkerCrashError,
)
from repro.service import faults
from repro.service.cache import ResultCache, analyzer_version, cache_key


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of batch work (picklable)."""

    name: str  # unique within the batch; report rows are sorted by it
    source: str  # mini-C text
    function: "str | None" = None  # function to analyze (None: the only one)
    method: str = "extended"  # gcd | banerjee | range | extended
    kernel: "str | None" = None  # corpus-kernel name providing assertions

    def assertion_env(self):
        """Rebuild the assertion environment (worker side)."""
        if self.kernel is None:
            return None
        from repro.corpus import all_kernels

        return all_kernels()[self.kernel].assertion_env()


@dataclass
class KernelVerdict:
    """One request's result: the deterministic payload plus run metadata."""

    name: str
    payload: dict
    from_cache: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return "error" not in self.payload

    @property
    def parallel_loops(self) -> list[str]:
        return list(self.payload.get("parallel_loops", ()))


def _new_health() -> dict:
    """An empty batch-health ledger: every infrastructure event of a run
    in one dict (counters, quarantine lists, fallbacks taken)."""
    return {
        "retries": 0,
        "timeouts": 0,
        "worker_crashes": 0,
        "pool_respawns": 0,
        "watchdog_kills": 0,
        "transient_errors": 0,
        "unexpected_errors": 0,
        "quarantined": [],  # kernels that exhausted max_failures
        "failed": [],  # kernels terminated by an unexpected error
        "fallbacks": {},  # degradation-ladder kind -> count
        "oracle_downgrades": [],  # validation verdicts downgraded to unknown
    }


def _health_events(health: "dict | None") -> bool:
    if not health:
        return False
    return any(
        bool(v) for k, v in health.items() if k != "fallbacks"
    ) or bool(health.get("fallbacks"))


@dataclass
class BatchReport:
    """Everything one :meth:`BatchEngine.run` produced."""

    method: str
    jobs: int
    verdicts: list[KernelVerdict] = field(default_factory=list)
    total_seconds: float = 0.0
    cache_stats: "dict[str, int] | None" = None
    health: dict = field(default_factory=_new_health)

    def verdict(self, name: str) -> KernelVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    # -- serialization -------------------------------------------------------
    def canonical_json(self) -> str:
        """The machine-readable verdict report.

        Deterministic: identical for cold, warm, and parallel runs of the
        same requests (no timings, no cache metadata, no health — those
        describe the run, not the verdicts).
        """
        import json

        doc = {
            "analyzer_version": analyzer_version(),
            "method": self.method,
            "verdicts": [v.payload for v in self.verdicts],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_json(self) -> str:
        """Full report: canonical verdicts plus timings, cache stats, and
        the run's health ledger."""
        import json

        doc = {
            "analyzer_version": analyzer_version(),
            "method": self.method,
            "jobs": self.jobs,
            "total_seconds": round(self.total_seconds, 6),
            "cache": self.cache_stats,
            "health": self.health,
            "verdicts": [
                {
                    **v.payload,
                    "from_cache": v.from_cache,
                    "seconds": round(v.seconds, 6),
                }
                for v in self.verdicts
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def render(self) -> str:
        """Human-readable summary table."""
        from repro.utils.tables import Table

        t = Table(
            ["kernel", "function", "parallel loops", "serial loops", "cache", "ms"],
            title=f"batch analysis ({self.method}, jobs={self.jobs})",
        )
        for v in self.verdicts:
            if "failure" in v.payload:
                status = v.payload.get("status", "failed").upper()
                t.add_row(
                    v.name, "-", f"{status}: {v.payload['error'][:40]}", "-", "-", "-"
                )
                continue
            if not v.ok:
                t.add_row(v.name, "-", f"ERROR: {v.payload['error'][:40]}", "-", "-", "-")
                continue
            serial = [
                l["label"] for l in v.payload["loops"] if not l["parallel"]
            ]
            t.add_row(
                v.name,
                v.payload["function"],
                ", ".join(v.parallel_loops) or "-",
                ", ".join(serial) or "-",
                "hit" if v.from_cache else "miss",
                f"{v.seconds * 1e3:.1f}",
            )
        lines = [t.render()]
        n_par = sum(1 for v in self.verdicts if v.ok and v.parallel_loops)
        n_err = sum(1 for v in self.verdicts if not v.ok)
        lines.append(
            f"{len(self.verdicts)} kernels: {n_par} with parallel loops, "
            f"{n_err} errors — {self.total_seconds * 1e3:.1f} ms total"
        )
        if self.cache_stats is not None:
            lines.append(
                "cache: {memory_hits} memory hits, {disk_hits} disk hits, "
                "{misses} misses, {stores} stores".format(**self.cache_stats)
            )
            write_errors = self.cache_stats.get("write_errors", 0)
            if write_errors:
                lines.append(
                    f"WARNING: {write_errors} cache write failure(s) — cache dir "
                    "unwritable or full; results will be recomputed next run"
                )
            corrupt = self.cache_stats.get("corrupt_entries", 0)
            if corrupt:
                lines.append(
                    f"WARNING: {corrupt} corrupt cache entr(y/ies) dropped and "
                    "recomputed — check the cache directory for bitrot"
                )
            stale = self.cache_stats.get("schema_mismatches", 0)
            if stale:
                lines.append(
                    f"note: {stale} cache entr(y/ies) from an older schema "
                    "dropped and recomputed"
                )
        lines.extend(self._render_health())
        return "\n".join(lines)

    def _render_health(self) -> list[str]:
        h = self.health or {}
        if not _health_events(h):
            return []
        lines: list[str] = []
        counters = (
            ("retries", "retries"),
            ("timeouts", "timeouts"),
            ("worker_crashes", "worker crashes"),
            ("pool_respawns", "pool respawns"),
            ("watchdog_kills", "watchdog kills"),
            ("transient_errors", "transient errors"),
            ("unexpected_errors", "unexpected errors"),
        )
        bits = [f"{h[key]} {label}" for key, label in counters if h.get(key)]
        if bits:
            lines.append("health: " + ", ".join(bits))
        if h.get("quarantined"):
            lines.append("QUARANTINED: " + ", ".join(h["quarantined"]))
        if h.get("failed"):
            lines.append("FAILED (unexpected error): " + ", ".join(h["failed"]))
        if h.get("fallbacks"):
            lines.append(
                "fallbacks taken: "
                + ", ".join(f"{k} x{n}" for k, n in sorted(h["fallbacks"].items()))
            )
        if h.get("fabric"):
            f = h["fabric"]
            lines.append(
                f"parallel fabric: {f['pool_spawns']} pool spawn(s), "
                f"{f['dispatches']} dispatches ({f['warm_dispatches']} warm), "
                f"{f['segments_created']} segment(s) created / "
                f"{f['segments_recycled']} recycled across "
                f"{f['kernels_executed']} kernel(s)"
                + (
                    " — fabric reused"
                    if f["pool_spawns"] <= 1 and f["dispatches"] > 1
                    else ""
                )
            )
        if h.get("inspector"):
            ins = h["inspector"]
            lines.append(
                f"runtime inspector: {ins['inspections']} inspection(s) "
                f"({ins['hits']} memo hit(s)), {ins['passes']} pass(es), "
                f"{ins['refusals']} refusal(s)"
            )
        for d in h.get("oracle_downgrades", ()):
            lines.append(
                f"VALIDATION DOWNGRADED [{d['name']}]: loop {d['loop']} -> "
                f"unknown ({d['reason']})"
            )
        return lines


# --------------------------------------------------------------------------
# fingerprinting and the (picklable) worker
# --------------------------------------------------------------------------


def _prepare(req: AnalysisRequest):  # noqa: ANN202 — (key, IRFunction | None, env)
    """Fingerprint ``req`` and keep the parsed artifacts.

    Returns ``(cache_key, func, assertions)`` so a cache miss can run the
    pipeline on the already-built :class:`IRFunction` instead of parsing
    the source a second time.  The key is the plan memo's
    :func:`~repro.analysis.framework.function_key` plus the method, with
    one difference: it hashes the IR printed *with* the source's own
    loop pragmas, because the payload's annotated C keeps them (for a
    source without pragmas the two keys are equal).  ``func`` is
    ``None`` when the frontend rejects the source (the rejection itself
    is then cached under a key derived from the raw text)."""
    from repro.analysis.framework import assumed_fingerprint, function_key
    from repro.ir import build_function, function_to_c

    env = req.assertion_env()
    func = None
    try:
        func = build_function(req.source, req.function)
        content = function_key(func, assumed_fingerprint(env), function_to_c(func))
    except ReproError:
        content = "unparsed:" + req.source
    return cache_key(content, req.method), func, env


def _request_key(req: AnalysisRequest) -> str:
    """Cache key for ``req``; falls back to hashing the raw source when
    the frontend rejects it (the rejection itself is then cached)."""
    return _prepare(req)[0]


def _compute_payload(
    req: AnalysisRequest,
    key: str,
    func=None,  # noqa: ANN001 — IRFunction, optional fast path
    assertions=None,  # noqa: ANN001 — PropertyEnv, optional fast path
) -> dict:
    """Run the full pipeline for one request (worker side; pure JSON out).

    ``key`` is the request's cache key; ``func``/``assertions`` are the
    artifacts :func:`_prepare` built while fingerprinting, so the serial
    path parses each source exactly once.  Workers across a process pool
    receive only ``(req, key)`` and parse for themselves.
    """
    from repro.parallelizer import parallelize

    base = {"name": req.name, "method": req.method, "cache_key": key}
    try:
        out = parallelize(
            func if func is not None else req.source,
            method=req.method,
            assertions=assertions if assertions is not None else req.assertion_env(),
            function=req.function,
        )
    except InfrastructureError:
        # timeouts/crashes are environmental, not verdicts: let the
        # worker guard classify them (caching one would poison the key)
        raise
    except ReproError as exc:
        return {**base, "error": f"{type(exc).__name__}: {exc}", "function": req.function}
    loops = [
        {
            "label": p.label,
            "parallel": p.parallel,
            "reason": p.reason,
            "pragma": p.pragma,
            "provenance": list(p.provenance),
        }
        for p in out.plan.loops.values()
    ]
    payload = {
        **base,
        "function": out.func.name,
        "parallel_loops": out.plan.parallel_loops,
        "loops": loops,
        "annotated_c": out.annotated_c,
        "analysis_engine": out.analysis.engine,
    }
    fallback = getattr(out.analysis, "fallback", None)
    if fallback:
        # degraded result: correct (the fallback engine is the frozen
        # baseline) but provenance-marked and excluded from the cache
        payload["fallbacks"] = [dict(fallback)]
    return payload


def _worker_run(
    req: AnalysisRequest,
    key: str,
    attempts: "dict[str, int] | None" = None,
    budget: "float | None" = None,
    func=None,  # noqa: ANN001 — serial fast path only (not picklable-safe)
    assertions=None,  # noqa: ANN001
) -> dict:
    """Guarded worker: run one request under the wall-clock ``budget``
    and convert every infrastructure failure into a structured *failure
    payload* — a worker never lets an exception escape (an injected
    ``worker.crash`` in a pool genuinely kills the process instead).

    ``attempts`` carries the scheduler's per-kind failure counts for
    this work item, which keys the deterministic fault-injection rules
    (a consumed crash rule stays consumed across pool respawns).
    """
    attempts = attempts or {}
    base = {
        "name": req.name,
        "method": req.method,
        "cache_key": key,
        "function": req.function,
    }
    try:
        with faults.time_budget(budget, req.name):
            faults.maybe_fail("worker.crash", req.name, attempts.get("worker-crash", 0))
            faults.maybe_fail("worker.hang", req.name, attempts.get("timeout", 0))
            faults.maybe_fail(
                "worker.transient", req.name, attempts.get("transient", 0)
            )
            faults.maybe_fail("worker.error", req.name, attempts.get("unexpected", 0))
            return _compute_payload(req, key, func=func, assertions=assertions)
    except KernelTimeoutError as exc:
        return {**base, "failure": "timeout", "error": str(exc)}
    except WorkerCrashError as exc:
        return {**base, "failure": "worker-crash", "error": str(exc)}
    except (TransientWorkerError, OSError) as exc:
        return {**base, "failure": "transient", "error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # noqa: BLE001 — one kernel's bug, one kernel's record
        return {**base, "failure": "unexpected", "error": f"{type(exc).__name__}: {exc}"}


def _cacheable(payload: dict) -> bool:
    """Failure records and fallback-degraded payloads describe the run's
    environment, not the kernel — never cache them as verdicts."""
    return "failure" not in payload and "fallbacks" not in payload


class _Work:
    """Mutable scheduler state for one cache miss."""

    __slots__ = ("req", "key", "func", "env", "failed", "hard_timeout")

    def __init__(self, req: AnalysisRequest, key: str, func=None, env=None) -> None:  # noqa: ANN001
        self.req = req
        self.key = key
        self.func = func
        self.env = env
        self.failed: dict[str, int] = {}  # failure kind -> count
        self.hard_timeout = False  # parent watchdog flagged this item


#: health counter bumped per observed failure of each kind ("worker-crash"
#: is deliberately absent: crashes are counted per pool-death *event*, not
#: per blamed in-flight kernel, so accounting matches injections).
_FAILURE_COUNTERS = {
    "timeout": "timeouts",
    "transient": "transient_errors",
    "unexpected": "unexpected_errors",
}


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------


class BatchEngine:
    """Cache-aware, optionally parallel, fault-tolerant analysis driver.

    ``timeout`` is the per-kernel wall-clock budget in seconds (None:
    unlimited); ``max_failures`` is how many infrastructure failures
    (timeouts, transient errors, worker crashes — in any mix) one kernel
    may accumulate before it is quarantined; ``backoff`` scales the
    sleep before a retry."""

    def __init__(
        self,
        method: str = "extended",
        jobs: int = 1,
        cache: "ResultCache | None" = None,
        timeout: "float | None" = None,
        max_failures: int = 2,
        backoff: float = 0.02,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {max_failures}")
        self.method = method
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()
        self.timeout = timeout
        self.max_failures = max_failures
        self.backoff = backoff

    # -- single request -------------------------------------------------------
    def analyze(self, req: AnalysisRequest) -> KernelVerdict:
        """Analyze one request: a batch of one, in-process."""
        return self.run([req]).verdicts[0]

    def analyze_source(
        self, source: str, name: str = "kernel", function: "str | None" = None
    ) -> KernelVerdict:
        """Convenience wrapper: analyze one mini-C source text."""
        return self.analyze(
            AnalysisRequest(name=name, source=source, function=function, method=self.method)
        )

    # -- batch ----------------------------------------------------------------
    def run(self, requests: Iterable[AnalysisRequest]) -> BatchReport:
        """Analyze every request; verdicts are sorted by request name."""
        reqs = sorted(requests, key=lambda r: r.name)
        names = [r.name for r in reqs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate request names: {', '.join(dupes)}")
        t_start = time.perf_counter()
        health = _new_health()

        verdicts: dict[str, KernelVerdict] = {}
        misses: list[_Work] = []
        for req in reqs:
            t0 = time.perf_counter()
            try:
                key, func, env = _prepare(req)
            except Exception as exc:  # noqa: BLE001 — a frontend bug costs one row, not the batch
                health["unexpected_errors"] += 1
                health["failed"].append(req.name)
                verdicts[req.name] = KernelVerdict(
                    req.name,
                    {
                        "name": req.name,
                        "method": req.method,
                        "cache_key": None,
                        "function": req.function,
                        "failure": "unexpected",
                        "status": "failed",
                        "error": f"{type(exc).__name__}: {exc}",
                        "attempts": 1,
                        "quarantined": False,
                    },
                    False,
                    time.perf_counter() - t0,
                )
                continue
            hit = self.cache.get(key)
            if hit is not None:
                verdicts[req.name] = KernelVerdict(
                    req.name, {**hit, "name": req.name}, True, time.perf_counter() - t0
                )
            else:
                misses.append(_Work(req, key, func, env))

        for req, key, payload, seconds in self._compute_all(misses, health):
            if _cacheable(payload):
                self.cache.put(key, payload)
            verdicts[req.name] = KernelVerdict(req.name, payload, False, seconds)

        for v in verdicts.values():
            for fb in v.payload.get("fallbacks", ()):
                kind = fb.get("kind", "unknown") if isinstance(fb, dict) else str(fb)
                health["fallbacks"][kind] = health["fallbacks"].get(kind, 0) + 1
        health["quarantined"].sort()
        health["failed"].sort()

        return BatchReport(
            method=self.method,
            jobs=self.jobs,
            verdicts=[verdicts[n] for n in names],
            total_seconds=time.perf_counter() - t_start,
            cache_stats=self.cache.stats.to_dict(),
            health=health,
        )

    # -- retry / quarantine policy (shared by serial and pool paths) ----------
    def _register_failure(
        self, w: _Work, kind: str, error: str, health: dict, count: bool = True
    ) -> "dict | None":
        """Record one failure of ``kind`` against ``w``.  Returns the
        terminal quarantine/failure payload, or ``None`` when the kernel
        earned another retry."""
        w.failed[kind] = w.failed.get(kind, 0) + 1
        if count and kind in _FAILURE_COUNTERS:
            health[_FAILURE_COUNTERS[kind]] += 1
        total = sum(w.failed.values())
        if kind != "unexpected" and total < self.max_failures:
            health["retries"] += 1
            if self.backoff:
                time.sleep(min(self.backoff * total, 0.5))
            return None
        quarantined = kind != "unexpected"
        payload = {
            "name": w.req.name,
            "method": w.req.method,
            "cache_key": w.key,
            "function": w.req.function,
            "failure": kind,
            "status": "timeout" if kind == "timeout" else "failed",
            "error": error,
            "attempts": total,
            "quarantined": quarantined,
        }
        (health["quarantined"] if quarantined else health["failed"]).append(w.req.name)
        return payload

    def _compute_all(
        self, misses: "Sequence[_Work]", health: dict
    ) -> list[tuple[AnalysisRequest, str, dict, float]]:
        if not misses:
            return []
        if self.jobs == 1 or len(misses) == 1:
            return self._compute_serial(misses, health)
        return self._compute_pool(misses, health)

    def _compute_serial(
        self, misses: "Sequence[_Work]", health: dict
    ) -> list[tuple[AnalysisRequest, str, dict, float]]:
        out = []
        for w in misses:
            t0 = time.perf_counter()
            while True:
                payload = _worker_run(
                    w.req, w.key, dict(w.failed), self.timeout,
                    func=w.func, assertions=w.env,
                )
                kind = payload.get("failure")
                if kind is None:
                    break
                # serial crashes are in-process exceptions, one per
                # failure, so (unlike the pool path) each counts
                if kind == "worker-crash":
                    health["worker_crashes"] += 1
                payload = self._register_failure(
                    w, kind, payload.get("error", ""), health
                )
                if payload is not None:
                    break
            out.append((w.req, w.key, payload, time.perf_counter() - t0))
        return out

    # -- resilient process-pool scheduler --------------------------------------
    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        plan = faults.active_plan()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=faults.pool_worker_init,
            initargs=(plan.spec() if plan is not None else None,),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Best-effort SIGKILL of every pool process (watchdog path)."""
        procs = getattr(pool, "_processes", None) or {}
        for p in list(procs.values()):
            try:
                p.kill()
            except Exception:  # noqa: BLE001 — already-dead processes are fine
                pass

    def _compute_pool(
        self, misses: "Sequence[_Work]", health: dict
    ) -> list[tuple[AnalysisRequest, str, dict, float]]:
        workers = min(self.jobs, len(misses))
        t0 = time.perf_counter()
        pending: "deque[_Work]" = deque(misses)
        in_flight: "dict" = {}  # future -> (work, submit monotonic time)
        results: dict[str, tuple[AnalysisRequest, str, dict]] = {}
        # grace sits well above the in-worker SIGALRM: the parent watchdog
        # only fires when a worker is wedged beyond signals
        grace = None if self.timeout is None else self.timeout * 3 + 5.0
        pool = self._new_pool(workers)
        try:
            while pending or in_flight:
                broken = False
                watchdog_fired = False
                # cap in-flight at the worker count so a pool death can
                # only blame work that was genuinely running
                while pending and len(in_flight) < workers:
                    w = pending.popleft()
                    try:
                        f = pool.submit(
                            _worker_run, w.req, w.key, dict(w.failed), self.timeout
                        )
                    except BrokenExecutor:
                        pending.appendleft(w)
                        broken = True
                        break
                    in_flight[f] = (w, time.monotonic())
                if in_flight and not broken:
                    done, _ = wait(
                        list(in_flight), timeout=0.25, return_when=FIRST_COMPLETED
                    )
                    for f in done:
                        w, _t = in_flight.pop(f)
                        try:
                            payload = f.result()
                        except BrokenExecutor:
                            broken = True
                            self._pool_fail(
                                w, "worker-crash",
                                "worker process died unexpectedly (process pool broken)",
                                health, pending, results, count=False,
                            )
                        except Exception as exc:  # noqa: BLE001 — e.g. unpicklable payload
                            self._pool_fail(
                                w, "unexpected", f"{type(exc).__name__}: {exc}",
                                health, pending, results,
                            )
                        else:
                            self._absorb(w, payload, health, pending, results)
                    if not done and grace is not None:
                        now = time.monotonic()
                        for f, (w, t_sub) in in_flight.items():
                            if now - t_sub > grace and not f.done():
                                w.hard_timeout = True
                                watchdog_fired = True
                        if watchdog_fired:
                            health["watchdog_kills"] += 1
                            self._kill_pool(pool)
                            broken = True
                if broken:
                    # keep whatever finished before the break, blame the
                    # rest one failure each, respawn, carry on
                    for f, (w, _t) in list(in_flight.items()):
                        payload = None
                        if f.done() and not f.cancelled():
                            try:
                                payload = f.result()
                            except BaseException:  # noqa: BLE001
                                payload = None
                        if payload is not None:
                            self._absorb(w, payload, health, pending, results)
                        elif w.hard_timeout:
                            w.hard_timeout = False
                            self._pool_fail(
                                w, "timeout",
                                f"no result after {grace:.1f}s — killed by the "
                                "parent watchdog",
                                health, pending, results,
                            )
                        else:
                            self._pool_fail(
                                w, "worker-crash",
                                "worker process died unexpectedly (process pool broken)",
                                health, pending, results, count=False,
                            )
                    in_flight.clear()
                    if not watchdog_fired:
                        health["worker_crashes"] += 1
                    health["pool_respawns"] += 1
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        # per-item wall time is not observable across the pool; attribute
        # the batch wall clock evenly so totals stay meaningful
        each = (time.perf_counter() - t0) / max(len(results), 1)
        return [
            (req, key, payload, each) for req, key, payload in results.values()
        ]

    def _absorb(
        self, w: _Work, payload: dict, health: dict, pending: "deque[_Work]",
        results: dict,
    ) -> None:
        kind = payload.get("failure")
        if kind is None:
            results[w.req.name] = (w.req, w.key, payload)
            return
        self._pool_fail(w, kind, payload.get("error", ""), health, pending, results)

    def _pool_fail(
        self, w: _Work, kind: str, error: str, health: dict,
        pending: "deque[_Work]", results: dict, count: bool = True,
    ) -> None:
        terminal = self._register_failure(w, kind, error, health, count=count)
        if terminal is not None:
            results[w.req.name] = (w.req, w.key, terminal)
        else:
            pending.append(w)


# --------------------------------------------------------------------------
# dynamic verdict validation (oracle spot-checks)
# --------------------------------------------------------------------------


def _parallel_exec_opts() -> dict:
    """Tuning for validation-time parallel executes: on fork-capable
    hosts, force at least 2 workers and a dispatch threshold of one
    trip so every scheduled activation of even the small corpus kernels
    genuinely crosses the persistent fabric (pool reuse, arena leasing,
    worker-side closure caches) and, on the hybrid tier, the inspector
    in front of it.  With defaults, activations under the threshold run
    on the compiled serial closure and validation would silently check
    only the serial path.  Byte-identical semantics make the forced
    width safe; capping at 4 keeps validation cheap on big hosts."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return {}
    from repro.runtime.parallel import default_workers

    return {
        "workers": max(2, min(default_workers(), 4)),
        "mp_min_trips": 1,
    }


def _execute_parallel_vs_interp(
    func, kernel, seed: int, max_steps: int, tier: str = "static"  # noqa: ANN001
) -> list[str]:
    """Run one kernel on the reference interpreter and the parallel
    engine and describe any divergence (final environments must match
    exactly; a program error must reproduce with the same message).
    With ``tier="hybrid"`` the forced one-trip threshold of
    :func:`_parallel_exec_opts` also sends even small kernels through
    the inspector."""
    from repro.runtime import run_function
    from repro.runtime.engines import execute, first_divergence

    opts = _parallel_exec_opts()
    if tier == "hybrid":
        opts = {**opts, "tier": "hybrid"}

    def outcome(runner):  # noqa: ANN001
        env = kernel.make_inputs(seed)
        try:
            runner(env)
        except ReproError as exc:
            return env, f"{type(exc).__name__}: {exc}"
        return env, None

    env_ref, err_ref = outcome(lambda e: run_function(func, e, max_steps=max_steps))
    env_par, err_par = outcome(
        lambda e: execute(
            func, e, engine="parallel", max_steps=max_steps, **opts
        )
    )
    mismatches: list[str] = []
    if err_ref != err_par:
        mismatches.append(
            f"parallel execution error diverged on seed {seed}: "
            f"interp {err_ref!r} vs parallel {err_par!r}"
        )
    name = first_divergence(env_ref, env_par)
    if name is not None:
        mismatches.append(
            f"parallel execution diverged on seed {seed}: {name!r} "
            f"differs from the interpreter"
        )
    return mismatches


def validate_parallel_verdicts(
    report: BatchReport,
    seeds: Sequence[int] = (0, 1),
    engine: "str | None" = None,
    max_steps: int = 50_000_000,
    extra_kernels: "Sequence" = (),
    tier: str = "static",
) -> dict[str, list[str]]:
    """Dynamically spot-check a batch report's PARALLEL verdicts.

    Every verdict whose request names a built-in corpus kernel with an
    input generator is re-checked against the dynamic independence
    oracle on ``seeds`` inputs: a declared-parallel loop that conflicts
    dynamically is a soundness violation.  Runs on the compiled engine
    unless ``engine`` names another, which keeps the check cheap enough
    for ``repro batch --validate`` and CI.

    ``extra_kernels`` extends the corpus lookup with any objects carrying
    ``name`` / ``source`` / ``make_inputs`` (e.g. fuzz or pathological
    kernels), so chaos runs can validate synthesized corpora too.

    An oracle check that *times out* (injected ``oracle.timeout`` fault,
    or a genuine step-budget exhaustion under ``max_steps``) is not a
    violation: the verdict is **downgraded to unknown** and recorded in
    ``report.health["oracle_downgrades"]``.

    With ``engine="parallel"`` each validated kernel is additionally
    *executed* on the parallel engine and its final environment compared
    against the reference interpreter, so the validation exercises the
    real chunked fabric dispatch (the oracle itself always observes
    sequential iteration order).  Degradation-ladder fallbacks taken
    while validating — e.g. a failed chunk dispatch replayed serially —
    are drained into ``report.health["fallbacks"]``.

    With ``tier="hybrid"`` (parallel engine only) the execution half
    runs on the hybrid dispatch tier: kernels *without* static parallel
    loops are validated too (their unknown-verdict loops may dispatch
    through the runtime inspector), and the inspector's activity delta
    is recorded in ``report.health["inspector"]``.

    Returns ``{request_name: [violation descriptions]}`` — empty when
    every validated verdict holds up.
    """
    from repro.corpus import all_kernels
    from repro.ir import build_function
    from repro.runtime import TIERS, check_loop_independence
    from repro.runtime.engines import resolve_engine

    if tier not in TIERS:
        raise ValueError(f"unknown dispatch tier {tier!r} (choose from {TIERS})")
    kernels: dict = dict(all_kernels())
    for k in extra_kernels:
        kernels[k.name] = k
    health = getattr(report, "health", None)
    if health is not None:
        faults.drain_fallback_notes()  # count only this validation's fallbacks
    par_engine = resolve_engine(engine) == "parallel"
    hybrid = par_engine and tier == "hybrid"
    fabric_before = None
    inspector_before = None
    if par_engine:
        from repro.runtime import fabric

        fabric_before = fabric.fabric_stats()
    if hybrid:
        from repro.runtime.inspector import inspector_stats

        inspector_before = inspector_stats()
    executed_kernels = 0
    problems: dict[str, list[str]] = {}
    for v in report.verdicts:
        if not v.ok or (not v.parallel_loops and not hybrid):
            continue
        kernel = kernels.get(v.name)
        if kernel is None or getattr(kernel, "make_inputs", None) is None:
            continue
        func = build_function(kernel.source)
        for label in v.parallel_loops:
            for seed in seeds:
                try:
                    faults.maybe_fail("oracle.timeout", f"{v.name}:{label}")
                    rep = check_loop_independence(
                        func,
                        kernel.make_inputs(seed),
                        label,
                        max_steps=max_steps,
                        engine=engine,
                    )
                except ReproError as exc:
                    budget_blown = isinstance(exc, KernelTimeoutError) or (
                        "step budget" in str(exc)
                    )
                    if not budget_blown:
                        raise
                    if health is not None:
                        health["oracle_downgrades"].append(
                            {
                                "name": v.name,
                                "loop": label,
                                "seed": seed,
                                "verdict": "unknown",
                                "reason": f"{type(exc).__name__}: {exc}",
                            }
                        )
                    continue
                if not rep.independent:
                    problems.setdefault(v.name, []).append(
                        f"loop {label} declared parallel but conflicts on "
                        f"seed {seed}: {rep.conflicts[0].describe()}"
                    )
        if par_engine:
            executed_kernels += 1
            for seed in seeds:
                mismatches = _execute_parallel_vs_interp(
                    func, kernel, seed, max_steps, tier=tier
                )
                for msg in mismatches:
                    problems.setdefault(v.name, []).append(msg)
    if health is not None:
        for kind, _detail in faults.drain_fallback_notes():
            health["fallbacks"][kind] = health["fallbacks"].get(kind, 0) + 1
        if par_engine and executed_kernels:
            # one fabric across every kernel executed above: spawns in
            # the delta beyond the first (or zero) mean the pool was
            # NOT reused — surfaced so `repro batch --engine parallel`
            # makes amortization (or its absence) visible
            from repro.runtime import fabric

            after = fabric.fabric_stats()
            health["fabric"] = {
                "kernels_executed": executed_kernels,
                "pool_spawns": after["pool_spawns"] - fabric_before["pool_spawns"],
                "dispatches": after["dispatches"] - fabric_before["dispatches"],
                "warm_dispatches": after["warm_dispatches"]
                - fabric_before["warm_dispatches"],
                "segments_created": after["arena"]["created"]
                - fabric_before["arena"]["created"],
                "segments_recycled": after["arena"]["recycled"]
                - fabric_before["arena"]["recycled"],
            }
        if hybrid and executed_kernels:
            # inspector activity delta across the executed kernels —
            # hits beyond the first inspection per distinct input mean
            # the content-addressed memo amortized (cf. the fabric
            # warm-dispatch accounting above)
            from repro.runtime.inspector import inspector_stats

            after_i = inspector_stats()
            health["inspector"] = {
                "inspections": after_i["inspections"]
                - inspector_before["inspections"],
                "hits": after_i["hits"] - inspector_before["hits"],
                "passes": after_i["passes"] - inspector_before["passes"],
                "refusals": after_i["refusals"] - inspector_before["refusals"],
            }
    return problems


# --------------------------------------------------------------------------
# request builders
# --------------------------------------------------------------------------


def corpus_requests(method: str = "extended") -> list[AnalysisRequest]:
    """One request per built-in corpus kernel (figures + suite extras),
    each carrying its registry assertions."""
    from repro.corpus import all_kernels

    return [
        AnalysisRequest(name=name, source=k.source, method=method, kernel=name)
        for name, k in sorted(all_kernels().items())
    ]


def requests_from_source(
    source: str, label: str, method: str = "extended"
) -> list[AnalysisRequest]:
    """One request per function in a mini-C translation unit.

    An unparsable unit yields a single request whose analysis will
    produce an error payload, so a broken file degrades to one error
    row in the batch report instead of aborting the whole run.
    """
    from repro.ir import build_program

    try:
        program = build_program(source)
    except ReproError:
        return [AnalysisRequest(name=label, source=source, method=method)]
    names = sorted(program.functions)
    if len(names) == 1:
        return [AnalysisRequest(name=label, source=source, function=names[0], method=method)]
    return [
        AnalysisRequest(name=f"{label}:{fn}", source=source, function=fn, method=method)
        for fn in names
    ]
