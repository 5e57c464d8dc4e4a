"""Analysis-cost benchmark: how fast is the static analyzer itself.

This is the harness behind ``repro bench --analysis`` and the committed
``BENCH_analysis.json`` snapshot.  The headline metric is the **cold
corpus sweep**: one uncached :class:`~repro.service.engine.BatchEngine`
run over every built-in corpus kernel, with all memo tables cleared
first (:func:`~repro.symbolic.expr.clear_memo_tables`) so the number
measures the full parse → IR → two-phase analysis → dependence-test →
planning pipeline and not a lookup.  The one-time source-tree digest of
:func:`~repro.service.cache.analyzer_version` is warmed *outside* the
timed region — it is a cache-infrastructure cost, not an analysis cost.

Reproduce the committed file with a single command::

    PYTHONPATH=src python -m repro bench --analysis --json BENCH_analysis.json

Timings vary with the host; the verdict fields and table shapes are
deterministic.  ``--check`` (the CI analysis perf-smoke gate) exits
non-zero when the sweep exceeds a generous absolute budget — a
catastrophic-regression trip-wire, deliberately loose so shared CI
runners do not flap.

Reading ``BENCH_analysis.json``:

* ``corpus_sweep`` — cold-sweep seconds (best / median of ``repeats``)
  and kernels/s, the headline numbers tracked across PRs;
* ``warm_sweep`` — the same sweep in the warm process: a fresh
  ``ResultCache``, so every kernel is re-analyzed, with the expression
  memos and the plan memo kept from the cold rounds;
* ``per_kernel`` — cold per-kernel milliseconds from the engine's own
  timing of the final round;
* ``stages`` — the cold pipeline split by stage: milliseconds spent in
  ``parse_function``, ``build_function``, ``analyze_function`` and
  ``plan_function``, summed over the corpus with the memo tables cleared
  before each kernel (median of ``repeats`` runs per stage);
* ``memo`` / ``intern`` — hit rates and table sizes
  after a cold sweep (how much sharing hash-consing actually buys);
* ``baseline`` — the pre-hash-consing measurement this PR is judged
  against (same protocol, same host class).
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from typing import Any

COMMAND = "PYTHONPATH=src python -m repro bench --analysis --json BENCH_analysis.json"

#: Pre-PR reference: the identical protocol (cold BatchEngine sweep over
#: the full corpus, memo tables cleared, tree digest pre-warmed) run at
#: commit 585d528, immediately before the hash-consed symbolic core.
BASELINE = {
    "commit": "585d528",
    "corpus_sweep_seconds_median": 0.1552,
    "corpus_sweep_seconds_best": 0.1538,
}


#: the pipeline stages ``stages`` splits a cold corpus compile into
STAGES = ("parse_function", "build_function", "analyze_function", "plan_function")


def _stage_ms(method: str) -> dict[str, float]:
    """Milliseconds per stage, summed over the corpus, each kernel from
    cold memo tables."""
    from repro.analysis import analyze_function
    from repro.corpus import all_kernels
    from repro.frontend import parse_function
    from repro.ir import build_function
    from repro.parallelizer import plan_function
    from repro.symbolic.expr import clear_memo_tables

    totals = dict.fromkeys(STAGES, 0.0)
    for _, k in sorted(all_kernels().items()):
        assertions = k.assertion_env()
        clear_memo_tables()
        t0 = time.perf_counter()
        ast = parse_function(k.source)
        t1 = time.perf_counter()
        func = build_function(ast)
        t2 = time.perf_counter()
        analysis = analyze_function(func, assertions)
        t3 = time.perf_counter()
        plan_function(func, analysis, method=method)
        t4 = time.perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            totals[stage] += dt * 1e3
    return totals


def run_analysis_bench(repeats: int = 5, method: str = "extended") -> dict[str, Any]:
    """Measure the cold and warm corpus sweeps; return the JSON-ready
    document."""
    from repro.service.cache import ResultCache, analyzer_version
    from repro.service.engine import BatchEngine, corpus_requests
    from repro.symbolic.expr import clear_memo_tables, intern_stats, memo_stats

    reqs = corpus_requests(method)
    analyzer_version()  # warm the one-time source-tree digest
    repeats = max(1, repeats)

    cold: list[float] = []
    report = None
    for _ in range(repeats):
        clear_memo_tables()
        engine = BatchEngine(cache=ResultCache())
        t0 = time.perf_counter()
        report = engine.run(reqs)
        cold.append(time.perf_counter() - t0)
    memo = memo_stats()

    warm: list[float] = []
    for _ in range(repeats):
        engine = BatchEngine(cache=ResultCache())
        t0 = time.perf_counter()
        engine.run(reqs)
        warm.append(time.perf_counter() - t0)

    stage_runs = [_stage_ms(method) for _ in range(repeats)]

    assert report is not None
    cold_median = statistics.median(cold)
    warm_median = statistics.median(warm)
    lookups = memo["hits"] + memo["misses"]
    command = COMMAND
    if repeats != 5:
        command = command.replace("--analysis", f"--analysis --repeats {repeats}")
    doc: dict[str, Any] = {
        "command": command,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "params": {"repeats": repeats, "method": method, "kernels": len(reqs)},
        "corpus_sweep": {
            "seconds_best": round(min(cold), 4),
            "seconds_median": round(cold_median, 4),
            "kernels": len(reqs),
            "kernels_per_s": round(len(reqs) / cold_median, 1),
        },
        "warm_sweep": {
            "seconds_best": round(min(warm), 4),
            "seconds_median": round(warm_median, 4),
            "speedup_vs_cold": round(cold_median / warm_median, 2)
            if warm_median > 0
            else 0.0,
        },
        "per_kernel": [
            {"name": v.name, "ms": round(v.seconds * 1e3, 2)}
            for v in report.verdicts
        ],
        "stages": {
            stage: round(statistics.median(run[stage] for run in stage_runs), 2)
            for stage in STAGES
        },
        "memo": {
            "hits": memo["hits"],
            "misses": memo["misses"],
            "hit_rate": round(memo["hits"] / lookups, 3) if lookups else 0.0,
            "tables": memo["tables"],
        },
        "intern": intern_stats(),
        "baseline": dict(BASELINE),
    }
    doc["summary"] = {
        "corpus_sweep_seconds": doc["corpus_sweep"]["seconds_median"],
        "speedup_vs_baseline": round(
            BASELINE["corpus_sweep_seconds_median"] / cold_median, 2
        )
        if cold_median > 0
        else 0.0,
        "verdicts_ok": all(v.ok for v in report.verdicts),
    }
    return doc


def check_regression(doc: dict[str, Any], max_sweep_seconds: float = 1.0) -> list[str]:
    """CI gate: the cold corpus sweep must stay inside an absolute budget
    (loose on purpose — shared runners are noisy; this catches an
    order-of-magnitude regression, not jitter) and every corpus verdict
    must still come back clean."""
    problems: list[str] = []
    seconds = doc["corpus_sweep"]["seconds_median"]
    if seconds > max_sweep_seconds:
        problems.append(
            f"cold corpus sweep {seconds}s > budget {max_sweep_seconds}s"
        )
    if not doc["summary"]["verdicts_ok"]:
        problems.append("corpus sweep produced a failing verdict")
    return problems


def render(doc: dict[str, Any]) -> str:
    """Human-readable summary table."""
    from repro.utils.tables import Table

    t = Table(
        ["kernel", "cold ms"],
        title=f"analysis cost — cold pipeline per kernel ({doc['params']['kernels']} kernels)",
    )
    for e in doc["per_kernel"]:
        t.add_row(e["name"], f"{e['ms']:.1f}")
    sweep = doc["corpus_sweep"]
    warm = doc["warm_sweep"]
    memo = doc["memo"]
    lines = [t.render()]
    lines.append(
        f"cold corpus sweep: {sweep['seconds_median'] * 1e3:.1f} ms median "
        f"({sweep['seconds_best'] * 1e3:.1f} ms best) — "
        f"{sweep['kernels_per_s']:.0f} kernels/s"
    )
    lines.append(
        f"warm corpus sweep: {warm['seconds_median'] * 1e3:.1f} ms median — "
        f"{warm['speedup_vs_cold']:.2f}x vs cold"
    )
    lines.append(
        "cold stages (ms over the corpus): "
        + " | ".join(f"{stage} {doc['stages'][stage]:.1f}" for stage in STAGES)
    )
    lines.append(
        f"expr memo hit rate: {memo['hit_rate'] * 100:.1f}% "
        f"({memo['hits']} hits / {memo['misses']} misses)"
    )
    lines.append(
        f"speedup vs pre-hash-consing baseline ({doc['baseline']['commit']}): "
        f"{doc['summary']['speedup_vs_baseline']:.2f}x"
    )
    return "\n".join(lines)


def to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


__all__ = [
    "BASELINE",
    "COMMAND",
    "STAGES",
    "check_regression",
    "render",
    "run_analysis_bench",
    "to_json",
]
