"""FIG10 — CG speedups, Classes A/B/C × {2,4,6,8} threads (paper Fig 10).

Two series:

* **modeled** — the Kaby Lake R roofline/SMT/overhead model, printing
  the same rows the paper plots and asserting the curve shapes (Class A
  peaks at 6 threads with 8 only slightly above 4; B and C peak at 8;
  ~3.8× around 4 threads);
* **measured (parallel engine)** — the Figure-9 CG product loop run on
  the compiler's own parallel execution engine (workers ∈ {2, 4})
  against the compiled serial engine, skipped honestly on single-CPU
  hosts where a >1× speedup is physically unavailable.

Plus the headline: baselines parallelize nothing (sequential), the
extended test parallelizes all CG kernels — and, new in PR 2, those
PARALLEL verdicts are dynamically validated against the independence
oracle on the *compiled* runtime engine by default (set
``REPRO_ENGINE=interp`` to fall back to the reference interpreter).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.evaluation import (
    measure_figure10,
    render_measured,
    run_figure10,
    shape_checks,
)
from repro.evaluation.figure10 import CG_KERNELS
from repro.runtime import default_engine
from repro.service import BatchEngine, corpus_requests, validate_parallel_verdicts


def test_fig10_modeled_speedups(benchmark):
    result = benchmark(run_figure10)
    print()
    print(result.render())
    problems = shape_checks(result)
    assert problems == [], problems


def test_fig10_cg_verdicts_oracle_validated(benchmark):
    """The CG kernels' parallel verdicts hold up dynamically: the batch
    service's oracle spot-check (compiled engine unless REPRO_ENGINE
    says otherwise) finds no conflicting declared-parallel loop."""
    engine = BatchEngine()
    report = engine.run(
        r for r in corpus_requests() if r.name in CG_KERNELS
    )
    problems = benchmark(validate_parallel_verdicts, report)
    print()
    print(f"oracle engine: {default_engine()}; kernels: {', '.join(CG_KERNELS)}")
    assert problems == {}, problems
    assert any(v.parallel_loops for v in report.verdicts)  # something was actually checked


@pytest.mark.measured
def test_fig10_measured_parallel_engine(benchmark):
    """Measured series on the compiler's own execution path: the CG
    product loop, planned + scheduled + executed by the parallel
    engine, vs the compiled serial engine at 2 and 4 workers."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(
            f"host has {cpus} cpu(s); a measured parallel speedup > 1x "
            "needs at least 2 — the modeled series covers the curve shape"
        )
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("multiprocessing strategy needs the fork start method")

    def measure():
        return measure_figure10(workers=(2, 4), nrows=8000, repeats=3)

    points = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(render_measured(points))
    # genuine scaling of the loop the compiler transformed, through its
    # own execution path
    assert max(p.speedup for p in points) > 1.2
