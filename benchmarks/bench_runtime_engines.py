"""RUNTIME — compiled closure engine vs tree-walking interpreter.

The oracle/fuzz path (dynamic independence inspection) is the repo's
dominant dynamic cost; this harness pins the compiled backend's speedup
over the reference interpreter on the three representative kernel shapes
of :mod:`repro.runtime.bench` plus the differential-fuzz sweep, and
asserts the engines agree on every verdict.

The committed snapshot lives at ``BENCH_runtime.json`` (repo root);
regenerate it with::

    PYTHONPATH=src python -m repro bench --json BENCH_runtime.json

Acceptance floor (PR 2): geomean compiled-vs-interp oracle speedup ≥ 5x.
"""

from __future__ import annotations

from repro.ir import build_function
from repro.runtime.bench import (
    BENCH_KERNELS,
    check_regression,
    measure_oracle_throughput,
    render,
    run_runtime_bench,
)

#: smaller than the CLI default so the benchmark suite stays quick; the
#: committed BENCH_runtime.json uses the CLI default size
BENCH_SIZE = 8000


def test_runtime_engines_speedup(benchmark):
    doc = run_runtime_bench(size=BENCH_SIZE, repeats=2, fuzz_seeds=10)
    print()
    print(render(doc))
    # the pytest-benchmark series tracks the compiled oracle on the
    # heaviest kernel shape
    src, label, env_builder = BENCH_KERNELS["csr_segment_walk"]
    func = build_function(src)
    benchmark.pedantic(
        lambda: measure_oracle_throughput(
            func, lambda: env_builder(BENCH_SIZE), label, engine="compiled", repeats=1
        ),
        rounds=1,
        iterations=1,
    )
    # correctness: identical verdicts everywhere
    assert check_regression(doc, min_speedup=1.0) == []
    # acceptance: ≥5x on the oracle path (geomean across kernel shapes)
    assert doc["summary"]["oracle_geomean_speedup"] >= 5.0, doc["summary"]


def test_fuzz_sweep_faster_and_agreeing(benchmark):
    doc = benchmark.pedantic(
        lambda: run_runtime_bench(size=2000, repeats=1, fuzz_seeds=10, kernels=["scatter_filled"]),
        rounds=1,
        iterations=1,
    )
    fs = doc["fuzz_sweep"]
    assert fs["verdicts_agree"]
    # generous: compiled must simply not be slower on the fuzz path
    assert fs["speedup"] > 1.0, fs
