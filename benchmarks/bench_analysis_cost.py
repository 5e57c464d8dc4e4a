"""TAB-COST — compile-time cost of the analysis per corpus kernel.

The paper argues compile-time analysis beats inspector/executor schemes
because it has *zero runtime overhead*; the flip side is compile-time
cost, quantified here: wall-clock per kernel for the full pipeline
(parse → IR → two-phase analysis → dependence tests → planning), driven
through the batch service (:mod:`repro.service`).

Per-kernel timings use a fresh cache *and* cleared memo tables so they
measure *cold* analysis — since the hash-consed symbolic core, a fresh
``ResultCache`` alone is not cold: the expression memos, the prover
memos and the plan memo all survive across engines in one process.
The summary sweep runs one cold batch and prints the engine's own
timing table.

The committed snapshot lives in ``BENCH_analysis.json``; regenerate it
with ``PYTHONPATH=src python -m repro bench --analysis --json
BENCH_analysis.json`` (see :mod:`repro.analysis.bench`).
"""

from __future__ import annotations

import pytest

from repro.service import AnalysisRequest, BatchEngine, ResultCache
from repro.symbolic.expr import clear_memo_tables
from repro.utils.tables import Table

KERNEL_NAMES = [
    "fig2_ua_injective",
    "fig3_cg_monotonic",
    "fig4_cg_monodiff",
    "fig5_csparse_subset",
    "fig6_csparse_simul",
    "fig7_ua_simul_inj",
    "fig8_ua_disjoint",
    "fig9_csr_product",
]


def _request(kernels, name: str) -> AnalysisRequest:
    return AnalysisRequest(name=name, source=kernels[name].source, kernel=name)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_analysis_cost(benchmark, kernels, name):
    k = kernels[name]
    req = _request(kernels, name)

    def pipeline():
        # fresh cache + cleared memos: measure the cold pipeline, not a
        # cache or memo lookup
        clear_memo_tables()
        return BatchEngine(cache=ResultCache()).analyze(req)

    verdict = benchmark(pipeline)
    assert verdict.ok
    assert (k.target_loop in verdict.parallel_loops) == k.expect_parallel


def test_analysis_cost_summary(benchmark, kernels):
    requests = [_request(kernels, name) for name in KERNEL_NAMES]

    def sweep():
        clear_memo_tables()
        return BatchEngine(cache=ResultCache()).run(requests)

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    t = Table(["kernel", "pipeline ms"], title="Compile-time cost (single cold batch)")
    for v in report.verdicts:
        t.add_row(v.name, f"{v.seconds * 1e3:.1f}")
    print()
    print(t.render())
