#!/usr/bin/env python3
"""NPB CG end to end: generate the matrix, run the benchmark, and show
why the paper's technique matters for this code.

1. builds a (size-scaled) NPB CG class matrix with the Figure-9-shaped
   CSR assembly loops;
2. runs the NPB CG driver (zeta estimation) and prints the convergence;
3. runs the compiler on the CG kernels: the extended Range Test
   parallelizes the subscripted-subscript loops, every baseline fails;
4. measures the parallel engine running the CG product loop the
   transformation enables, against the compiled serial engine, on this
   machine.

Run:  python examples/cg_pipeline.py
"""

import numpy as np

from repro.corpus import all_kernels
from repro.evaluation import measure_figure10, render_measured
from repro.service import AnalysisRequest, BatchEngine
from repro.utils.tables import Table
from repro.workloads import build_matrix, cg_benchmark, scaled_class


def main() -> None:
    cls = scaled_class("A", 0.05, niter=8)  # Python-speed slice of Class A
    print(f"building CG matrix: na={cls.na}, nonzer={cls.nonzer}, shift={cls.shift}")
    A = build_matrix(cls, seed=42)
    print(f"  nnz = {A.nnz}, rowptr monotonic by construction")

    result = cg_benchmark(A, cls.niter, cls.shift)
    print(f"  zeta history: {['%.5f' % z for z in result.zeta_history[-4:]]}")
    print(f"  final residual: {result.residual:.2e}")

    print()
    print("compiler verdicts on the CG kernels (paper Figures 3, 4, 9):")
    # one batch per dependence method, all through the cached service
    names = ("fig3_cg_monotonic", "fig4_cg_monodiff", "fig9_csr_product")
    kernels = all_kernels()
    methods = ("gcd", "banerjee", "range", "extended")
    reports = {
        method: BatchEngine(method=method).run(
            AnalysisRequest(name=n, source=kernels[n].source, method=method, kernel=n)
            for n in names
        )
        for method in methods
    }
    t = Table(["kernel", *methods])
    for name in names:
        k = kernels[name]
        row = [name]
        for method in methods:
            verdict = reports[method].verdict(name)
            row.append("PARALLEL" if k.target_loop in verdict.parallel_loops else "serial")
        t.add_row(*row)
    print(t.render())

    print()
    print(render_measured(measure_figure10()))


if __name__ == "__main__":
    main()
