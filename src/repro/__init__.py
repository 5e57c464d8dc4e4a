"""repro — full reproduction of *Compile-time Parallelization of
Subscripted Subscript Patterns* (Bhosale & Eigenmann, 2020).

The package implements, from scratch:

* a mini-C frontend and loop IR (:mod:`repro.frontend`, :mod:`repro.ir`);
* the symbolic range algebra with λ/Λ/⊥ and a monotonicity-aware prover
  (:mod:`repro.symbolic`);
* the paper's two-phase aggregation analysis that derives index-array
  properties from the filling code (:mod:`repro.analysis`);
* classic dependence tests plus the extended Range Test
  (:mod:`repro.dependence`);
* the automatic parallelizer emitting annotated C
  (:mod:`repro.parallelizer`);
* a runtime substrate — reference interpreter, a closure-compiled
  engine with batched NumPy tracing, and a parallel engine that runs
  the proven-parallel loops on a persistent worker fabric
  (``engine="interp"|"compiled"|"parallel"``), dynamic independence
  oracle, machine model (:mod:`repro.runtime`, CLI: ``repro bench``);
* workloads (NPB CG, UA, CSparse equivalents), the figure corpus, the
  Section-2 study and the Figure-10 evaluation harness;
* a batch analysis service with content-addressed result caching and
  parallel workers (:mod:`repro.service`, CLI: ``repro batch``).

Quickstart::

    from repro import parallelize
    out = parallelize(C_SOURCE)
    print(out.annotated_c)
"""

from repro.analysis import PropertyEnv, analyze_function, render_trace
from repro.dependence import compare_methods, test_loop
from repro.ir import build_function, build_program, function_to_c
from repro.parallelizer import parallelize
from repro.runtime import check_loop_independence, compile_function, execute, run_function

__version__ = "1.1.0"

__all__ = [
    "PropertyEnv",
    "analyze_function",
    "build_function",
    "build_program",
    "check_loop_independence",
    "compare_methods",
    "compile_function",
    "execute",
    "function_to_c",
    "parallelize",
    "render_trace",
    "run_function",
    "test_loop",
    "__version__",
]
