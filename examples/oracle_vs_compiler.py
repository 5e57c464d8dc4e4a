#!/usr/bin/env python3
"""Compiler vs oracle: why *compile-time* properties beat runtime checks.

The dynamic oracle can certify independence only for the input it saw;
the paper's point is that the *filling code* guarantees the property for
every input.  This example shows all three situations:

1. Figure 9: the compiler derives monotonicity from the filling code —
   parallel for every input, and the oracle agrees on random inputs;
2. the bare product loop without its filling code: the compiler refuses
   (sound), although the oracle can pass for benign inputs;
3. a corrupted rowptr fed to the bare loop: the oracle exposes the
   conflicts the compiler refused to rule out.

The oracle runs on the compiled closure engine by default; pass
``--engine interp`` to fall back to the reference tree-walking
interpreter — the verdicts are identical, only the inspection speed
differs.

Run:  python examples/oracle_vs_compiler.py [--engine compiled|interp]
"""

import argparse

import numpy as np

from repro.corpus import all_kernels
from repro.ir import build_function
from repro.runtime import check_loop_independence
from repro.service import BatchEngine
from repro.workloads.generators import corrupted_rowptr, monotonic_rowptr

BARE_LOOP = """
void bare(int n, int rowptr[], int v[], int out[])
{
    int i, j, j1;
    for (i = 0; i < n + 1; i++) {
        if (i == 0) { j1 = i; } else { j1 = rowptr[i-1]; }
        for (j = j1; j < rowptr[i]; j++) {
            out[j] = v[j];
        }
    }
}
"""


def bare_env(rowptr):
    size = int(max(rowptr)) + 8
    return {
        "n": len(rowptr) - 2,
        "rowptr": rowptr,
        "v": np.arange(size, dtype=np.int64),
        "out": np.zeros(size, dtype=np.int64),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--engine",
        default=None,
        choices=["compiled", "interp"],
        help="oracle execution engine (default: compiled)",
    )
    args = ap.parse_args()
    from repro.runtime import resolve_engine

    oracle_engine = resolve_engine(args.engine)
    print(f"(oracle engine: {oracle_engine})")
    engine = BatchEngine()  # compiler verdicts flow through the batch service

    # 1. full Figure 9: derivation succeeds
    k = all_kernels()["fig9_csr_product"]
    out = engine.analyze_source(k.source, name="fig9")
    print("Figure 9 with filling code:")
    print(f"  compiler: product loop {'PARALLEL' if k.target_loop in out.parallel_loops else 'serial'}")
    func = build_function(k.source)
    for seed in (0, 1, 2):
        rep = check_loop_independence(func, k.make_inputs(seed), k.target_loop, engine=oracle_engine)
        print(f"  oracle(seed={seed}): {'independent' if rep.independent else 'CONFLICTS'}")

    # 2. bare loop: compiler refuses without the property's provenance
    print()
    print("bare product loop (no filling code, no assertions):")
    out2 = engine.analyze_source(BARE_LOOP, name="bare")
    print(f"  compiler: {'PARALLEL' if 'L1' in out2.parallel_loops else 'serial (sound refusal)'}")
    bare = build_function(BARE_LOOP)
    good = np.concatenate([monotonic_rowptr(8, seed=5), [monotonic_rowptr(8, seed=5)[-1]]])
    rep = check_loop_independence(bare, bare_env(good), "L1", engine=oracle_engine)
    print(f"  oracle on a benign input: {'independent' if rep.independent else 'CONFLICTS'}")

    # 3. corrupted input: the oracle shows what the compiler was guarding against
    bad = np.concatenate([corrupted_rowptr(8, seed=5), [corrupted_rowptr(8, seed=5)[-1]]])
    rep_bad = check_loop_independence(bare, bare_env(bad), "L1", engine=oracle_engine)
    print(f"  oracle on a corrupted rowptr: {'independent' if rep_bad.independent else 'CONFLICTS'}")
    for c in rep_bad.conflicts[:3]:
        print(f"    {c.describe()}")


if __name__ == "__main__":
    main()
