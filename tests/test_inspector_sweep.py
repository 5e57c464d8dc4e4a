"""Metamorphic soundness sweep of the hybrid-tier runtime inspector.

Start from the disjoint-sharing kernels (two scatter segments into one
shared array through parameter-stride index maps; the inspector passes
them on every input the generator draws) and plant duplicates at seeded
random positions of their index maps.  Whatever the inspector then
answers, a PARALLEL answer must be right: the dynamic oracle must find
no cross-iteration conflict in that loop on those inputs.  The sweep is
deterministic, and it must both pass and refuse, or it would hold
vacuously.
"""

from __future__ import annotations

import numpy as np

from repro.ir import build_function
from repro.runtime import compile_parallel, run_function
from repro.runtime.inspector import inspect
from repro.runtime.oracle import check_loop_independence
from repro.workloads import generators

SEEDS = range(16)
#: input seeds per kernel, and duplicates planted into each input
INPUT_SEEDS = range(3)
PLANTS = (0, 1, 2)


def _scatter_only(source: str) -> str:
    """The kernel without the loops that fill its index maps, so the
    maps (and any duplicate planted in them) are inputs: ``L1`` scatters
    through ``offa`` and ``L2`` through ``offb``."""
    fills = ("{ offa[i] =", "{ offb[i] =")
    return "\n".join(ln for ln in source.splitlines() if not any(f in ln for f in fills))


def _copy(env: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def test_inspector_parallel_answers_are_oracle_clean():
    seen = {"parallel": 0, "refused": 0, "planted": 0}
    for seed in SEEDS:
        kernel = generators.disjoint_sharing_kernel(seed)
        func = build_function(_scatter_only(kernel.source))
        pf = compile_parallel(func, tier="hybrid")
        assert set(pf.inspectors) == {"L1", "L2"}, kernel.name
        full = build_function(kernel.source)
        for input_seed in INPUT_SEEDS:
            filled = kernel.make_inputs(input_seed)
            run_function(full, filled)  # the maps the kernel itself builds
            rng = np.random.default_rng([seed, input_seed])
            for plants in PLANTS:
                env = _copy(filled)
                n = env["n"]
                for _ in range(plants):
                    index_map = env[str(rng.choice(["offa", "offb"]))]
                    src, dst = rng.choice(n, size=2, replace=False)
                    index_map[dst] = index_map[src]
                seen["planted"] += plants
                for label in ("L1", "L2"):
                    res = inspect(pf.inspectors[label], env, pf.fingerprint, 0, n)
                    if not res.parallel:
                        seen["refused"] += 1
                        continue
                    seen["parallel"] += 1
                    report = check_loop_independence(func, _copy(env), label)
                    assert report.independent, (
                        f"{kernel.name} input {input_seed} with {plants} planted "
                        f"duplicate(s): the inspector passed {label}, the oracle "
                        f"found {report.describe()}"
                    )
    assert seen["parallel"] >= 100 and seen["refused"] >= 50, seen
