"""The hybrid-tier inspector reads subscripts and guards as sequential
execution does, past int64 too.

Sequential execution computes with Python ints, which never wrap; the
inspector evaluates one int64 lane per iteration.  A loop variable,
scalar, product or array value that may leave int64 must make the
inspection inconclusive (the loop runs serially), never let a wrapped
value hide a lane from a guard.  Each kernel below has a real
cross-iteration conflict (``idx[700] == idx[5]``) on a lane that a
wrapped guard would drop.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.ir import build_function
from repro.runtime import compile_parallel, execute, run_function
from repro.runtime.inspector import inspect
from repro.service import faults

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

N = 1000

#: the loop variable runs past 2^63 - 1: wrapped, ``i > 0`` would drop
#: every lane from 500 on
LOOPVAR_SRC = """
void f(int a[], int idx[], int lb, int n)
{
    int i;
    for (i = lb; i < lb + n; i++) { if (i > 0) { a[idx[i - lb]] = i - lb; } }
}
"""

#: the same loop variable through ``%``, which cannot overflow: only
#: the loop variable's own vector can drop lane 697 (``i % n == 700``)
LOOPVAR_MOD_SRC = """
void f(int a[], int idx[], int lb, int n)
{
    int i;
    for (i = lb; i < lb + n; i++) { if (i > 0) { a[idx[i % n]] = i - lb; } }
}
"""

#: ``i * K`` leaves int64 from i = 2: wrapped, lane 700 reads 0
PRODUCT_SRC = """
void f(int a[], int idx[], int K, int n)
{
    int i;
    for (i = 0; i < n; i++) { if (i * K > 0) { a[idx[i]] = i; } }
}
"""

#: a scalar outside int64 in a guard
SCALAR_SRC = """
void f(int a[], int idx[], int off, int n)
{
    int i;
    for (i = 0; i < n; i++) { if (off > 0) { a[idx[i]] = i; } }
}
"""

#: a quotient of two int64 scalars that leaves int64: -2^63 / -1
QUOTIENT_SRC = """
void f(int a[], int idx[], int s, int t, int n)
{
    int i;
    for (i = 0; i < n; i++) { if (s / t > 0) { a[idx[i]] = i; } }
}
"""

#: an unsigned 64-bit array value past 2^63 - 1: wrapped, it is negative
UINT64_SRC = """
void f(int a[], int idx[], int big[], int n)
{
    int i;
    for (i = 0; i < n; i++) { if (big[i] > 0) { a[idx[i]] = i; } }
}
"""


def _env(**extra) -> dict:
    idx = np.arange(N, dtype=np.int64)
    idx[700] = idx[5]
    return {"a": np.zeros(N, np.int64), "idx": idx, "n": N, **extra}


def _uint64_big() -> np.ndarray:
    big = np.zeros(N, np.uint64)
    big[5] = 1
    big[700] = 2**63
    return big


CASES = {
    "loop variable": (LOOPVAR_SRC, lambda: _env(lb=2**63 - 500), 2**63 - 500),
    "loop variable mod": (LOOPVAR_MOD_SRC, lambda: _env(lb=2**63 - 500), 2**63 - 500),
    "product": (PRODUCT_SRC, lambda: _env(K=2**62), 0),
    "scalar": (SCALAR_SRC, lambda: _env(off=2**64), 0),
    "quotient": (QUOTIENT_SRC, lambda: _env(s=-(2**63), t=-1), 0),
    "uint64 array": (UINT64_SRC, lambda: _env(big=_uint64_big()), 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_inspection_of_values_past_int64_is_not_parallel(case):
    src, make_env, lb = CASES[case]
    pf = compile_parallel(build_function(src), tier="hybrid")
    assert set(pf.inspectors) == {"L1"}
    res = inspect(pf.inspectors["L1"], make_env(), pf.fingerprint, lb, N)
    assert not res.parallel, res.describe()


@pytest.mark.parametrize("case", sorted(CASES))
def test_hybrid_execution_past_int64_equals_interp(case):
    if not HAVE_FORK:
        pytest.skip("the hybrid tier inspects only in front of a fabric dispatch (fork)")
    src, make_env, _ = CASES[case]
    func = build_function(src)
    ref = make_env()
    run_function(func, ref)
    env = make_env()
    execute(func, env, engine="parallel", tier="hybrid", workers=2)
    assert np.array_equal(env["a"], ref["a"])


@pytest.mark.parametrize("case", ["scalar", "quotient"])
def test_a_value_outside_int64_is_uninspectable_not_a_fault(case):
    """The inspection refuses the loop: no ``inspector:serial`` fallback
    note, no ``inspection_fallbacks``."""
    if not HAVE_FORK:
        pytest.skip("the hybrid tier inspects only in front of a fabric dispatch (fork)")
    src, make_env, _ = CASES[case]
    func = build_function(src)
    ref = make_env()
    run_function(func, ref)
    pf = compile_parallel(func, tier="hybrid")
    env = make_env()
    faults.drain_fallback_notes()
    # the guarded store has a vector plan: below VECTOR_MIN_TRIPS only an
    # explicit threshold puts it in front of the fabric and the inspector
    pf.run(env, workers=2, mp_min_trips=16)
    assert faults.drain_fallback_notes() == []
    c = pf.last_counters
    assert (c["inspections"], c["inspection_refusals"], c["inspection_fallbacks"]) == (1, 1, 0)
    assert np.array_equal(env["a"], ref["a"])


#: an index array the guarded store reads, and a guard that may hold on
#: no lane: with ``flag = 0`` sequential execution never reads ``e``
EMPTY_SRC = """
void f(int a[], int idx[], int e[], int flag, int n)
{
    int i;
    for (i = 0; i < n; i++) { if (flag > 0) { a[idx[i] + e[i]] = i; } }
}
"""


@pytest.mark.parametrize("flag,passes,refusals", [(0, 1, 0), (1, 0, 1)])
def test_an_empty_index_array_is_a_verdict_not_a_fault(flag, passes, refusals):
    """``e`` is empty.  Where no lane runs the store (``flag = 0``), no
    lane reads ``e`` and the inspection passes: there is nothing to
    separate, and the dispatch stores nothing, as the serial loop does.
    Where every lane does, the subscript into ``e`` is out of bounds and
    the inspection refuses; the serial loop then raises the interpreter's
    error.  Either way: no ``inspector:serial`` note, no
    ``inspection_fallbacks``."""
    if not HAVE_FORK:
        pytest.skip("the hybrid tier inspects only in front of a fabric dispatch (fork)")
    func = build_function(EMPTY_SRC)

    def outcome(run):
        env = _env(e=np.zeros(0, np.int64), flag=flag)
        try:
            run(env)
        except Exception as exc:  # noqa: BLE001 — compared with the interpreter's
            return (type(exc), str(exc)), env["a"]
        return None, env["a"]

    want_err, want_a = outcome(lambda env: run_function(func, env))
    pf = compile_parallel(func, tier="hybrid")
    faults.drain_fallback_notes()
    got_err, got_a = outcome(lambda env: pf.run(env, workers=2, mp_min_trips=16))
    assert faults.drain_fallback_notes() == []
    c = pf.last_counters
    assert (c["inspections"], c["inspection_passes"], c["inspection_refusals"], c["inspection_fallbacks"]) == (
        1, passes, refusals, 0
    )
    assert got_err == want_err and np.array_equal(got_a, want_a)
