"""Parity of the compiled engine's specialized closures with the
reference interpreter.

Lowering specializes every array access by the shape of its subscripts
(a variable, a variable ± a constant, any other expression; one, two,
or more dimensions), every ``+ - *`` and comparison by a constant right
operand, and every counted loop by whether a trace observes it.  Each
specialization must fail exactly as the interpreter fails — same
exception class, same message, same partial effects, same environment
bindings — on the compiled engine, on the parallel engine, and on the
parallel engine's fabric leg (``workers=2, mp_min_trips=1``).  The
observed and plain iteration loops are pinned untraced and traced, row
for row against the interpreter's recorder.
"""

from __future__ import annotations

import math
import multiprocessing

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.ir import build_function
from repro.runtime import (
    compile_function,
    compile_parallel,
    execute,
    fabric_stats,
    run_compiled,
    run_function,
    run_parallel,
)
from repro.runtime.engines import first_divergence
from repro.service import faults

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

RUNNERS = {
    "compiled": run_compiled,
    "parallel": run_parallel,
}
if HAVE_FORK:
    RUNNERS["fabric"] = lambda func, env: run_parallel(func, env, workers=2, mp_min_trips=1)

_DROP = object()


def _copy(env):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def _outcome(run, func, env):
    """``(error, env)`` after ``run(func, env)``: the exception's class
    and message (``None`` on success) and the environment it left."""
    env = _copy(env)
    try:
        run(func, env)
    except Exception as exc:  # noqa: BLE001 — the class is what is compared
        return (type(exc), str(exc)), env
    return None, env


def _assert_env_same(want, got, context):
    assert got.keys() == want.keys(), context
    for name, a in want.items():
        b = got[name]
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray), f"{context}: {name}"
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{context}: array {name}"
        else:
            assert type(a) is type(b) and a == b, f"{context}: {name} {a!r} vs {b!r}"


def _fabric_replays(func):
    """Activations that a program error ended on the fabric in the last
    parallel run of ``func``: where the interpreter raises nothing, a
    chunk that raised can only be a fault of the worker's own closures,
    which the serial replay would hide."""
    return compile_parallel(func).last_counters["program_replays"]


def _assert_parity(func, env, context):
    """Every runner fails (or succeeds) exactly as the interpreter does;
    returns the interpreter's error."""
    want_err, want_env = _outcome(run_function, func, env)
    for name, run in RUNNERS.items():
        got_err, got_env = _outcome(run, func, env)
        assert got_err == want_err, f"{context} [{name}]"
        _assert_env_same(want_env, got_env, f"{context} [{name}]")
        if name == "fabric" and want_err is None:
            assert _fabric_replays(func) == 0, f"{context} [{name}]"
    return want_err


# --------------------------------------------------------------------------
# access shapes × failures
# --------------------------------------------------------------------------

#: ``a`` and ``b`` hold N elements and ``g`` is 3 x 4; ``b`` is a
#: permutation, so ``a[b[v]]`` is in bounds wherever ``v`` is
N = 40

_KERNEL = """
void f(int a[], int b[], int g[][4], int out[], int lo, int hi, int s, int x, int y)
{{
    int k;
    out[N1] = 7;
    for (k = {init}; {cond}; {step}) {{
        {body};
    }}
}}
""".replace("N1", str(N + 1))

#: name -> (access template over the subscript variable ``{v}``, the
#: array it indexes, the dimension ``{v}`` indexes, ``{v}``'s offset in
#: that dimension, or None when ``{v}`` reaches it through ``b``)
SHAPES = {
    "var": ("a[{v}]", "a", 0, 0),
    "plus": ("a[{v} + 1]", "a", 0, 1),
    "minus": ("a[{v} - 1]", "a", 0, -1),
    "subsub": ("a[b[{v}]]", "a", 0, None),
    "grid_row": ("g[{v}][y]", "g", 0, 0),
    "grid_col": ("g[x][{v}]", "g", 1, 0),
    "grid_col_plus": ("g[x][{v} + 1]", "g", 1, 1),
    "add_const": ("a[{v}] + 3", "a", 0, 0),
    "sub_const": ("a[{v} + 1] - 3", "a", 0, 1),
    "mul_const": ("a[{v} - 1] * 3", "a", 0, -1),
    "lt_const": ("a[b[{v}]] < 50", "a", 0, None),
    "ne_const": ("g[{v}][y] != 5", "g", 0, 0),
}


def _base_env():
    rng = np.random.default_rng(7)
    return {
        "a": np.arange(N, dtype=np.int64) * 3,
        "b": rng.permutation(N).astype(np.int64),
        "g": np.arange(12, dtype=np.int64).reshape(3, 4),
        "out": np.zeros(N + 2, np.int64),
        "lo": 0,
        "hi": N,
        "s": 2,
        "x": 1,
        "y": 2,
    }


def _size(env, array, dim):
    return env[array].shape[dim]


def _aim(env, shape, index):
    """Make the scalar subscript ``s`` of ``shape`` land on ``index``."""
    _, _, _, offset = SHAPES[shape]
    if offset is None:
        env["s"] = 0
        env["b"] = env["b"].astype(type(index) if isinstance(index, float) else np.int64)
        env["b"][0] = index
    else:
        env["s"] = index - offset


def _failures(shape):
    """name -> env overrides applied to :func:`_base_env` (``s`` is the
    subscript variable; the loop runs its full range)."""
    _, array, dim, offset = SHAPES[shape]
    size = _size(_base_env(), array, dim)
    cases = {
        "unbound_var": {"s": _DROP},
        "unbound_array": {array: _DROP},
        "scalar_not_array": {array: 5},
        "rank_mismatch": {array: np.zeros((2, 2, 2), np.int64)},
        "below_zero": ("aim", -1),
        "past_end": ("aim", size),
        "last_in_bounds": ("aim", size - 1),
        "float_integral": ("aim", 2.0),
        "float_fractional": ("aim", 2.5),
        # two failures at once: the interpreter's check order decides
        "unbound_array_and_var": {array: _DROP, "s": _DROP},
        "scalar_not_array_and_float": {array: 5, "s": 2.5},
        "rank_mismatch_and_float": {array: np.zeros((2, 2, 2), np.int64), "s": 2.5},
        "rank_mismatch_and_past_end": {array: np.zeros((2, 2, 2), np.int64), "s": 99},
    }
    if offset is None:
        cases["unbound_inner_array"] = {"b": _DROP}
        cases["inner_below_zero"] = {"s": -1}
    if array == "g":
        # the other dimension out of bounds too
        other = "y" if dim == 0 else "x"
        cases["other_dim_past_end"] = {other: _size(_base_env(), "g", 1 - dim)}
        cases["other_dim_below_zero"] = {other: -1}
        cases["rank_one"] = {"g": np.zeros(12, np.int64)}
        cases["both_dims_past_end"] = {"s": 99, other: 99}
        cases["rank_one_and_float"] = {"g": np.zeros(12, np.int64), other: 1.5}
    return cases


def _env_for(shape, failure):
    env = _base_env()
    over = _failures(shape)[failure]
    if isinstance(over, tuple):
        _aim(env, shape, over[1])
        return env
    for k, v in over.items():
        if v is _DROP:
            del env[k]
        else:
            env[k] = v
    return env


_CASES = [(shape, failure) for shape in SHAPES for failure in _failures(shape)]


@pytest.mark.parametrize("shape,failure", _CASES)
def test_read_through_a_scalar_subscript(shape, failure):
    template = SHAPES[shape][0]
    func = build_function(
        _KERNEL.format(
            init="lo", cond="k < hi", step="k++", body="out[k] = " + template.format(v="s")
        )
    )
    _assert_parity(func, _env_for(shape, failure), f"read {shape}/{failure}")


@pytest.mark.parametrize("shape,failure", [c for c in _CASES if "const" not in c[0]])
def test_store_through_a_scalar_subscript(shape, failure):
    template = SHAPES[shape][0]
    func = build_function(
        _KERNEL.format(
            init="lo", cond="k < hi", step="k++", body=template.format(v="s") + " = k + 100"
        )
    )
    _assert_parity(func, _env_for(shape, failure), f"store {shape}/{failure}")


@pytest.mark.parametrize("trips", [5, N + 1])
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_loop_variable_subscript_fails_mid_loop(shape, descending, trips):
    """The subscript is the loop variable, which walks off the array
    mid-loop, upward past the end or downward below zero, after some
    iterations wrote ``out``: the partial effects must match, on the
    scalar path (5 trips) and after the vector path's fallback."""
    template, array, dim, _ = SHAPES[shape]
    env = _base_env()
    size = _size(env, array, dim)
    if descending:
        init, cond, step = "hi", "k >= lo", "k--"
        env["hi"], env["lo"] = min(trips, size) - 1, min(trips, size) - 1 - trips
    else:
        init, cond, step = "lo", "k < hi", "k++"
        env["lo"], env["hi"] = max(0, size - trips + 1), max(0, size - trips + 1) + trips
    if SHAPES[shape][3] is None:
        env["b"][N - 3] = N  # the gathered subscript leaves the array mid-loop
    bodies = ["out[k + 1] = " + template.format(v="k")]
    if "const" not in shape:
        bodies.append(template.format(v="k") + " = k * 2")
    for body in bodies:
        func = build_function(_KERNEL.format(init=init, cond=cond, step=step, body=body))
        _assert_parity(func, env, f"{shape} {body} {cond} trips={trips}")


# --------------------------------------------------------------------------
# constant-operand operators
# --------------------------------------------------------------------------

_OPS = ("+", "-", "*", "<", "<=", ">", ">=", "==", "!=")

_OP_KERNEL = """
void f(int out[], int lo, int hi, int z)
{{
    int k, t;
    t = 0;
    for (k = lo; k < hi; k++) {{
        t = z {op} {c};
        out[k] = k;
    }}
    out[0] = t;
}}
"""


_VALUES = {
    "int": 5,
    "neg": -3,
    "float": 2.5,
    "int64": np.int64(7),
    "float64": np.float64(-0.5),
    "bool": True,
    "array": np.arange(3),
    "unbound": _DROP,
}


def _op_parity(op, c, z, store):
    src = _OP_KERNEL.format(op=op, c=c)
    if not store:
        src = src.replace("out[0] = t;", "")
    env = {"out": np.zeros(N, np.int64), "lo": 0, "hi": 12}
    if z is not _DROP:
        env["z"] = z
    _assert_parity(build_function(src), env, f"z {op} {c} with z={z!r}")


@pytest.mark.parametrize("z", list(_VALUES))
@pytest.mark.parametrize("c", ["2", "0", "1.5"])
@pytest.mark.parametrize("op", _OPS)
def test_constant_right_operand(op, c, z):
    # an array result cannot be stored into out[0]: keep t out of it
    _op_parity(op, c, _VALUES[z], store=z != "array")


@pytest.mark.parametrize("z", ["abc", None], ids=["str", "none"])
@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_constant_right_operand_type_errors(op, z):
    """Arithmetic on a value outside the language's domain raises
    Python's own error, the same one on every engine.  (Comparisons are
    left out: the interpreter evaluates all six comparisons of a pair
    before picking one, so on such values it raises the ``<`` error,
    or fails an ``==`` the compiled closure answers.)"""
    _op_parity(op, "2", z, store=False)


# --------------------------------------------------------------------------
# counted loops, untraced and traced
# --------------------------------------------------------------------------

LOOPS = {
    "break": """
void f(int a[], int b[], int out[], int n)
{
    int i, j;
    for (i = 0; i < n; i++) {
        if (a[i] > 20) { break; }
        b[i] = a[i] + 1;
        for (j = 0; j < 4; j++) {
            if (j == i) { break; }
            out[j] = out[j] + i;
        }
    }
    out[5] = i;
    out[6] = j;
}
""",
    "continue": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (a[i] % 2 == 0) { continue; }
        b[i] = a[i] * 2;
    }
    out[5] = i;
}
""",
    "return": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (a[i] == 13) { return; }
        b[i] = 1;
    }
    out[5] = i;
}
""",
    "zero_trips": """
void f(int a[], int b[], int out[], int n)
{
    int i, j;
    for (i = n; i < n; i++) { b[i] = 1; }
    out[5] = i;
    for (j = n; j > n; j--) { b[j] = 2; }
    out[6] = j;
    for (i = 3; i < 1; i++) { b[i] = 3; }
    out[7] = i;
}
""",
    "negative_step": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = n - 1; i >= 0; i--) { b[i] = a[i] + 1; }
    out[5] = i;
    for (i = n - 1; i > 0; i--) { b[i] = b[i] + a[i - 1]; }
    out[6] = i;
}
""",
    "writes_loop_var": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        b[i] = a[i];
        if (a[i] % 3 == 0) { i = i + 1; }
    }
    out[5] = i;
    for (i = 0; i < n; i++) {
        if (a[i] == 4) { i = i + 2; break; }
    }
    out[6] = i;
}
""",
    "nested_same_var": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        b[i] = i;
        for (i = i; i < 2; i++) { out[i] = out[i] + 1; }
    }
    out[5] = i;
}
""",
}


#: non-unit strides: the planner gives such a loop a serial verdict
#: without analyzing it, so the parallel engine runs the compiled closure
STRIDED = {
    "stride_up": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = 1; i < n; i += 3) { b[i] = a[i - 1] + 1; }
    out[5] = i;
}
""",
    "stride_down": """
void f(int a[], int b[], int out[], int n)
{
    int i;
    for (i = n - 1; i > 0; i -= 3) {
        if (a[i] == 7) { continue; }
        b[i] = b[i] + a[i - 1];
    }
    out[5] = i;
}
""",
}


def _loop_env(n):
    rng = np.random.default_rng(n)
    return {
        "a": rng.integers(0, 25, size=max(n, 1)).astype(np.int64),
        "b": np.zeros(max(n, 1) + 2, np.int64),
        "out": np.zeros(8, np.int64),
        "n": n,
    }


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("name", list(LOOPS))
def test_loop_untraced(name, n):
    func = build_function(LOOPS[name])
    _assert_parity(func, _loop_env(n), f"{name} n={n}")


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("name", list(STRIDED))
def test_strided_loop(name, n):
    func = build_function(STRIDED[name])
    env = _loop_env(n)
    want_err, want_env = _outcome(run_function, func, env)
    for run in (run_compiled, lambda f, e: execute(f, e, engine="parallel")):
        got_err, got_env = _outcome(run, func, env)
        assert got_err == want_err
        _assert_env_same(want_env, got_env, f"{name} n={n}")
    label = func.loops()[0].label
    want = _interp_trace(func, env, label)
    got = _lowered_trace(compile_function(func), env, label)
    assert got[0] == want[0] and got[2] == want[2]


#: a PARALLEL outer loop (``private(j,s)``) around a strided inner loop:
#: the fabric leg runs the strided closure inside each worker's chunk
STRIDED_NESTS = {
    "nest_stride_up": """
void f(int a[], int b[], int out[], int n)
{
    int i, j, s;
    for (i = 0; i < n; i++) {
        s = 0;
        for (j = 0; j < 10; j += 3) { s = s + a[i + j]; }
        b[i] = s;
    }
    out[0] = i; out[1] = j; out[2] = s;
}
""",
    "nest_stride_down": """
void f(int a[], int b[], int out[], int n)
{
    int i, j, s;
    for (i = 0; i < n; i++) {
        s = i;
        for (j = 9; j > 0; j -= 2) {
            if (a[i + j] == 7) { continue; }
            s = s + a[i + j - 1];
        }
        b[i] = s;
    }
    out[0] = i; out[1] = j; out[2] = s;
}
""",
}


@pytest.mark.skipif(not HAVE_FORK, reason="the fabric leg needs fork")
@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("name", list(STRIDED_NESTS))
def test_strided_inner_loop_on_the_fabric(name, n):
    """Equal to ``interp``, no fallback, and for n >= 1 one fabric
    dispatch whose chunk runs to its end: a worker rebuilds the loop
    from its printed text, so a step printed as ``j += -2`` (a ``while``
    loop whose ``continue`` skips the step) ran into the step budget and
    was replayed serially."""
    func = build_function(STRIDED_NESTS[name])
    pf = compile_parallel(func)
    assert pf.schedules["L1"].ok  # PARALLEL, private(j,s)
    rng = np.random.default_rng(n)
    env = {
        "a": rng.integers(0, 25, size=n + 10).astype(np.int64),
        "b": np.zeros(max(n, 1), np.int64),
        "out": np.zeros(3, np.int64),
        "n": n,
    }
    want_err, want_env = _outcome(run_function, func, env)
    faults.drain_fallback_notes()
    before = fabric_stats()["dispatches"]
    got_err, got_env = _outcome(RUNNERS["fabric"], func, env)
    assert faults.drain_fallback_notes() == []
    if want_err is None:
        assert _fabric_replays(func) == 0
    assert got_err == want_err
    _assert_env_same(want_env, got_env, f"{name} n={n}")
    dispatches = fabric_stats()["dispatches"] - before
    assert (dispatches, pf.last_counters["parallel_activations"]) == ((1, 1) if n else (0, 0))


#: ``for`` loops the builder cannot normalize (a step of ``+= -2``, a
#: condition that reads an array) become ``while`` loops, where a
#: ``continue`` of the loop must still run its step, as C's does, and a
#: nested loop's ``continue`` runs that loop's own step -> (source, its
#: ``a``, the bindings C ends with)
UNNORMALIZED_CONTINUE = {
    "negative_step_literal": (
        """
void f(int a[])
{
    int j, s;
    s = 0;
    for (j = 9; j > 0; j += -2) {
        if (a[j] == 7) { continue; }
        s = s + 1;
    }
}
""",
        [0, 0, 0, 0, 0, 7, 0, 0, 0, 0],
        {"s": 4, "j": -1},
    ),
    "condition_reads_an_array": (
        """
void f(int a[])
{
    int j, k, s, t;
    s = 0;
    t = 0;
    for (j = 0; a[j] != 0; j++) {
        for (k = 0; k < 2 && a[k] >= 0; k++) {
            if (k == 0) { continue; }
            t = t + 1;
        }
        if (a[j] == 7) { continue; }
        s = s + a[j];
    }
}
""",
        [3, 7, 2, 7, 5, 0],
        {"s": 10, "j": 5, "t": 5, "k": 2},
    ),
}


@pytest.mark.parametrize("name", list(UNNORMALIZED_CONTINUE))
def test_continue_in_an_unnormalized_for_runs_the_step(name):
    src, a, want = UNNORMALIZED_CONTINUE[name]
    func = build_function(src)
    assert not func.loops()  # every loop is a while loop
    env = {"a": np.array(a, np.int64)}
    runners = {
        "interp": lambda f, e: run_function(f, e, max_steps=10_000),
        "compiled": lambda f, e: run_compiled(f, e, max_steps=10_000),
        "parallel": lambda f, e: execute(f, e, engine="parallel", max_steps=10_000),
    }
    for engine, run in runners.items():
        got_err, got_env = _outcome(run, func, env)
        assert got_err is None, f"{name} [{engine}]: {got_err}"
        assert {k: got_env[k] for k in want} == want, f"{name} [{engine}]"


def _interp_trace(func, env, label):
    rows = []

    def record(array, flat, is_write, iteration):
        if iteration is not None:
            rows.append((array, int(flat), bool(is_write), *iteration))

    env = _copy(env)
    try:
        run_function(func, env, recorder=record, observe_label=label)
        err = None
    except Exception as exc:  # noqa: BLE001
        err = (type(exc), str(exc))
    return err, env, sorted(rows)


def _lowered_trace(lowered, env, label):
    env = _copy(env)
    trace = lowered.new_trace()
    try:
        lowered.run(env, trace=trace, observe_label=label)
        err = None
    except Exception as exc:  # noqa: BLE001
        err = (type(exc), str(exc))
    arr, flat, write, act, idx = trace.columns()
    rows = [
        (trace.names[int(a)], int(f), bool(w), int(t), int(i))
        for a, f, w, t, i in zip(arr, flat, write, act, idx)
    ]
    return err, env, sorted(rows)


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("name", list(LOOPS))
def test_loop_traced(name, n):
    """Observing each loop in turn: the observed iteration loop records
    the interpreter's rows (same activation and iteration numbers), the
    plain one of every other loop records under the observed loop's
    iteration, and the run ends exactly as the interpreter's does."""
    func = build_function(LOOPS[name])
    env = _loop_env(n)
    for lp in func.loops():
        want_err, want_env, want_rows = _interp_trace(func, env, lp.label)
        for engine, lowered in (
            ("compiled", compile_function(func)),
            ("parallel", compile_parallel(func)),
        ):
            got_err, got_env, got_rows = _lowered_trace(lowered, env, lp.label)
            context = f"{name} n={n} observing {lp.label} [{engine}]"
            assert got_err == want_err, context
            _assert_env_same(want_env, got_env, context)
            assert got_rows == want_rows, context


def test_vector_path_iteration_vector_never_wraps():
    """An activation whose iteration values leave int64 must not run on
    the vector path, whose iteration vector would wrap: the scalar loop
    stores the exact (float-converted) values."""
    func = build_function(
        "void f(double d[], int lo, int hi) { int i;"
        " for (i = lo; i < hi; i++) { d[0] = i; } }"
    )
    lo = 2**63 - 5
    env = {"d": np.zeros(1), "lo": lo, "hi": lo + 40}
    _assert_parity(func, env, "int64 edge")
    env_c = _copy(env)
    run_compiled(func, env_c)
    assert env_c["d"][0] == float(lo + 39)


def test_vector_path_store_of_an_int_past_int64_replays():
    """A loop-invariant int past int64 (``-2^63 / -1``) must not reach an
    int-array commit, where the statements before it would already be
    stored for every iteration: the scalar replay stores the first
    iteration's ``b[0]`` and then fails on ``c[0]``, as the interpreter
    does (its ``.flat`` store raises ``ValueError`` where a direct store
    raises NumPy's ``OverflowError``, the documented divergence)."""
    func = build_function(
        "void f(int a[], int b[], int c[], int s, int t, int n) { int i;"
        " for (i = 0; i < n; i++) { b[i] = a[i] + 1; c[i] = s / t; } }"
    )
    env = {
        "a": np.arange(N, dtype=np.int64),
        "b": np.zeros(N, np.int64),
        "c": np.zeros(N, np.int64),
        "s": -(2**63),
        "t": -1,
        "n": N,
    }
    want_err, want_env = _outcome(run_function, func, env)
    assert want_err is not None and want_err[0] is ValueError
    for name, run in RUNNERS.items():
        got_err, got_env = _outcome(run, func, env)
        assert got_err is not None and got_err[0] in (ValueError, OverflowError), name
        _assert_env_same(want_env, got_env, name)


@pytest.mark.parametrize("op", ["<", "<=", "==", "!="])
def test_vector_path_compares_a_large_loop_variable_with_a_float_exactly(op):
    """Past 2^53 NumPy compares an int64 vector with a float by
    converting the ints, where the scalar path compares the loop
    variable (a Python int) exactly: the vector path must fall back."""
    func = build_function(
        "void f(int w[], int lo, int hi, double t) { int i;"
        f" for (i = lo; i < hi; i++) {{ w[i - lo] = i {op} t; }} }}"
    )
    lo = 2**60 + 1
    env = {"w": np.zeros(20, np.int64), "lo": lo, "hi": lo + 20, "t": float(lo + 8)}
    _assert_parity(func, env, op)


#: name -> (target, operand, env overrides): int operands at the edges of
#: int64.  A gathered int64 element wraps the same way on every engine
#: (the interpreter reads it as a NumPy scalar); a loop variable is a
#: Python int there, so only an exact guard keeps the vector path in step
#: (its target reads no ``i``, whose ``i - lo`` would fall back first).
EDGE_OPERANDS = {
    "gathered_max": ("w[i - lo]", "a[i - lo]", {"edge": 2**63 - 1}),
    "gathered_min": ("w[i - lo]", "a[i - lo]", {"edge": -(2**63)}),
    "loop_variable_near_max": ("w[0]", "i", {"lo": 2**63 - 25, "hi": 2**63 - 5}),
    "loop_variable_near_min": ("w[0]", "(0 - i)", {"lo": 2**63 - 25, "hi": 2**63 - 5}),
    "loop_variable_at_2^61": ("w[0]", "i", {"lo": 2**61, "hi": 2**61 + 20}),
}


@pytest.mark.parametrize("c", ["7", "1", "0", "1.5"])
@pytest.mark.parametrize("op", ["+", "-", "*"])
@pytest.mark.parametrize("operand", list(EDGE_OPERANDS))
def test_vector_path_constant_right_operand_near_int64_edges(operand, op, c):
    """``+ - *`` over a constant right operand on the vector path (20
    trips): an int constant is bounded like any other operand, a float
    one needs no guard, and a result that could leave int64 falls back,
    so the float target stores the interpreter's exact values."""
    target, expr, over = EDGE_OPERANDS[operand]
    func = build_function(
        "void f(int a[], double w[], int lo, int hi) { int i;"
        f" for (i = lo; i < hi; i++) {{ {target} = {expr} {op} {c}; }} }}"
    )
    env = {"a": np.arange(20, dtype=np.int64) - 4, "w": np.zeros(20), "lo": 0, "hi": 20}
    env.update(over)
    if "edge" in env:
        env["a"][7] = env.pop("edge")
    with np.errstate(over="ignore"):  # the interpreter's NumPy scalars wrap
        _assert_parity(func, env, f"{operand} {op} {c}")


#: dividends of each sign and shape, and a float one that is never negative
DIVIDENDS = ["i - lo", "lo - i", "i - lo - 5", "a[i - lo]", "p[i - lo]", "(i - lo) * 1.5"]
#: an int scalar of each sign, zero, the largest int64 and past it; a
#: float scalar and an array-valued divisor
DIVISORS = {
    "d=3": ("d", 3),
    "d=-3": ("d", -3),
    "d=0": ("d", 0),
    "d=2^63-1": ("d", 2**63 - 1),
    "d=2^63": ("d", 2**63),
    "d=2^64": ("d", 2**64),
    "t": ("t", 3.0),
    "array": ("a[i - lo] + 9", None),
}


@pytest.mark.parametrize("op", ["%", "/"])
@pytest.mark.parametrize("divisor", list(DIVISORS))
@pytest.mark.parametrize("dividend", DIVIDENDS)
def test_vector_path_division(dividend, divisor, op):
    """``%`` and ``/`` over 20 trips: an int64 vector dividend whose
    least element is >= 0 with an int scalar divisor in ``(0, 2^63)``
    takes the one-op cheap form, every other pair the general path, and
    both store the interpreter's values (a float target keeps a quotient's
    fraction) or fail as it does."""
    expr, d = DIVISORS[divisor]
    func = build_function(
        "void f(int a[], int p[], double w[], int lo, int hi, int d, double t) { int i;"
        f" for (i = lo; i < hi; i++) {{ w[i - lo] = ({dividend}) {op} ({expr}); }} }}"
    )
    env = {
        "a": np.arange(20, dtype=np.int64) - 4,
        "p": np.arange(20, dtype=np.int64) % 7,
        "w": np.zeros(20),
        "lo": 0,
        "hi": 20,
        "d": 3 if d is None else d,
        "t": 3.0,
    }
    _assert_parity(func, env, f"{dividend} {op} {expr} ({divisor})")


@pytest.mark.parametrize("subscript", ["k * k - 1", "k * (k + 1) - 1", "0 - k * k + 899"])
def test_vector_path_reduces_a_nonaffine_subscript(subscript):
    """A subscript that is not affine in the loop variable may leave the
    array between two in-bounds endpoints: its bounds come from a
    min/max reduction, so the vector path falls back and the scalar loop
    raises exactly where the interpreter does."""
    func = build_function(
        "void f(int a[], int out[], int lo, int hi) { int k;"
        f" for (k = lo; k < hi; k++) {{ out[k - lo] = a[{subscript}]; }} }}"
    )
    env = {
        "a": np.arange(900, dtype=np.int64),
        "out": np.zeros(61, np.int64),
        "lo": -30,
        "hi": 31,
    }
    err = _assert_parity(func, env, subscript)
    assert err is not None and "out of bounds" in err[1]


def test_zero_step_loop_runs_into_the_step_budget():
    """``i += 0`` never ends: the compiled and parallel engines must cut
    it off with the interpreter's budget error, not fail computing a trip
    count for the vector path."""
    func = build_function(
        "void f(int b[], int n) { int i; for (i = 0; i > -5; i += 0) { b[0] = i + n; } }"
    )
    assert func.loops()[0].step == 0
    env = {"b": np.zeros(3, np.int64), "n": 3}
    want_err, want_env = _outcome(lambda f, e: run_function(f, e, max_steps=1000), func, env)
    assert want_err == (InterpreterError, "step budget exceeded (1000)")
    runners = {
        "compiled": lambda f, e: run_compiled(f, e, max_steps=1000),
        "parallel": lambda f, e: execute(f, e, engine="parallel", max_steps=1000),
    }
    for engine, run in runners.items():
        got_err, got_env = _outcome(run, func, env)
        assert got_err == want_err, engine
        _assert_env_same(want_env, got_env, f"zero step [{engine}]")


# --------------------------------------------------------------------------
# constant-row nests on the vector path
# --------------------------------------------------------------------------

_NEST_KERNEL = """
void f(int a[], int g[][4], int out[][4], int lo, int hi, int c, int d, int x)
{{
    int i, j;
    for (i = lo; i < hi; i++) {{
        for (j = 0; j < 4; j++) {{
            out[i][j] = {value};
        }}
    }}
}}
"""

#: name -> (the stored value, env overrides, max_steps); 8 rows of 4
#: trips each, so the nest clears VEC_MIN_TRIPS and tries the vector path
NEST_CASES = {
    "commits": ("a[i] + g[i][j] * x + j", {}, None),
    "past_end_through_i": ("a[i] + j", {"a": np.arange(5, dtype=np.int64)}, None),
    "past_end_through_j": ("g[i][j + d]", {"d": 1}, None),
    # both endpoints, (lo, 0) and (hi - 1, 3), are in bounds; (0, 3) is not
    "i_minus_j_negative": ("a[i - j + c]", {}, None),
    "zero_divisor": ("a[i] / (j - d)", {}, None),
    # a dividend >= 0 over a positive scalar: the one-op cheap form
    "cheap_modulus": ("(a[i] + j) % c", {}, None),
    # a row dividend of both signs: the general path
    "row_quotient": ("(j - d) / c", {}, None),
    "zero_modulus": ("a[i] % (j - d)", {}, None),
    "unbound_scalar": ("a[i] + x", {"x": _DROP}, None),
    "not_an_array": ("a[i] + j", {"a": 5}, None),
    "target_not_an_array": ("a[i] + j", {"out": 5}, None),
    # 80 steps in all: cut in row 7
    "budget_cut_mid_nest": ("a[i] + j", {}, 75),
    # out aliases g: row i reads what the same row wrote a trip earlier
    "aliased": ("g[i][j] + g[i][(j + 3) % 4]", {"g": "out"}, None),
    # no row runs: the inner variable keeps its binding
    "zero_rows": ("a[i] + j", {"lo": 3, "hi": 3, "j": 77}, None),
}


def _nest_env(over):
    env = {
        "a": np.arange(10, dtype=np.int64) * 3,
        "g": np.arange(40, dtype=np.int64).reshape(10, 4),
        "out": np.arange(40, dtype=np.int64).reshape(10, 4) + 100,
        "lo": 0,
        "hi": 8,
        "c": 2,
        "d": 2,
        "x": 5,
    }
    for k, v in over.items():
        if v is _DROP:
            del env[k]
        else:
            env[k] = v
    if over.get("g") == "out":
        env["g"] = env["out"]
    return env


def _nest_runners(max_steps):
    runners = {
        "interp": lambda f, e: run_function(f, e, max_steps=max_steps),
        "compiled": lambda f, e: run_compiled(f, e, max_steps=max_steps),
        "parallel": lambda f, e: run_parallel(f, e, max_steps=max_steps),
    }
    if HAVE_FORK:
        runners["fabric"] = lambda f, e: run_parallel(
            f, e, max_steps=max_steps, workers=2, mp_min_trips=1
        )
    return runners


@pytest.mark.parametrize("case", list(NEST_CASES))
def test_constant_row_nest(case):
    """A perfect nest whose inner loop has 4 constant trips runs as one
    vector activation; every failure it cannot reproduce exactly falls
    back to the scalar loops, which fail as the interpreter does.  Each
    engine gets a fresh environment, so an aliased binding stays one."""
    value, over, max_steps = NEST_CASES[case]
    func = build_function(_NEST_KERNEL.format(value=value))
    outcomes = {}
    for engine, run in _nest_runners(max_steps or 50_000_000).items():
        env = _nest_env(over)
        try:
            run(func, env)
            outcomes[engine] = None, env
        except Exception as exc:  # noqa: BLE001 — the class is what is compared
            outcomes[engine] = (type(exc), str(exc)), env
        if engine == "fabric" and outcomes["interp"][0] is None:
            assert _fabric_replays(func) == 0, case
    want_err, want_env = outcomes.pop("interp")
    for engine, (got_err, got_env) in outcomes.items():
        assert got_err == want_err, f"{case} [{engine}]"
        _assert_env_same(want_env, got_env, f"{case} [{engine}]")
    if case not in NEST_COMMITS:
        assert want_err is not None, case
        return
    assert want_err is None, case
    lowered = compile_function(func)
    lowered.run(_nest_env(over))
    stats = lowered.last_stats
    assert (stats.vec_activations, stats.vec_fallbacks) == NEST_COMMITS[case], case
    # the parallel engine's static cost class follows the vector plan
    assert compile_parallel(func).cost_class("L1").startswith("vector"), case


#: the cases that run to the end -> (vector activations, fallbacks) on
#: ``compiled``: an aliased nest falls back, and no row means no vector work
NEST_COMMITS = {
    "commits": (1, 0),
    "cheap_modulus": (1, 0),
    "row_quotient": (1, 0),
    "aliased": (0, 1),
    "zero_rows": (0, 0),
}


_NEST_TRACED = """
void f(int a[], int out[][4], int n, int t)
{
    int r, i, j;
    for (r = 0; r < t; r++) {
        for (i = 0; i < n; i++) {
            for (j = 0; j < 4; j++) { out[i][j] = a[i] + j + r; }
        }
    }
}
"""


@pytest.mark.parametrize("n", [0, 2, 8])
def test_constant_row_nest_traced(n):
    """Observing the nest's outer or inner loop, the nest steps aside so
    its rows carry per-row activations; observing the loop around it,
    the nest runs as one vector activation per trip and tags its rows
    with that trip.  Every way, the rows are the interpreter's."""
    func = build_function(_NEST_TRACED)
    env = {"a": np.arange(8, dtype=np.int64), "out": np.zeros((8, 4), np.int64), "n": n, "t": 3}
    vectorized = {"L1": 3 if 4 * n >= 13 else 0, "L1.1": 0, "L1.1.1": 0}
    for label, vec_activations in vectorized.items():
        want_err, want_env, want_rows = _interp_trace(func, env, label)
        for engine, lowered in (
            ("compiled", compile_function(func)),
            ("parallel", compile_parallel(func)),
        ):
            got_err, got_env, got_rows = _lowered_trace(lowered, env, label)
            context = f"n={n} observing {label} [{engine}]"
            assert got_err == want_err is None, context
            _assert_env_same(want_env, got_env, context)
            assert got_rows == want_rows, context
            assert lowered.last_stats.vec_activations == vec_activations, context


# --------------------------------------------------------------------------
# loops that read what they write, on the vector path
# --------------------------------------------------------------------------

_FORM_KERNEL = """
void f(int key[], int cnt[], double h[], double u[], int w[], int p[], double d[],
       int b[], double e[], int n)
{{
    int i;
    for ({header}) {{ {body} }}
}}
"""

_UP = "i = 0; i < n; i++"
_P_UP = "i = 1; i < n; i++"
_DOWN = "i = n - 1; i > 0; i--"

#: name -> (loop header, body, env overrides, (vector activations,
#: fallbacks) on ``compiled`` for a run that ends, or None for one that
#: raises); 24 trips, so each activation tries the vector path
FORM_CASES = {
    # same-subscript updates: ``key`` repeats, so np.add.at meets
    # duplicate indices on every activation
    "update": (_UP, "cnt[key[i]] = cnt[key[i]] + 1;", {}, (1, 0)),
    "update_chain": (_UP, "cnt[key[i]] = cnt[key[i]] + w[i] + 5;", {}, (1, 0)),
    "update_float": (_UP, "h[key[i]] = h[key[i]] - u[i];", {}, (1, 0)),
    "update_subscript_leaves_bounds": (_UP, "cnt[key[i]] = cnt[key[i]] + 1;", {"key[13]": 8}, None),
    # a float chain is not regrouped: its sums stay in lane order
    "update_float_chain": (_UP, "h[key[i]] = h[key[i]] + u[i] + 0.1;", {}, (0, 1)),
    # an int array takes int operands only: each lane's sum truncates
    # before the next lane reads it, and NaN fails the store at lane 11
    "update_float_into_int": (_UP, "cnt[key[i]] = cnt[key[i]] + u[i];", {"cnt": 5}, (0, 1)),
    "update_nan_into_int": (_UP, "cnt[key[i]] = cnt[key[i]] + u[i];", {"u[11]": math.nan}, None),
    # slot 0, 20 below 2^63, takes +3 on each of its 7 lanes: the sum
    # leaves int64 at the last (the replay raises there, under
    # over="raise")
    "update_leaves_int64": (_UP, "cnt[key[i]] = cnt[key[i]] + 3;", {"cnt[0]": 2**63 - 20}, None),
    # first-order recurrences
    "recurrence": (_P_UP, "p[i] = p[i - 1] + w[i - 1];", {"p[0]": 3}, (1, 0)),
    # the first read, d[23], is not 0: a scan from 0 plus it rounds apart
    "recurrence_down": (_DOWN, "d[i - 1] = d[i] - u[i];", {"d[23]": 0.1}, (1, 0)),
    "recurrence_first_read_out_of_bounds": (_UP, "p[i] = p[i - 1] + w[i];", {}, None),
    "recurrence_leaves_int64": (_P_UP, "p[i] = p[i - 1] + w[i - 1];", {"p[0]": 2**63 - 40}, None),
    # p starts at 5 and each lane adds -0.5: the scalar loop truncates
    # every partial sum toward zero (4, 3, 2, ...)
    "recurrence_float_into_int": (_P_UP, "p[i] = p[i - 1] + e[i];", {"p[0]": 5}, (0, 1)),
    # guarded stores
    "guard": (_UP, "if (w[i] > 2) { b[key[i]] = i; }", {}, (1, 0)),
    "guard_no_lane": (_UP, "if (w[i] > 90) { b[key[i]] = i; }", {}, (1, 0)),
    # a condition is true where it is not zero, negative included
    "guard_every_lane": (_UP, "if (w[i] - 90) { b[key[i]] = i; }", {}, (1, 0)),
    "guard_affine_target": (_UP, "if (w[i] > 2) { d[i] = u[i] * 2.0; }", {}, (1, 0)),
    # 100 / w[i] divides by zero at lane 9, after taken lanes stored
    "guard_raises_on_some_lane": (_UP, "if (100 / w[i] > 3) { b[key[i]] = i; }", {"w[9]": 0}, None),
    # every lane the guard skips would store past the end of b
    "guard_skipped_lane_would_raise": (
        _UP, "if (key[i] < 8) { b[key[i]] = i + cnt[key[i]]; }", {"key[4]": 99, "key[17]": 50}, (1, 0)
    ),
}


def _form_env(over):
    rng = np.random.default_rng(11)
    n = 24
    env = {
        "key": rng.integers(0, 6, n).astype(np.int64),
        "cnt": np.zeros(8, np.int64),
        "h": np.full(8, -0.0),
        "u": np.round(rng.uniform(-2, 2, n), 2),
        "w": rng.integers(-3, 9, n).astype(np.int64),
        "p": np.zeros(n + 1, np.int64),
        "d": np.zeros(n + 1),
        "b": np.zeros(8, np.int64),
        "e": np.full(n, -0.5),
        "n": n,
    }
    env["w"][env["w"] == 0] = 1  # only the case that wants one divides by zero
    for key, v in over.items():
        name, _, at = key.partition("[")
        if at:
            env[name][int(at[:-1])] = v
        else:
            env[name][:] = v
    return env


def _store_errors_agree(want, got):
    """Equal errors, or the documented divergence of a store into an int
    array: the interpreter's ``.flat`` store raises ``ValueError``, a
    direct store ``ValueError`` or ``OverflowError`` with NumPy's own
    message."""
    if want == got:
        return True
    return (
        want is not None and got is not None
        and want == (ValueError, "Error setting single item of array.")
        and got[0] in (ValueError, OverflowError)
    )


@pytest.mark.parametrize("case", list(FORM_CASES))
def test_vector_forms(case):
    """Updates, recurrences and guarded stores: where a precondition
    fails the activation replays on the scalar closures, which end (or
    fail) exactly as the interpreter does, partial effects included.
    NumPy scalars raise on int64 overflow here, so a wrapped int is an
    error the vector path must not hide."""
    header, body, over, commits = FORM_CASES[case]
    func = build_function(_FORM_KERNEL.format(header=header, body=body))
    env = _form_env(over)
    with np.errstate(over="raise"):
        want_err, want_env = _outcome(run_function, func, env)
        for name, run in RUNNERS.items():
            got_err, got_env = _outcome(run, func, env)
            assert _store_errors_agree(want_err, got_err), f"{case} [{name}]: {want_err} vs {got_err}"
            assert got_env.keys() == want_env.keys(), f"{case} [{name}]"
            assert first_divergence(want_env, got_env) is None, f"{case} [{name}]"
            if name == "fabric" and want_err is None:
                assert _fabric_replays(func) == 0, case
        lowered = compile_function(func)
        if commits is None:
            assert want_err is not None, case
            return
        assert want_err is None, case
        lowered.run(_form_env(over))
    stats = lowered.last_stats
    assert (stats.vec_activations, stats.vec_fallbacks) == commits, case


@pytest.mark.parametrize("case", ["update", "update_chain", "recurrence", "guard", "guard_skipped_lane_would_raise"])
def test_vector_forms_traced(case):
    """Observed, each form records the interpreter's rows: an update
    reads its subscripts twice (for the read and for the store), a
    recurrence reads what the iteration before wrote, and a guard's
    condition reads on every lane while its body's rows carry the taken
    lanes' own iteration numbers."""
    header, body, over, _ = FORM_CASES[case]
    func = build_function(_FORM_KERNEL.format(header=header, body=body))
    env = _form_env(over)
    want_err, want_env, want_rows = _interp_trace(func, env, "L1")
    for engine, lowered in (("compiled", compile_function(func)), ("parallel", compile_parallel(func))):
        got_err, got_env, got_rows = _lowered_trace(lowered, env, "L1")
        assert got_err == want_err is None, f"{case} [{engine}]"
        _assert_env_same(want_env, got_env, f"{case} [{engine}]")
        assert got_rows == want_rows, f"{case} [{engine}]"
        assert lowered.last_stats.vec_activations == 1, f"{case} [{engine}]"
