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

import multiprocessing

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.ir import build_function
from repro.runtime import (
    compile_function,
    compile_parallel,
    run_compiled,
    run_function,
    run_parallel,
)

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


def _assert_parity(func, env, context):
    """Every runner fails (or succeeds) exactly as the interpreter does;
    returns the interpreter's error."""
    want_err, want_env = _outcome(run_function, func, env)
    for name, run in RUNNERS.items():
        got_err, got_env = _outcome(run, func, env)
        assert got_err == want_err, f"{context} [{name}]"
        _assert_env_same(want_env, got_env, f"{context} [{name}]")
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


#: non-unit strides, on the compiled engine only: the parallel engine's
#: analysis refuses them ("Phase 2 requires |step| == 1")
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
    got_err, got_env = _outcome(run_compiled, func, env)
    assert got_err == want_err
    _assert_env_same(want_env, got_env, f"{name} n={n}")
    label = func.loops()[0].label
    want = _interp_trace(func, env, label)
    got = _lowered_trace(compile_function(func), env, label)
    assert got[0] == want[0] and got[2] == want[2]


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
    """``i += 0`` never ends: the compiled engine must cut it off with
    the interpreter's budget error, not fail computing a trip count for
    the vector path (compiled only: the parallel engine's analysis
    refuses a non-unit step)."""
    func = build_function(
        "void f(int b[], int n) { int i; for (i = 0; i > -5; i += 0) { b[0] = i + n; } }"
    )
    assert func.loops()[0].step == 0
    env = {"b": np.zeros(3, np.int64), "n": 3}
    want_err, want_env = _outcome(lambda f, e: run_function(f, e, max_steps=1000), func, env)
    got_err, got_env = _outcome(lambda f, e: run_compiled(f, e, max_steps=1000), func, env)
    assert want_err == got_err == (InterpreterError, "step budget exceeded (1000)")
    _assert_env_same(want_env, got_env, "zero step")
