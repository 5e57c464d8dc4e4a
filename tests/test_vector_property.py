"""Property (hypothesis): the compiled vector path computes what the
scalar closures and the interpreter compute.

The vector path runs a counted loop, or a perfect nest whose inner loop
has a few constant trips, as whole-array NumPy operations over its
iteration space.  Drawn here: single loops and constant-row nests (1–12
inner trips) with 1–3 statements from the vector-eligible grammar
(``+ - * / %``, comparisons, unary ``-``/``!``, gathers, 1-D and 2-D
targets), over inputs with duplicate indices, −0.0, NaN, ±inf, values
near ±2^63 and loop variables past 2^53 (where an int and a float
compare differently once converted), at trip counts around
``VEC_MIN_TRIPS``.  Each program runs
three ways: on the interpreter, on the compiled closures with the vector
path disabled (``VEC_MIN_TRIPS`` patched out of reach), and on the
compiled closures as they are.  All three must leave the same bindings
(:func:`~repro.runtime.engines.first_divergence`, both loop variables'
exit values included), raise the same error class and message, and,
when traced, record the same rows.  The vector path must also actually
commit in a stated share of the examples, or the property would hold
vacuously.  The loops that read what they write (same-subscript
updates, first-order recurrences) and guarded stores are drawn kind by
kind, on both sides of each precondition.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir import build_function
from repro.runtime import compiler, run_function
from repro.runtime.compiler import CompiledFunction
from repro.runtime.engines import first_divergence

#: rows of every array; ``i - lo`` reaches up to 26 on a single loop
ROWS = 32
#: columns of every 2-D array: the inner variable stays below it
COLS = 24

BIG = 2**63
SPECIAL_FLOATS = [
    0.0, -0.0, 1.5, -2.25, 3.0, math.nan, math.inf, -math.inf, 1e308,
    float(BIG), -float(BIG), float(2**60 + 8), float(2**60),
]
SPECIAL_INTS = [0, 1, -1, 2, 3, 7, -5, 2**31, 2**62, BIG - 1, BIG - 2, -BIG, -BIG + 1]


# --------------------------------------------------------------------------
# programs
# --------------------------------------------------------------------------


def _leaves(nest: bool) -> list[str]:
    return ["0", "1", "2", "7", "0.5", "1.5", "(-0.0)", "i", "s", "t", "lo"] + (
        ["j"] if nest else []
    )


def _subscripts(nest: bool) -> list[str]:
    """Index expressions into a 1-D read array or a 2-D row."""
    subs = ["i - lo", "i - lo + 1", "p[i - lo]", "hi - i"]
    if nest:
        # ``i - lo - j + 2`` is not monotone over the nest: its two
        # endpoints can be in bounds while an interior pair is negative
        subs += ["j", "j + 1", "p[j]", "i - lo - j + 2", "i - lo + j", "(i - lo) * 3 + j"]
    return subs


def _columns(nest: bool) -> list[str]:
    return ["0", "(i - lo) % 12"] + (["j", "j + 1", "23 - j", "p[j]"] if nest else [])


@st.composite
def _expr(draw, nest: bool, depth: int) -> str:
    kind = draw(st.integers(0, 5 if depth > 0 else 1))
    if kind == 0:
        return draw(st.sampled_from(_leaves(nest)))
    if kind == 1:
        arr = draw(st.sampled_from(["u", "v", "G"]))
        sub = draw(st.sampled_from(_subscripts(nest)))
        if arr == "G":
            return f"G[{sub}][{draw(st.sampled_from(_columns(nest)))}]"
        return f"{arr}[{sub}]"
    if kind == 2:
        op = draw(st.sampled_from(["-", "!"]))
        return f"{op}({draw(_expr(nest, depth - 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "<", "+", "-", "*", "/", "%", "<=", ">", ">=", "==", "!="]))
    return f"({draw(_expr(nest, depth - 1))} {op} {draw(_expr(nest, depth - 1))})"


def _target(draw, name: str, nest: bool) -> str:
    if name in ("x", "y"):
        subs = ["i - lo", "p[i - lo]"]
        if nest:
            subs += ["(i - lo) * 24 + j", "j", "i - lo - j + 23", "p[j] + i - lo"]
        return f"{name}[{draw(st.sampled_from(subs))}]"
    rows = ["i - lo", "p[i - lo]"] + (["p[j]"] if nest else [])
    return f"{name}[{draw(st.sampled_from(rows))}][{draw(st.sampled_from(_columns(nest)))}]"


_SIGNATURE = (
    "void f(double u[], int v[], int p[], double G[][24], double x[], int y[],"
    " double W[][24], int Z[][24], int lo, int hi, int s, double t)"
)


@st.composite
def _programs(
    draw, value=None, signature=_SIGNATURE, nests=(True, True, False)
) -> tuple[str, str, bool]:
    """``(source, label of the loop the trace observes or "", nest?)``;
    each statement stores ``value(nest)`` (default: a depth-2
    expression of the grammar)."""
    nest = draw(st.sampled_from(nests))
    targets = draw(st.permutations(["x", "y", "W", "Z"]))[: draw(st.integers(1, 3))]
    value = value or (lambda nest: _expr(nest, 2))
    body = "".join(
        f"{_target(draw, name, nest)} = {draw(value(nest))}; " for name in targets
    )
    if draw(st.booleans()):
        loop = "for (i = lo; i < hi; i++)"
    else:
        loop = "for (i = hi - 1; i >= lo; i--)"
    if nest:
        k = draw(st.sampled_from([4, 12, 9, 6, 3, 1]))
        c0 = draw(st.sampled_from([0, 0, 1, 0, -1]))
        step = draw(st.sampled_from([1, 1, 2, -1]))
        if step == -1:
            inner = f"for (j = {c0 + k - 1}; j >= {c0}; j--)"
        else:
            inner = f"for (j = {c0}; j < {c0 + step * (k - 1) + 1}; j += {step})"
        body = f"{inner} {{ {body}}}"
    code = f"{loop} {{ {body}}}"
    observe = draw(st.sampled_from(["", "", "loop", "around"]))
    label = ""
    if observe == "loop":
        label = "L1"
    elif observe == "around":
        code = f"for (r = 0; r < 2; r++) {{ {code} }}"
        label = "L1"
    return f"{signature} {{ int i, j, r; {code} }}", label, nest


def _sprinkled(draw, base: np.ndarray, specials: list) -> np.ndarray:
    """``base`` with up to three of ``specials`` at drawn positions."""
    for _ in range(draw(st.integers(0, 3))):
        base[draw(st.integers(0, len(base) - 1))] = draw(st.sampled_from(specials))
    return base


@st.composite
def _inputs(draw, nest: bool) -> dict:
    # the bulk comes from a drawn seed, which is much cheaper than a
    # draw per element and keeps these weights (hypothesis favours the
    # ends of a list); the special values are drawn
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if nest:
        m = rng.choice([0, 2, 4, 6, 8], p=[0.05, 0.15, 0.2, 0.3, 0.3])
    else:
        vmin = compiler.VEC_MIN_TRIPS
        m = rng.choice([0, vmin - 1, vmin, vmin + 1, vmin + 3, 2 * vmin], p=[0.05, 0.1, 0.25, 0.2, 0.2, 0.2])
    # past 2^53 a loop variable compared with a float differs from its
    # float64 conversion; near 2^63 its arithmetic leaves int64
    lo = [0, 3, 2**60 + 1, BIG - 40, -BIG + 5][rng.choice(5, p=[0.7, 0.1, 0.1, 0.05, 0.05])]
    # duplicates by construction: ROWS draws from 12 values, rarely one
    # outside every array
    p = rng.integers(0, 12, ROWS)
    if draw(st.integers(0, 5)) == 5:
        p[draw(st.integers(0, ROWS - 1))] = draw(st.sampled_from([-1, ROWS]))
    v = rng.integers(1, 7, ROWS) * rng.choice([-1, 1], ROWS)
    pool = np.array(SPECIAL_FLOATS + [0.25, -1.0, 4.0, 6.5] * 4)
    return {
        "u": _sprinkled(draw, np.round(rng.uniform(-8, 8, ROWS), 2), SPECIAL_FLOATS),
        "v": _sprinkled(draw, v.astype(np.int64), SPECIAL_INTS),
        "p": p.astype(np.int64),
        "G": rng.choice(pool, size=(ROWS, COLS)),
        "x": np.zeros(ROWS * COLS),
        "y": np.zeros(ROWS * COLS, np.int64),
        "W": np.zeros((ROWS, COLS)),
        "Z": np.zeros((ROWS, COLS), np.int64),
        "lo": lo,
        "hi": lo + int(m),
        "s": draw(st.one_of(st.integers(-6, 6), st.sampled_from(SPECIAL_INTS))),
        "t": draw(
            st.one_of(
                st.floats(-8, 8, width=64),
                st.sampled_from(SPECIAL_FLOATS),
                st.just(float(lo + int(m) // 2)),  # among the loop's values
            )
        ),
    }


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def _copy(env: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def _interp(func, env: dict, label: str):
    rows = []

    def record(array, flat, is_write, iteration):
        if iteration is not None:
            rows.append((array, int(flat), bool(is_write), *iteration))

    env = _copy(env)
    try:
        run_function(func, env, recorder=record if label else None, observe_label=label or None)
        err = None
    except Exception as exc:  # noqa: BLE001 — the class is what is compared
        err = (type(exc), str(exc))
    return err, env, sorted(rows), None


def _compiled(func, env: dict, label: str):
    lowered = CompiledFunction(func)
    env = _copy(env)
    trace = lowered.new_trace() if label else None
    try:
        lowered.run(env, trace=trace, observe_label=label or None)
        err = None
    except Exception as exc:  # noqa: BLE001
        err = (type(exc), str(exc))
    rows = []
    if trace is not None:
        arr, flat, write, act, idx = trace.columns()
        rows = [
            (trace.names[int(a)], int(f), bool(w), int(c), int(k))
            for a, f, w, c, k in zip(arr, flat, write, act, idx)
        ]
    return err, env, sorted(rows), lowered.last_stats if err is None else None


#: the divergence the ``runtime/compiler.py`` docstring documents: a 1-D
#: store of a value an int64 element cannot hold raises NumPy's own
#: error, where the interpreter's ``.flat`` store raises this one
_FLAT_STORE_ERROR = (ValueError, "Error setting single item of array.")


def _errors_agree(want, got) -> bool:
    if want == got:
        return True
    return want == _FLAT_STORE_ERROR and got is not None and got[0] in (ValueError, OverflowError)


def _three_ways(src: str, env: dict, label: str, monkeypatch):
    """Run ``src`` on the interpreter, the scalar closures and the
    vector path; assert that all three agree; return the vector path's
    outcome."""
    func = build_function(src)
    # NumPy warns on the wraps and NaNs the inputs provoke on purpose
    with np.errstate(all="ignore"), monkeypatch.context() as patched:
        want = _interp(func, env, label)
        vector = _compiled(func, env, label)
        patched.setattr(compiler, "VEC_MIN_TRIPS", 1 << 62)
        scalar = _compiled(func, env, label)
    for name, got in (("scalar closures", scalar), ("vector path", vector)):
        context = f"{name}: {src}"
        assert _errors_agree(want[0], got[0]), f"{context}: {want[0]} vs {got[0]}"
        assert want[1].keys() == got[1].keys(), context
        assert first_divergence(want[1], got[1]) is None, (
            f"{context}: {first_divergence(want[1], got[1])}"
        )
        assert got[2] == want[2], f"{context}: trace rows"
    # with the vector path out of reach, the same closures fail the same way
    assert scalar[0] == vector[0], src
    return vector


def test_vector_path_matches_the_scalar_closures_and_the_interpreter(monkeypatch):
    seen = {"examples": 0, "committed": 0, "nests": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def prop(data):
        src, label, nest = data.draw(_programs())
        env = data.draw(_inputs(nest))
        vector = _three_ways(src, env, label, monkeypatch)
        seen["examples"] += 1
        if vector[3] is not None and vector[3].vec_activations:
            seen["committed"] += 1
            seen["nests"] += nest

    prop()
    # derandomized, so the shares are fixed: at least a fifth of the
    # examples commit on the vector path, and a twentieth are nests
    assert seen["committed"] >= seen["examples"] // 5, seen
    assert seen["nests"] >= seen["examples"] // 20, seen


# --------------------------------------------------------------------------
# ``%`` and ``/``: the one-op cheap forms and the general path
# --------------------------------------------------------------------------


def _dividends(nest: bool) -> list[str]:
    """Vectors of each shape and sign (int, and a float one that is
    never negative), and a scalar."""
    out = ["(i - lo)", "((i - lo) * 1.5)", "(lo - i)", "v[i - lo]", "((hi - i) * 0.5)", "(hi - i)"]
    out += ["(i - lo - 5)", "p[i - lo]", "i", "u[i - lo]", "s"]
    if nest:
        out += ["j", "(i - lo - j)", "(j - 2)", "(i - lo + j)", "(3 - j)", "((i - lo) * 3 + j)"]
        out += ["p[j]"]
    return out


def _divisors(nest: bool) -> list[str]:
    """Int scalars (``d`` holds every sign, zero, and values near and
    past 2^63), positive, negative and zero constants, a float scalar
    and array-valued divisors."""
    out = ["d", "3", "d", "(-3)", "d", "v[i - lo]", "d", "7", "0", "1", "s", "t", "(i - lo + 1)"]
    return out + (["(j + 2)"] if nest else [])


DIVISORS = [BIG, 3, -3, 0, 2**64, BIG - 1, 1, -BIG, 7, -1, BIG - 2, 2, -BIG + 1, 12, 5]

_DIVISION_SIGNATURE = _SIGNATURE.replace(", double t)", ", double t, int d)")


@st.composite
def _quotient(draw, nest: bool) -> str:
    """``dividend % divisor`` or ``dividend / divisor``, sometimes feeding
    one more op (the result's shape is no longer affine; ``* 4`` keeps a
    fraction from vanishing into an int store)."""
    dividend = draw(st.sampled_from(_dividends(nest)))
    divisor = draw(st.sampled_from(_divisors(nest)))
    value = f"({dividend} {draw(st.sampled_from(['%', '/']))} {divisor})"
    uses = [value, f"({value} * 4)", f"({value} + i)", f"v[{value} % 12 + 12]"]
    return draw(st.sampled_from(uses))


def test_vector_division_cheap_forms_match_the_general_path(monkeypatch):
    """``%`` and ``/`` with an int vector dividend whose least element is
    >= 0 and a divisor that is an int scalar in ``(0, 2^63)`` run as one
    NumPy op; every other operand pair takes the general path.  Both must
    compute what the scalar closures and the interpreter compute, and the
    draws must reach each cheap form and the general path with a vector
    dividend of each op."""
    calls = {"cheap %": 0, "cheap /": 0, "general %": 0, "general /": 0}
    seen = {"examples": 0, "committed": 0}

    def counted(key, fn, vector_only=False):
        def run(a, b, *rest):
            if not vector_only or isinstance(a, np.ndarray):
                calls[key] += 1
            return fn(a, b, *rest)

        return run

    for op in "%/":
        cheap = counted(f"cheap {op}", compiler._FLOOR_OPS[op])
        monkeypatch.setitem(compiler._FLOOR_OPS, op, cheap)
    monkeypatch.setattr(compiler, "_vec_mod", counted("general %", compiler._vec_mod, True))
    monkeypatch.setattr(compiler, "_vec_div", counted("general /", compiler._vec_div, True))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def prop(data):
        src, label, nest = data.draw(_programs(value=_quotient, signature=_DIVISION_SIGNATURE))
        env = data.draw(_inputs(nest))
        env["d"] = data.draw(st.sampled_from(DIVISORS))
        vector = _three_ways(src, env, label, monkeypatch)
        seen["examples"] += 1
        if vector[3] is not None and vector[3].vec_activations:
            seen["committed"] += 1

    prop()
    assert seen["committed"] >= seen["examples"] // 5, seen
    assert all(n >= 10 for n in calls.values()), calls


# --------------------------------------------------------------------------
# where each shape's extremes lie
# --------------------------------------------------------------------------


def _shaped() -> list[str]:
    """Int vectors over a nest, affine in the outer variable, in the
    inner one, or in both.  The endpoints of the first two are their
    extremes; those of the first three here often lie in ``[0, 12)``
    while an interior element is negative."""
    return [
        "(i - lo - j + 2)", "(j - (i - lo) + 1)", "((i - lo) * 3 - j)", "(i - lo + j)",
        "(j + 1)", "(3 - j)", "(hi - i)",
    ]


@st.composite
def _shaped_use(draw, nest: bool) -> str:
    """A shaped vector as a subscript, a dividend or an addend."""
    x = draw(st.sampled_from(_shaped()))
    uses = [f"v[{x}]", f"({x} % d)", f"({x} / d)", f"G[i - lo][{x}]", f"(s + {x})"]
    return draw(st.sampled_from(uses))


def test_vector_path_finds_each_shapes_extremes(monkeypatch):
    """A subscript's bounds check, a dividend's least element and an
    overflow check read a vector's extremes from its two endpoints only
    when its shape puts them there: affine in one loop variable of a
    nest, not in both."""
    seen = {"examples": 0, "committed": 0}

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def prop(data):
        src, label, nest = data.draw(
            _programs(value=_shaped_use, signature=_DIVISION_SIGNATURE, nests=(True,))
        )
        env = data.draw(_inputs(nest))
        env["d"] = data.draw(st.sampled_from([3, 2, 5, 1, 7]))
        vector = _three_ways(src, env, label, monkeypatch)
        seen["examples"] += 1
        if vector[3] is not None and vector[3].vec_activations:
            seen["committed"] += 1

    prop()
    # many draws index out of bounds on purpose: a tenth must commit
    assert seen["committed"] >= seen["examples"] // 10, seen


# --------------------------------------------------------------------------
# the iteration space's arithmetic, at the edges of int64
# --------------------------------------------------------------------------


def test_space_trips_and_loop_vectors_match_range():
    """:meth:`_Space.trips` counts what ``range`` counts, and the loop
    variable's int64 vector holds exactly ``range``'s values, or is
    ``None`` exactly when one of them leaves int64, for bounds on either
    side of ±2^63 (the one vector builder of the vector path and the
    inspector)."""
    from repro.ir.nodes import IConst, SLoop

    seen = {"vector": 0, "none": 0, "empty": 0}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([-BIG, 0, BIG]),
        st.integers(-24, 8),
        st.integers(-4, 24),
        st.sampled_from([1, 2, 3, -1, -2, -3]),
    )
    def prop(edge, offset, distance, step):
        lb = edge + offset
        ub = lb + distance if step > 0 else lb - distance
        trips = range(lb, ub, step)
        space = compiler._Space(SLoop("i", IConst(lb), IConst(ub), step, []))
        assert space.trips(lb, ub) == len(trips)
        vector = compiler._int64_range(lb, len(trips), step)
        if any(not -BIG <= v < BIG for v in trips):
            assert vector is None
            seen["none"] += 1
        else:
            assert vector is not None and vector.dtype == np.int64
            assert vector.tolist() == list(trips)
            seen["vector" if trips else "empty"] += 1

    prop()
    assert min(seen.values()) >= 10, seen


# --------------------------------------------------------------------------
# loops that read what they write: updates, recurrences, guarded stores
# --------------------------------------------------------------------------

_FORM_SIGNATURE = _SIGNATURE.replace("int p[],", "int p[], int q[],")

#: the guard each kind of example draws from, and the truth of each of
#: its ``m`` lanes over the inputs (lane ``k`` runs ``i - lo == k``
#: whichever way the loop steps)
GUARDS = {
    "none": {"i < lo": lambda env, m: np.zeros(m, bool)},
    "all": {"i >= lo": lambda env, m: np.ones(m, bool)},
    "some": {
        "(i - lo) % 3 == 0": lambda env, m: np.arange(m) % 3 == 0,
        "v[i - lo] > 2": lambda env, m: env["v"][:m] > 2,
        "u[i - lo]": lambda env, m: env["u"][:m] != 0,
    },
    # q is -1 on every third lane, where the store through it would raise
    "skipped": {"q[i - lo] >= 0": lambda env, m: env["q"][:m] >= 0},
}

#: what each example draws: a form, over an int target near ±2^63 too
#: (its int64 bound fails), or a guard of each kind
KINDS = [
    "update", "update near 2^63", "recurrence", "recurrence near 2^63",
    *(f"guard {kind}" for kind in GUARDS),
]
#: int values whose sum with any nonzero int leaves int64, or nearly
EDGE_INTS = [BIG - 1, BIG - 2, -BIG, -BIG + 1, 2**62 + 5]


def _offset(c: int) -> str:
    return "i" if c == 0 else f"i + {c}" if c > 0 else f"i - {-c}"


@st.composite
def _form_programs(draw, kind: str) -> tuple[str, str, str]:
    """``(source, observed label or "", guard or "")`` of one ``kind``:
    one single loop, up or down, whose body is a same-subscript update
    (one or two terms), a first-order recurrence, or one guarded ``if``
    around stores, one of them through ``q``.  The loop's shape comes
    from a drawn seed (as the bulk of the inputs does: hypothesis
    favours the ends of a list), its expressions from the grammar."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    up = bool(rng.integers(2))
    guard = ""
    name = "y" if kind.endswith("2^63") else str(rng.choice(["x", "y"]))
    if kind.startswith("update"):
        sub = rng.choice(["p[i - lo]", "i - lo", "(i - lo) % 5", "3", "p[i - lo] + 12"])
        terms = "".join(
            f" {rng.choice(['+', '-'])} {draw(_expr(False, 1))}" for _ in range(rng.choice([1, 2]))
        )
        body = f"{name}[{sub}] = {name}[{sub}]{terms};"
    elif kind.startswith("recurrence"):
        # up: y[i + c] = y[i + c - 1] ...; down: y[i + c] = y[i + c + 1] ...;
        # from lo = 0 up, c = 0 reads y[-1] first; down, c = -1 stores there
        c = int(rng.choice([1, 1, 1, 0] if up else [0, 0, 0, -1]))
        write, read = _offset(c), _offset(c - 1 if up else c + 1)
        op = rng.choice(["+", "-"])
        body = f"{name}[{write}] = {name}[{read}] {op} {draw(_expr(False, 1))};"
    else:
        guard = draw(st.sampled_from(sorted(GUARDS[kind.split()[1]])))
        stores = [
            f"{_target(draw, t, False)} = {draw(_expr(False, 2))}; "
            for t in draw(st.permutations(["x", "W", "Z"]))[: draw(st.integers(0, 2))]
        ]
        stores.insert(draw(st.integers(0, len(stores))), f"y[q[i - lo]] = {draw(_expr(False, 1))}; ")
        body = f"if ({guard}) {{ {''.join(stores)}}}"
    loop = "for (i = lo; i < hi; i++)" if up else "for (i = hi - 1; i >= lo; i--)"
    code = f"{loop} {{ {body} }}"
    label = ""
    observe = draw(st.sampled_from(["", "", "loop", "around"]))
    if observe == "loop":
        label = "L1"
    elif observe == "around":
        code = f"for (r = 0; r < 2; r++) {{ {code} }}"
        label = "L1"
    return f"{_FORM_SIGNATURE} {{ int i, j, r; {code} }}", label, guard


@pytest.mark.parametrize("kind", KINDS)
def test_vector_forms_match_the_scalar_closures_and_the_interpreter(monkeypatch, kind):
    """Same-subscript updates, first-order recurrences and guarded
    stores, over duplicate subscripts, targets and operands near ±2^63
    (the int64 bound), float operands into int arrays and first reads
    out of bounds; guards true on no lane, on every lane and on some,
    and a store that would raise on every lane its guard skips.  Each
    kind must commit in a stated share of its examples, and each form's
    precondition must hold in some and fail in some."""
    seen = {"examples": 0, "committed": 0}
    lanes = {"none": 0, "all": 0, "some": 0}
    # each check of an update's or a recurrence's precondition, by outcome
    checks = {"held": 0, "failed": 0}

    def counted(check):
        def run(*args):
            try:
                out = check(*args)
            except compiler._VecFallback:
                checks["failed"] += 1
                raise
            checks["held"] += 1
            return out

        return run

    for name in ("_update_delta", "_recurrence"):
        monkeypatch.setattr(compiler, name, counted(getattr(compiler, name)))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def prop(data):
        src, label, guard = data.draw(_form_programs(kind))
        env = data.draw(_inputs(False))
        env["q"] = env["p"].copy()
        if kind == "guard skipped":
            env["q"][::3] = -1
        if kind.endswith("2^63"):
            # every element of y the loops read first
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            env["y"][:ROWS] = rng.choice(EDGE_INTS, ROWS)
        vector = _three_ways(src, env, label, monkeypatch)
        seen["examples"] += 1
        if vector[3] is None or not vector[3].vec_activations:
            return
        seen["committed"] += 1
        if guard:
            m = env["hi"] - env["lo"]
            truth = GUARDS[kind.split()[1]][guard](env, m)
            lanes["none" if not truth.any() else "all" if truth.all() else "some"] += 1

    prop()
    # derandomized, so the counts are fixed (the least of eight seeds is
    # about twice each bound): near 2^63 a tenth of the examples fail
    # the int64 bound; otherwise a tenth commit, and a form's
    # precondition holds in a tenth
    tenth = seen["examples"] // 10
    if kind.endswith("2^63"):
        assert checks["failed"] >= tenth, checks
        return
    assert seen["committed"] >= tenth, seen
    if kind in ("update", "recurrence"):
        assert checks["held"] >= tenth, checks
    else:
        # a guard's lanes are what its kind says (a skipped guard
        # leaves lanes in every activation of three or more trips)
        expect = {"guard none": "none", "guard all": "all", "guard skipped": "some"}.get(kind)
        assert lanes[expect or "some"] >= seen["committed"] // 2, lanes
