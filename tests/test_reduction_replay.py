"""Reductions cross the process boundary as arrays, not per-iteration
tuples, and the parent's replay stays byte-identical to the sequential
``x = x ⊕ e`` loop:

* a NumPy pin: ``np.add``, ``np.subtract`` and ``np.multiply.accumulate``
  over ``[x0, events...]`` equal the sequential Python fold byte for
  byte (a NaN accumulator with a payload, NaN made by the fold, ±0.0,
  ±inf, subnormals, mixed magnitudes).  NumPy does not document this;
  the float replay relies on it, so a NumPy upgrade that changes it
  must fail here.  NaN *events* are out: when both operands are NaN,
  NumPy's scalar arithmetic and its ufunc loops keep different
  operands' bits, so a chunk with a NaN event ships its ordered list;
* a property test: the worker pack plus the parent replay equals the
  sequential loop in value and in type, for ``+ - * min max`` over ints,
  floats, mixed int/float, NaN, ±0.0 and ties, split into 1 to 4 chunks;
* one leg through the real fabric.
"""

from __future__ import annotations

import itertools
import multiprocessing
import struct
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.ir import build_function
from repro.runtime import compile_parallel, run_function
from repro.runtime.parallel import _ChunkError, _pack, _replay

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

OPS = ("+", "-", "*", "min", "max")


def _nan(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NANS = (
    float("nan"),
    _nan(0xFFF8000000000000),  # negative quiet NaN, x86's default NaN
    _nan(0x7FF8000000000123),  # quiet NaN with a payload
)

#: event values: everything but NaN (the fold still makes NaN from
#: inf - inf and 0 * inf)
FINITE_AND_INF = (
    0.0,
    -0.0,
    1.0,
    -1.0,
    3.0,
    0.1,
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal
    -2.2250738585072014e-308 / 3,  # a negative subnormal
    2.2250738585072014e-308,  # smallest normal
    1e308,
    -1e308,
    1e16,
    1.5e-8,
    2.0**53 + 2,
)
SPECIALS = NANS + FINITE_AND_INF


def _seq(op: str, acc, events):
    """The sequential engines' ``acc = acc ⊕ e``, one event at a time."""
    for e in events:
        if op == "+":
            acc = acc + e
        elif op == "-":
            acc = acc - e
        elif op == "*":
            acc = acc * e
        elif op == "min":
            acc = min(acc, e)
        else:
            acc = max(acc, e)
    return acc


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _identical(a, b, nan_met_nan: bool = False) -> bool:
    """Same type, and the same bits for floats.  ``nan_met_nan``: the
    fold may have combined two NaNs, whose surviving sign and payload
    Python does not define (CPython's specialized float add keeps the
    other operand than its generic one), so any NaN of the right type
    matches."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):  # np.float64 is a float subclass
        return _bits(a) == _bits(b) or (nan_met_nan and a != a and b != b)
    return a == b


class TestAccumulatePin:
    """``ufunc.accumulate`` performs the sequential fold's IEEE
    operations in the same order, so every prefix matches bit for bit."""

    UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}

    def _check(self, op: str, seq: list[float]) -> None:
        with np.errstate(all="ignore"):
            out = self.UFUNCS[op].accumulate(np.array(seq, dtype=np.float64))
            acc = seq[0]
            for k, e in enumerate(seq[1:], start=1):
                acc = _seq(op, acc, [np.float64(e)])
                assert _bits(out[k]) == _bits(acc), (op, seq[: k + 1], out[k], acc)

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_every_triple_of_special_values(self, op):
        for x0 in SPECIALS:
            for events in itertools.product(FINITE_AND_INF, repeat=2):
                self._check(op, [x0, *events])

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_random_mixed_magnitudes(self, op):
        rng = np.random.default_rng(5)
        for _ in range(400):
            n = int(rng.integers(2, 40))
            mags = 10.0 ** rng.integers(-320, 308, size=n)
            seq = (rng.uniform(-1.0, 1.0, size=n) * mags).tolist()
            for k in rng.integers(1, n, size=int(rng.integers(0, 4))):
                seq[int(k)] = FINITE_AND_INF[int(rng.integers(0, len(FINITE_AND_INF)))]
            seq[0] = SPECIALS[int(rng.integers(0, len(SPECIALS)))]
            self._check(op, seq)


# -- the property: pack per chunk, replay in chunk order ----------------------

_small_ints = st.integers(-4, 4)
_ints = st.one_of(_small_ints, st.integers(-(2**62), 2**62))
_floats = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-4.0, 4.0).map(lambda x: float(round(x))),  # ties
)


def _typed(kind: str):
    if kind == "int":
        return _ints
    if kind == "np.int64":
        return _ints.map(np.int64)
    if kind == "float":
        return _floats
    return _floats.map(np.float64)


_KINDS = ("int", "np.int64", "float", "np.float64")


@st.composite
def reduction_cases(draw):
    op = draw(st.sampled_from(OPS))
    # one family for the accumulator and the events, or a free mix
    families = draw(
        st.sampled_from(
            [("int", "np.int64"), ("float", "np.float64"), ("float",), ("np.float64",), _KINDS]
        )
    )
    value = st.sampled_from(families).flatmap(_typed)
    acc = draw(value)
    events = draw(st.lists(value, max_size=24))
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=3)))
    bounds = [0, *cuts, len(events)]
    chunks = [events[a:b] for a, b in zip(bounds, bounds[1:])]
    return op, acc, events, chunks


#: a chunk mixing families: NumPy rounds the int to compare it with the
#: np.float64 (a tie), Python compares it with the float exactly (a win)
_MIXED = [np.float64(2.0**53 + 4), 2**53 + 3]


@given(reduction_cases())
@example(("min", 2.0**53 + 4, _MIXED, [_MIXED]))
# the int event of chunk 1 wins, so chunk 2's float partial meets an int
@example(
    (
        "min",
        2.0**53 + 2,
        [2**53 + 1, np.float64(2.0**53), 2.0**53],
        [[2**53 + 1], [np.float64(2.0**53), 2.0**53]],
    )
)
@settings(max_examples=600, deadline=None)
def test_pack_and_replay_equal_the_sequential_loop(case):
    op, acc, events, chunks = case
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        packs = [_pack(op, acc, list(chunk)) for chunk in chunks]
        try:
            want = _seq(op, acc, events)
        except Exception as exc:  # e.g. an int too large for np.int64
            with pytest.raises(type(exc)):
                _replay(op, acc, packs)
            return
        try:
            got = _replay(op, acc, packs)
        except _ChunkError as exc:
            # the engine replays the activation serially, which is exact
            # by construction; only mixed types may get here
            assert exc.program
            assert len({type(v) for v in (acc, *events)}) > 1
            return
    nan_met_nan = op in ("+", "-", "*") and any(e != e for e in events)
    assert _identical(got, want, nan_met_nan), (op, acc, events, [p[0] for p in packs], got, want)


def test_packs_carry_no_per_iteration_tuples():
    events = [np.float64(x) for x in (0.5, -1.0, 2.0)]
    assert _pack("+", 0.25, events)[0] == "accumulate"
    assert _pack("min", np.inf, events) == ("best", np.float64(-1.0))
    assert _pack("max", -np.inf, [float("nan"), *events]) == ("best", np.float64(2.0))
    assert _pack("+", 0, [1, 2]) == ("list", [1, 2])  # integers: the ordered values
    assert _pack("+", 0.25, [*events, np.float64("nan")])[0] == "list"


# -- the real fabric ----------------------------------------------------------

REDUCE_SRC = """
void red(double a[], int b[], double s, double p, double lo, double hi, int c, int n)
{
    int i;
    double t;
    for (i = 0; i < n; i++) {
        t = a[i] * 2.0;
        s = s + t;
        p = p * a[i];
        lo = min(lo, t);
        hi = max(hi, t);
        c = c - b[i];
    }
}
"""


@pytest.mark.parametrize("workers", [2, 3])
def test_fabric_leg_is_byte_identical(workers):
    if not HAVE_FORK:
        pytest.skip("the fabric needs the fork start method")
    func = build_function(REDUCE_SRC)
    rng = np.random.default_rng(workers)
    n = 600
    a = rng.uniform(-2.0, 2.0, size=n)
    a[rng.integers(0, n, size=12)] = rng.choice([np.nan, 0.0, -0.0, np.inf, 5e-324], size=12)
    base = {
        "a": a,
        "b": rng.integers(-9, 10, size=n).astype(np.int64),
        "s": 0.25,
        "p": 1.0,
        "lo": np.inf,
        "hi": -np.inf,
        "c": 7,
        "n": n,
    }
    ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}
    with np.errstate(all="ignore"):
        run_function(func, ref)
        pf = compile_parallel(func)
        env = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}
        pf.run(env, workers=workers, mp_min_trips=1)
    assert pf.last_counters["mp_chunks"] == workers  # the fabric really ran
    for name in ("s", "p", "lo", "hi", "c", "t"):
        assert _identical(env[name], ref[name]), (name, env[name], ref[name])
