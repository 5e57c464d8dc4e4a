"""Compiled runtime backend: one-pass lowering of the mini-C IR to
nested Python closures, with a batched NumPy trace protocol.

The tree-walking :mod:`repro.runtime.interpreter` pays, on every executed
node, for ``isinstance`` dispatch, attribute lookups, the
``_Break``/``_Continue`` exception machinery, and — under the oracle —
one Python callback per array-element access.  This module removes all
four costs while keeping the observable semantics identical:

* **Closure lowering** — :func:`compile_function` walks the IR once and
  emits, per node, a closure ``(env, rt) -> value`` (expressions) or
  ``(env, rt) -> signal`` (statements) that captures its compiled
  children.  Dispatch happens once at compile time; at run time each
  node is a direct call.  ``break``/``continue``/``return`` become
  sentinel return values threaded through block closures instead of
  exceptions.
* **Batched tracing** — instead of the interpreter's per-access
  ``Recorder`` callback, the compiled runtime appends
  ``(array_id, flat_index, is_write, activation, iteration)`` rows into
  the preallocated NumPy column buffers of a :class:`TraceBuffer`.  The
  oracle consumes the columns with vectorized ``np.unique``/join logic
  (see :mod:`repro.runtime.oracle`) instead of millions of callbacks.
  Rows are recorded exactly when the interpreter's recorder would have
  been invoked with a non-``None`` iteration, so per-activation conflict
  scoping is bit-identical.
* **Vectorized fast path** — an innermost counted loop whose body is
  straight-line array assignments (no ifs/calls/breaks, targets written
  at most once, written arrays never read in the body) is executed as
  whole-array NumPy operations: the loop variable becomes an
  ``np.arange`` vector, gathers/scatters become fancy indexing, and
  trace rows are appended as whole blocks.  So is a perfect two-deep
  nest whose inner loop has such a body and constant bounds with fewer
  than :data:`VEC_MIN_TRIPS` trips (``a[inv[i]][j] = i + j`` with ``j <
  8``): its iteration space is the outer-major product of the two
  ranges, one vector activation for the whole nest.  Any condition the
  fast path cannot reproduce exactly at run time (out-of-bounds access,
  zero divisor, non-integer index, step-budget exhaustion mid-loop, a
  written array that may share memory with another array of the loop)
  falls back to the scalar closure loop, which replays the activation
  from scratch with unchanged semantics — including partial side
  effects before a raised :class:`~repro.errors.InterpreterError`.

What a closure would otherwise re-decide on every execution is decided
once, at lowering (every engine inherits this: the ``compiled`` engine,
the ``parallel`` engine's serial paths and fabric chunks, and the
oracle):

* **Subscripts** — a one-subscript access whose subscript is a variable
  or a variable ± a constant reads the index straight from ``env``; a
  two-subscript access has its own locate; every index and bound
  conversion tries ``int`` and ``np.int64`` inline before
  :func:`_as_int`'s ``isinstance`` chain.
* **Constants** — ``+ - *`` and the comparisons capture a constant
  right operand instead of calling a closure for it.
* **Trace mode** — an activation of the loop the trace observes runs the
  *observed* iteration loop, which numbers the activation and tags every
  iteration; every other activation runs the *plain* one, with no
  tracing branch.  Both share the body closure, the ``rt.steps``
  accounting and the loop variable's exit value.
* **Vector bounds** — a subscript affine in the loop variable is
  monotone over the iteration vector, so the vector path bounds-checks
  and overflow-checks it from its two endpoints; only a gathered
  (subscripted) index vector, or one that reads a nest's inner
  variable (which restarts every row), is still reduced with
  ``min``/``max``.

Every access closure checks in the interpreter's ``_locate`` order: the
array binding, then each subscript (evaluated and converted in order),
then the rank, then the bounds of each dimension; the exception classes
and messages are the interpreter's (``tests/test_closure_parity.py``
pins every failure on every engine).

Divergence from the interpreter (documented, not observable through the
oracle or kernel outputs): the ``max_steps`` budget is enforced at loop
granularity (≈ one tick per statement per iteration) rather than per
node, so the exact step count at which a runaway loop is cut off may
differ slightly; and a value too large for an int64 array element fails
the store with NumPy's ``OverflowError`` (direct indexed assignment)
where the interpreter's ``.flat`` assignment raises ``ValueError`` —
same failure point, same partial effects, different exception class.
A comparison of values outside the language's domain (a string, or
``None``) raises Python's error for that comparison, where the
interpreter, which evaluates all six comparisons of a pair before
picking one, raises the error of ``<`` (and fails an ``==`` whose ``<``
fails).
Int arithmetic *inside* the vectorized fast path never wraps: the
iteration vector itself stays inside int64, every op bounds its operands
exactly (Python ints from a ``min``/``max`` reduction, or from the two
endpoints of an affine operand) and falls back to the scalar replay when
a result could leave int64.  A comparison of an int past 2^53 with a
float falls back too: NumPy converts the int, where the scalar path
compares a loop variable (a Python int) exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import InterpreterError
from repro.ir.nodes import (
    IArrayRef,
    IBin,
    ICall,
    IConst,
    IExpr,
    IFloat,
    IRFunction,
    IUn,
    IVar,
    SAssign,
    SBreak,
    SCall,
    SContinue,
    SIf,
    SLoop,
    SReturn,
    SWhile,
    Stmt,
)

#: Minimum trip count before the vectorized fast path is attempted.
#: Below it, the vector path's fixed cost per activation (an ``arange``,
#: then per statement a fancy index, bounds and overflow checks and a
#: NumPy op or two) exceeds what the scalar closures spend on the trips.
#: Measured on a 2-vCPU x86-64 host (CPython 3.11, NumPy 2.4) by the
#: ``vector_crossover`` section of ``repro bench`` over three loop
#: shapes (``b[i] = a[i] + 1``, ``p[j] = v[j] * w[j]``,
#: ``g[i] = v[idx[i]] + 1``), untraced, in six runs:
#:
#: * the scalar loop costs 1.1–2.7 µs per trip;
#: * the vector path costs 14–35 µs per activation, plus 0.01–0.05 µs
#:   per trip;
#: * the two cross at 12–16 trips; the median of the 18 shape-runs is
#:   13 (12: 3, 13: 9, 14: 5, 16: 1).
#:
#: A constant-row nest gates on its total trips (outer × inner).  The
#: fourth shape, ``r[i][j] = v[i] + j`` over rows of ``j < 4``, timed in
#: total trips in five runs on the same host: the scalar loops cost
#: 1.9–4.0 µs per trip, the vector path 25–51 µs per activation, and the
#: two cross at 11–14 trips (median 13), with the single loops of the
#: same runs at 11–15; so this one constant gates both.
#:
#: Both paths' costs swing together with the host's speed, so the
#: crossover is steadier than either.  Like
#: :data:`~repro.runtime.parallel.VECTOR_MIN_TRIPS`, this is a constant,
#: not a measurement, so which path an activation takes never depends
#: on timing.
VEC_MIN_TRIPS = 13

# control-flow signals (replace the interpreter's exceptions on the hot path)
_BREAK = object()
_CONTINUE = object()
_RETURN = object()


class _VecFallback(Exception):
    """Internal: the vectorized fast path cannot reproduce this
    activation exactly — replay it through the scalar closures."""


# --------------------------------------------------------------------------
# batched trace buffer
# --------------------------------------------------------------------------


class TraceBuffer:
    """Preallocated, growable NumPy column store for access records.

    One row per recorded array access:
    ``(array_id, flat_index, is_write, activation, iteration)``.
    ``array_id`` indexes :attr:`names`.  Scalar appends come from the
    compiled scalar path; the vectorized fast path appends whole blocks.
    """

    __slots__ = ("names", "cap", "n", "arr", "flat", "write", "act", "idx")

    def __init__(self, names: Sequence[str], capacity: int = 4096) -> None:
        self.names = list(names)
        self.cap = max(int(capacity), 16)
        self.n = 0
        self.arr = np.empty(self.cap, dtype=np.int32)
        self.flat = np.empty(self.cap, dtype=np.int64)
        self.write = np.empty(self.cap, dtype=np.bool_)
        self.act = np.empty(self.cap, dtype=np.int64)
        self.idx = np.empty(self.cap, dtype=np.int64)

    def _grow(self, need: int) -> None:
        cap = self.cap
        while cap < need:
            cap *= 2
        for name in ("arr", "flat", "write", "act", "idx"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)
        self.cap = cap

    def append(self, aid: int, flat: int, is_write: bool, act: int, idx: int) -> None:
        n = self.n
        if n >= self.cap:
            self._grow(n + 1)
        self.arr[n] = aid
        self.flat[n] = flat
        self.write[n] = is_write
        self.act[n] = act
        self.idx[n] = idx
        self.n = n + 1

    def extend(self, aid: int, flats: Any, is_write: bool, acts: Any, idxs: Any, m: int) -> None:
        """Append ``m`` rows at once; ``flats``/``acts``/``idxs`` may be
        scalars (broadcast) or length-``m`` vectors."""
        n = self.n
        need = n + m
        if need > self.cap:
            self._grow(need)
        sl = slice(n, need)
        self.arr[sl] = aid
        self.flat[sl] = flats
        self.write[sl] = is_write
        self.act[sl] = acts
        self.idx[sl] = idxs
        self.n = need

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Trimmed views ``(array_id, flat, is_write, activation, iteration)``."""
        n = self.n
        return (
            self.arr[:n],
            self.flat[:n],
            self.write[:n],
            self.act[:n],
            self.idx[:n],
        )


# --------------------------------------------------------------------------
# run-time state
# --------------------------------------------------------------------------


#: :attr:`_Rt.dispatch_min` of a run no dispatch hook may take: every
#: int trip count compares below it
_NEVER = float("inf")


class _Rt:
    """Mutable per-run state threaded through every closure."""

    __slots__ = (
        "trace",
        "observe",
        "cur",
        "activations",
        "steps",
        "max_steps",
        "retval",
        "vec_activations",
        "vec_fallbacks",
        "dispatch_min",
        "par",
    )

    def __init__(self, trace: TraceBuffer | None, observe: str | None, max_steps: int) -> None:
        self.trace = trace
        self.observe = observe
        self.cur: tuple[int, int] | None = None  # (activation, iteration) of the observed loop
        self.activations = 0
        self.steps = 0
        self.max_steps = max_steps
        self.retval: Any = None
        self.vec_activations = 0
        self.vec_fallbacks = 0
        #: a scheduled loop calls its dispatch hook for an activation of
        #: at least this many trips (never, unless the parallel engine
        #: arms the run), and the hook keeps its run state in ``par``
        self.dispatch_min: "int | float" = _NEVER
        self.par: Any = None


def rollback_point(
    env: dict[str, Any], arrays: Iterable[str], rt: "_Rt | None" = None
) -> Callable[[], None]:
    """The one rollback of every fallback rung in the runtime: capture
    what a failed run must undo, and return the undo.

    ``restore()`` copies each array named in ``arrays`` back *in place*
    (one copy per array object; non-array names are skipped, so passing
    ``env`` names every array binding), puts every binding of ``env``
    back as it was (keys the failed run added go away, changed scalars
    are reset), and, given ``rt``, resets its step and vector counters."""
    saved = dict(env)
    copies = []
    seen: set[int] = set()
    for name in arrays:
        arr = saved.get(name)
        if isinstance(arr, np.ndarray) and id(arr) not in seen:
            seen.add(id(arr))
            copies.append((arr, arr.copy()))
    counters = None if rt is None else (rt.steps, rt.vec_activations, rt.vec_fallbacks)

    def restore() -> None:
        for arr, copy in copies:
            arr[...] = copy
        env.clear()
        env.update(saved)
        if counters is not None:
            rt.steps, rt.vec_activations, rt.vec_fallbacks = counters

    return restore


class RunStats:
    """Counters from one :meth:`CompiledFunction.run` call."""

    __slots__ = ("steps", "activations", "vec_activations", "vec_fallbacks")

    def __init__(self, rt: _Rt) -> None:
        self.steps = rt.steps
        self.activations = rt.activations
        self.vec_activations = rt.vec_activations
        self.vec_fallbacks = rt.vec_fallbacks


_INT64 = np.int64


def _as_int(v: Any) -> int:
    """The interpreter's index/bound conversion.  Hot closures test
    ``type(v) is int`` and ``type(v) is _INT64`` inline first and call
    this only for the other types."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise InterpreterError(f"expected integer, got {v!r}")


def _unbound(name: str) -> InterpreterError:
    return InterpreterError(f"unbound variable {name}")


def _not_array(name: str) -> InterpreterError:
    return InterpreterError(f"{name} is not an array")


def _index_error(name: str, arr: np.ndarray, idx: tuple) -> InterpreterError:
    """The interpreter's error for subscripts ``idx`` of ``arr`` that
    failed an access closure's combined rank-and-bounds test: a rank
    mismatch first, then the first dimension out of bounds."""
    if len(idx) == arr.ndim:
        for d, i in enumerate(idx):
            if not 0 <= i < arr.shape[d]:
                return InterpreterError(
                    f"{name}: index {i} out of bounds for dim {d} (size {arr.shape[d]})"
                )
    return InterpreterError(
        f"{name}: rank mismatch ({len(idx)} subscripts, {arr.ndim} dims)"
    )


def _budget_error(rt: "_Rt") -> InterpreterError:
    return InterpreterError(f"step budget exceeded ({rt.max_steps})")


def _var_offset(e: IExpr) -> "tuple[str, Any, bool] | None":
    """A subscript the access closures read straight from ``env``:
    ``(v, None, True)`` for ``v``, ``(v, c, plus)`` for ``v + c`` or
    ``v - c`` with a constant ``c``; ``None`` for any other shape."""
    if isinstance(e, IVar):
        return e.name, None, True
    if (
        isinstance(e, IBin)
        and e.op in ("+", "-")
        and isinstance(e.left, IVar)
        and isinstance(e.right, (IConst, IFloat))
    ):
        return e.left.name, e.right.value, e.op == "+"
    return None


def _is_int_like(v: Any) -> bool:
    if isinstance(v, np.ndarray):
        return issubclass(v.dtype.type, np.integer)
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# --------------------------------------------------------------------------
# the compiler
# --------------------------------------------------------------------------


ExprFn = Callable[[dict, _Rt], Any]
StmtFn = Callable[[dict, _Rt], Any]
VecFn = Callable[[dict, Any, list], Any]

#: the vector closure of the loop variable at each position of ``ivs``
#: (shared: a plan allocates none of its own)
_LOOP_VECTORS: tuple[VecFn, ...] = (
    lambda env, ivs, reads: ivs[0],
    lambda env, ivs, reads: ivs[1],
)

_VEC_ARITH = {"+", "-", "*", "/", "%"}
_VEC_CMP = {"<", "<=", ">", ">=", "==", "!="}

#: ``+ - *`` and the comparisons over a constant right operand: the
#: constant is captured at lowering instead of fetched by a closure call
_CONST_RIGHT: dict[str, Callable[[ExprFn, Any], ExprFn]] = {
    "+": lambda f, c: lambda env, rt: f(env, rt) + c,
    "-": lambda f, c: lambda env, rt: f(env, rt) - c,
    "*": lambda f, c: lambda env, rt: f(env, rt) * c,
    "<": lambda f, c: lambda env, rt: 1 if f(env, rt) < c else 0,
    "<=": lambda f, c: lambda env, rt: 1 if f(env, rt) <= c else 0,
    ">": lambda f, c: lambda env, rt: 1 if f(env, rt) > c else 0,
    ">=": lambda f, c: lambda env, rt: 1 if f(env, rt) >= c else 0,
    "==": lambda f, c: lambda env, rt: 1 if f(env, rt) == c else 0,
    "!=": lambda f, c: lambda env, rt: 1 if f(env, rt) != c else 0,
}


class _Compiler:
    def __init__(self, func: IRFunction) -> None:
        self.func = func
        self.array_ids: dict[str, int] = {}

    def _aid(self, name: str) -> int:
        if name not in self.array_ids:
            self.array_ids[name] = len(self.array_ids)
        return self.array_ids[name]

    # -- expressions --------------------------------------------------------
    def expr(self, e: IExpr) -> ExprFn:
        if isinstance(e, (IConst, IFloat)):
            v = e.value
            return lambda env, rt: v
        if isinstance(e, IVar):
            name = e.name

            def var(env: dict, rt: _Rt) -> Any:
                try:
                    return env[name]
                except KeyError:
                    raise _unbound(name) from None

            return var
        if isinstance(e, IArrayRef):
            return self._aref_read(e)
        if isinstance(e, IUn):
            f = self.expr(e.operand)
            if e.op == "-":
                return lambda env, rt: -f(env, rt)
            if e.op == "!":
                return lambda env, rt: 0 if f(env, rt) else 1
            raise InterpreterError(f"unknown unary {e.op}")
        if isinstance(e, IBin):
            return self._binop(e)
        if isinstance(e, ICall):
            return self._call(e)
        raise InterpreterError(f"cannot compile {e!r}")

    def _binop(self, e: IBin) -> ExprFn:
        op = e.op
        lf = self.expr(e.left)
        if op in _CONST_RIGHT and isinstance(e.right, (IConst, IFloat)):
            return _CONST_RIGHT[op](lf, e.right.value)
        rf = self.expr(e.right)
        if op == "&&":
            return lambda env, rt: 1 if (lf(env, rt) and rf(env, rt)) else 0
        if op == "||":
            return lambda env, rt: 1 if (lf(env, rt) or rf(env, rt)) else 0
        if op == "+":
            return lambda env, rt: lf(env, rt) + rf(env, rt)
        if op == "-":
            return lambda env, rt: lf(env, rt) - rf(env, rt)
        if op == "*":
            return lambda env, rt: lf(env, rt) * rf(env, rt)
        if op == "/":

            def div(env: dict, rt: _Rt) -> Any:
                a = lf(env, rt)
                b = rf(env, rt)
                if b == 0:
                    raise InterpreterError("division by zero")
                if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                    q = abs(a) // abs(b)
                    return q if (a >= 0) == (b >= 0) else -q  # C truncation
                return a / b

            return div
        if op == "%":

            def rem(env: dict, rt: _Rt) -> Any:
                a = lf(env, rt)
                b = rf(env, rt)
                if b == 0:
                    raise InterpreterError("modulo by zero")
                r = abs(a) % abs(b)
                return r if a >= 0 else -r  # C sign semantics

            return rem
        if op == "<":
            return lambda env, rt: 1 if lf(env, rt) < rf(env, rt) else 0
        if op == "<=":
            return lambda env, rt: 1 if lf(env, rt) <= rf(env, rt) else 0
        if op == ">":
            return lambda env, rt: 1 if lf(env, rt) > rf(env, rt) else 0
        if op == ">=":
            return lambda env, rt: 1 if lf(env, rt) >= rf(env, rt) else 0
        if op == "==":
            return lambda env, rt: 1 if lf(env, rt) == rf(env, rt) else 0
        if op == "!=":
            return lambda env, rt: 1 if lf(env, rt) != rf(env, rt) else 0
        raise InterpreterError(f"unknown operator {op}")

    _BUILTINS: dict[str, Callable[..., Any]] = {
        "abs": lambda x: abs(x),
        "min": lambda a, b: min(a, b),
        "max": lambda a, b: max(a, b),
        "printf": lambda *a: 0,
    }

    def _call(self, e: ICall) -> ExprFn:
        # the interpreter silently drops IVar arguments that are not
        # bound in the environment (printf-style calls); replicate that
        pairs = tuple(
            (self.expr(a), a.name if isinstance(a, IVar) else None) for a in e.args
        )
        fn = self._BUILTINS.get(e.name)
        if fn is None:
            name = e.name

            def unknown(env: dict, rt: _Rt) -> Any:
                raise InterpreterError(f"call to unknown function {name!r}")

            return unknown

        def call(env: dict, rt: _Rt) -> Any:
            args = [c(env, rt) for c, nm in pairs if nm is None or nm in env]
            return fn(*args)

        return call

    # -- array accesses -----------------------------------------------------
    #
    # Every access closure checks in the interpreter's ``_locate`` order:
    # the array binding, then each subscript (evaluated and converted in
    # order), then the rank, then the bounds of each dimension.  The
    # rank and bounds tests run as one condition on the hot path;
    # :func:`_index_error` sorts a failure into the interpreter's error.

    def _locate(self, ref: IArrayRef) -> Callable[[dict, _Rt], tuple[np.ndarray, int]]:
        """Closure computing ``(array, flat_index)`` for a reference with
        three or more subscripts (one and two are lowered apart)."""
        name = ref.array
        idx_fns = tuple(self.expr(i) for i in ref.indices)

        def locate(env: dict, rt: _Rt) -> tuple[np.ndarray, int]:
            arr = env.get(name)
            if not isinstance(arr, np.ndarray):
                raise _not_array(name)
            idx = []
            for f in idx_fns:
                i = f(env, rt)
                if type(i) is not int:
                    i = int(i) if type(i) is _INT64 else _as_int(i)
                idx.append(i)
            shape = arr.shape
            if len(shape) != len(idx):
                raise _index_error(name, arr, tuple(idx))
            flat = 0
            for d, i in enumerate(idx):
                if not 0 <= i < shape[d]:
                    raise _index_error(name, arr, tuple(idx))
                flat = flat * shape[d] + i
            return arr, flat

        return locate

    def _locate2(self, ref: IArrayRef) -> Callable[[dict, _Rt], tuple[np.ndarray, int, int]]:
        """Closure computing ``(array, i, j)`` for a two-subscript
        reference."""
        name = ref.array
        f0 = self.expr(ref.indices[0])
        f1 = self.expr(ref.indices[1])

        def locate2(env: dict, rt: _Rt) -> tuple[np.ndarray, int, int]:
            arr = env.get(name)
            if not isinstance(arr, np.ndarray):
                raise _not_array(name)
            i = f0(env, rt)
            if type(i) is not int:
                i = int(i) if type(i) is _INT64 else _as_int(i)
            j = f1(env, rt)
            if type(j) is not int:
                j = int(j) if type(j) is _INT64 else _as_int(j)
            if arr.ndim != 2:
                raise _index_error(name, arr, (i, j))
            n0, n1 = arr.shape
            if not (0 <= i < n0 and 0 <= j < n1):
                raise _index_error(name, arr, (i, j))
            return arr, i, j

        return locate2

    def _aref_read(self, e: IArrayRef) -> ExprFn:
        aid = self._aid(e.array)
        name = e.array
        rank = len(e.indices)
        if rank == 2:
            locate2 = self._locate2(e)

            def read2(env: dict, rt: _Rt) -> Any:
                arr, i, j = locate2(env, rt)
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, i * arr.shape[1] + j, False, cur[0], cur[1])
                return arr[i, j]

            return read2
        if rank != 1:
            locate = self._locate(e)

            def read(env: dict, rt: _Rt) -> Any:
                arr, flat = locate(env, rt)
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, flat, False, cur[0], cur[1])
                return arr.flat[flat]

            return read
        sub = _var_offset(e.indices[0])
        if sub is None:
            idx0 = self.expr(e.indices[0])

            def read1(env: dict, rt: _Rt) -> Any:
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    raise _not_array(name)
                i = idx0(env, rt)
                if type(i) is not int:
                    i = int(i) if type(i) is _INT64 else _as_int(i)
                if arr.ndim != 1 or not 0 <= i < len(arr):
                    raise _index_error(name, arr, (i,))
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, i, False, cur[0], cur[1])
                return arr[i]

            return read1
        v, c, plus = sub
        if c is None:

            def read1_var(env: dict, rt: _Rt) -> Any:
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    raise _not_array(name)
                try:
                    i = env[v]
                except KeyError:
                    raise _unbound(v) from None
                if type(i) is not int:
                    i = int(i) if type(i) is _INT64 else _as_int(i)
                if arr.ndim != 1 or not 0 <= i < len(arr):
                    raise _index_error(name, arr, (i,))
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, i, False, cur[0], cur[1])
                return arr[i]

            return read1_var

        def read1_offset(env: dict, rt: _Rt) -> Any:
            arr = env.get(name)
            if not isinstance(arr, np.ndarray):
                raise _not_array(name)
            try:
                i = env[v]
            except KeyError:
                raise _unbound(v) from None
            i = i + c if plus else i - c
            if type(i) is not int:
                i = int(i) if type(i) is _INT64 else _as_int(i)
            if arr.ndim != 1 or not 0 <= i < len(arr):
                raise _index_error(name, arr, (i,))
            cur = rt.cur
            if cur is not None and rt.trace is not None:
                rt.trace.append(aid, i, False, cur[0], cur[1])
            return arr[i]

        return read1_offset

    # -- statements ---------------------------------------------------------
    def block(self, stmts: list[Stmt]) -> StmtFn:
        fns = tuple(self.stmt(s) for s in stmts)
        if len(fns) == 1:
            return fns[0]

        def blk(env: dict, rt: _Rt) -> Any:
            for f in fns:
                sig = f(env, rt)
                if sig is not None:
                    return sig
            return None

        return blk

    def stmt(self, s: Stmt) -> StmtFn:
        if isinstance(s, SAssign):
            return self._assign(s)
        if isinstance(s, SIf):
            cf = self.expr(s.cond)
            tb = self.block(s.then)
            if not s.other:
                return lambda env, rt: tb(env, rt) if cf(env, rt) else None
            ob = self.block(s.other)
            return lambda env, rt: tb(env, rt) if cf(env, rt) else ob(env, rt)
        if isinstance(s, SLoop):
            return self._loop(s)
        if isinstance(s, SWhile):
            return self._while(s)
        if isinstance(s, SCall):
            cf = self.expr(s.call)

            def callstmt(env: dict, rt: _Rt) -> Any:
                cf(env, rt)
                return None

            return callstmt
        if isinstance(s, SReturn):
            if s.value is None:
                def retnone(env: dict, rt: _Rt) -> Any:
                    rt.retval = None
                    return _RETURN

                return retnone
            vf = self.expr(s.value)

            def ret(env: dict, rt: _Rt) -> Any:
                rt.retval = vf(env, rt)
                return _RETURN

            return ret
        if isinstance(s, SBreak):
            return lambda env, rt: _BREAK
        if isinstance(s, SContinue):
            return lambda env, rt: _CONTINUE
        raise InterpreterError(f"cannot compile {s!r}")

    def _assign(self, s: SAssign) -> StmtFn:
        vf = self.expr(s.value)
        if isinstance(s.target, IVar):
            name = s.target.name

            def setvar(env: dict, rt: _Rt) -> Any:
                env[name] = vf(env, rt)
                return None

            return setvar
        aid = self._aid(s.target.array)
        name = s.target.array
        rank = len(s.target.indices)
        if rank == 2:
            locate2 = self._locate2(s.target)

            def store2(env: dict, rt: _Rt) -> Any:
                value = vf(env, rt)
                arr, i, j = locate2(env, rt)
                flat = i * arr.shape[1] + j
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, flat, True, cur[0], cur[1])
                arr.flat[flat] = value
                return None

            return store2
        if rank != 1:
            locate = self._locate(s.target)

            def store(env: dict, rt: _Rt) -> Any:
                value = vf(env, rt)
                arr, flat = locate(env, rt)
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, flat, True, cur[0], cur[1])
                arr.flat[flat] = value
                return None

            return store
        sub = _var_offset(s.target.indices[0])
        if sub is None:
            idx0 = self.expr(s.target.indices[0])

            def store1(env: dict, rt: _Rt) -> Any:
                value = vf(env, rt)
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    raise _not_array(name)
                i = idx0(env, rt)
                if type(i) is not int:
                    i = int(i) if type(i) is _INT64 else _as_int(i)
                if arr.ndim != 1 or not 0 <= i < len(arr):
                    raise _index_error(name, arr, (i,))
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, i, True, cur[0], cur[1])
                arr[i] = value
                return None

            return store1
        v, c, plus = sub
        if c is None:

            def store1_var(env: dict, rt: _Rt) -> Any:
                value = vf(env, rt)
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    raise _not_array(name)
                try:
                    i = env[v]
                except KeyError:
                    raise _unbound(v) from None
                if type(i) is not int:
                    i = int(i) if type(i) is _INT64 else _as_int(i)
                if arr.ndim != 1 or not 0 <= i < len(arr):
                    raise _index_error(name, arr, (i,))
                cur = rt.cur
                if cur is not None and rt.trace is not None:
                    rt.trace.append(aid, i, True, cur[0], cur[1])
                arr[i] = value
                return None

            return store1_var

        def store1_offset(env: dict, rt: _Rt) -> Any:
            value = vf(env, rt)
            arr = env.get(name)
            if not isinstance(arr, np.ndarray):
                raise _not_array(name)
            try:
                i = env[v]
            except KeyError:
                raise _unbound(v) from None
            i = i + c if plus else i - c
            if type(i) is not int:
                i = int(i) if type(i) is _INT64 else _as_int(i)
            if arr.ndim != 1 or not 0 <= i < len(arr):
                raise _index_error(name, arr, (i,))
            cur = rt.cur
            if cur is not None and rt.trace is not None:
                rt.trace.append(aid, i, True, cur[0], cur[1])
            arr[i] = value
            return None

        return store1_offset

    def _while(self, s: SWhile) -> StmtFn:
        cf = self.expr(s.cond)
        body = self.block(s.body)
        cost = len(s.body) + 1

        def wh(env: dict, rt: _Rt) -> Any:
            while cf(env, rt):
                rt.steps += cost
                if rt.steps > rt.max_steps:
                    raise _budget_error(rt)
                sig = body(env, rt)
                if sig is not None:
                    if sig is _BREAK:
                        break
                    if sig is not _CONTINUE:
                        return sig
            return None

        return wh

    def _var_modified(self, stmts: list[Stmt], var: str) -> bool:
        """May executing ``stmts`` rebind ``var``?  (The IR permits a
        body to modify its loop variable; when it provably cannot, the
        loop closure advances a local instead of re-reading the env.)"""
        for s in stmts:
            if isinstance(s, SAssign) and isinstance(s.target, IVar) and s.target.name == var:
                return True
            if isinstance(s, SLoop) and s.var == var:
                return True
            for b in s.blocks():
                if self._var_modified(b, var):
                    return True
        return False

    def _loop(self, s: SLoop) -> StmtFn:
        return self._counted_loop(s, self._vector_plan(s))

    def _counted_loop(
        self,
        s: SLoop,
        vec: "_VecPlan | None",
        dispatch: "Callable[[dict, _Rt, int, int, int], Any] | None" = None,
    ) -> StmtFn:
        """The loop closure ``loop(env, rt, lb=None, ub=0)``.  Called
        as a statement it evaluates its bounds itself; a caller that has
        already evaluated them passes them in (the *range entry*), so
        they are evaluated once per activation.

        ``dispatch`` is the parallel engine's hook for a scheduled loop.
        Called as a statement, that loop's closure also computes the
        activation's trip count ``m`` and, when ``m >= rt.dispatch_min``,
        hands the activation to ``dispatch(env, rt, lb, ub, m)`` instead
        of iterating.  The range entry never consults the hook: it is
        the serial path the hook itself falls back to.  Without a hook
        (every loop of the compiled engine) there is no trip count and
        no threshold test.

        Two iteration loops share the body closure, the ``rt.steps``
        accounting and the loop variable's exit value.  The *observed*
        one runs the activations of the loop ``rt.observe`` names: it
        numbers the activation and sets ``rt.cur`` around every
        iteration, so the accesses of the body record their trace rows.
        Every other activation runs the *plain* one, which has no
        tracing branch and, unless the body may rebind the loop
        variable, iterates a ``range``."""
        lbf = self.expr(s.lb)
        ubf = self.expr(s.ub)
        body = self.block(s.body)
        label = s.label
        var = s.var
        step = s.step
        up = step > 0
        cost = len(s.body) + 1
        var_dyn = self._var_modified(s.body, var)

        def observed(env: dict, rt: _Rt, lb: int, ub: int) -> Any:
            rt.activations += 1
            act = rt.activations
            if vec is not None and vec.execute(env, rt, lb, ub, act):
                return None
            i = lb
            it = 0
            outer = rt.cur
            while (i < ub) if up else (i > ub):
                rt.steps += cost
                if rt.steps > rt.max_steps:
                    raise _budget_error(rt)
                env[var] = i
                rt.cur = (act, it)
                sig = body(env, rt)
                rt.cur = outer
                if sig is not None:
                    if sig is _BREAK:
                        break
                    if sig is not _CONTINUE:
                        return sig
                # the body may have modified the loop variable
                i = (_as_int(env[var]) if var_dyn else i) + step
                it += 1
            env[var] = i
            return None

        if var_dyn or not step:  # range() refuses a zero step

            def plain(env: dict, rt: _Rt, lb: int, ub: int) -> Any:
                limit = rt.max_steps
                i = lb
                while (i < ub) if up else (i > ub):
                    rt.steps += cost
                    if rt.steps > limit:
                        raise _budget_error(rt)
                    env[var] = i
                    sig = body(env, rt)
                    if sig is not None:
                        if sig is _BREAK:
                            break
                        if sig is not _CONTINUE:
                            return sig
                    i = _as_int(env[var]) + step
                env[var] = i
                return None

        else:

            def plain(env: dict, rt: _Rt, lb: int, ub: int) -> Any:
                limit = rt.max_steps
                i = lb - step  # so that a zero-trip loop exits with lb
                for i in range(lb, ub, step):
                    rt.steps += cost
                    if rt.steps > limit:
                        raise _budget_error(rt)
                    env[var] = i
                    sig = body(env, rt)
                    if sig is not None:
                        if sig is _BREAK:
                            return None  # env[var] already holds i
                        if sig is not _CONTINUE:
                            return sig
                env[var] = i + step
                return None

        if dispatch is None or not step:  # a zero step has no trip count

            def loop(env: dict, rt: _Rt, lb: "int | None" = None, ub: int = 0) -> Any:
                if lb is None:
                    lb = lbf(env, rt)
                    if type(lb) is not int:
                        lb = int(lb) if type(lb) is _INT64 else _as_int(lb)
                    ub = ubf(env, rt)
                    if type(ub) is not int:
                        ub = int(ub) if type(ub) is _INT64 else _as_int(ub)
                if label == rt.observe:
                    return observed(env, rt, lb, ub)
                if vec is not None and vec.execute(env, rt, lb, ub, 0):
                    return None
                return plain(env, rt, lb, ub)

            return loop

        def scheduled(env: dict, rt: _Rt, lb: "int | None" = None, ub: int = 0) -> Any:
            if lb is None:
                lb = lbf(env, rt)
                if type(lb) is not int:
                    lb = int(lb) if type(lb) is _INT64 else _as_int(lb)
                ub = ubf(env, rt)
                if type(ub) is not int:
                    ub = int(ub) if type(ub) is _INT64 else _as_int(ub)
                if up:
                    m = (ub - lb + step - 1) // step if ub > lb else 0
                else:
                    m = (lb - ub - step - 1) // (-step) if lb > ub else 0
                if m >= rt.dispatch_min:
                    return dispatch(env, rt, lb, ub, m)
            if label == rt.observe:
                return observed(env, rt, lb, ub)
            if vec is not None and vec.execute(env, rt, lb, ub, 0):
                return None
            return plain(env, rt, lb, ub)

        return scheduled

    # -- vectorized fast path ----------------------------------------------
    def _vector_plan(self, s: SLoop) -> "_VecPlan | None":
        """Compile-time eligibility test + lowering for the whole-array
        fast path: a counted loop whose body is straight-line array
        assignments, or a perfect two-deep nest whose inner loop has
        such a body and constant bounds (:meth:`_constant_row`).
        Returns ``None`` when the loop shape is unsupported, or when
        constant bounds leave every activation under
        :data:`VEC_MIN_TRIPS` trips; run-time conditions are re-checked
        per activation by :meth:`_VecPlan.execute`."""
        if not s.step:
            return None  # no trip count: the scalar loop runs into the step budget
        body = s.body
        #: loop variable -> (its vector's position, its shape)
        loopvars = {s.var: (0, _AFFINE)}
        space = _Space(s.var, s.step, len(body) + 1)
        if len(body) == 1 and isinstance(body[0], SLoop):
            inner = body[0]
            row = self._constant_row(s, inner)
            if row is None:
                return None
            body = inner.body
            # the outer variable repeats along a row, so it stays
            # monotone; the inner one restarts every row
            loopvars[inner.var] = (1, _NONAFFINE)
            space = _Space(s.var, s.step, 2 + len(row) * (len(body) + 1), inner, row)
        trips = self._constant_trips(s)
        if trips is not None and len(trips) * space.k < VEC_MIN_TRIPS:
            return None  # no activation of it can take the vector path
        written: list[str] = []
        read_arrays: set[str] = set()
        for st in body:
            if not isinstance(st, SAssign):
                return None
            t = st.target
            if not isinstance(t, IArrayRef):
                return None
            written.append(t.array)
            for e in (st.value, *t.indices):
                read_arrays.update(
                    node.array for node in e.walk() if isinstance(node, IArrayRef)
                )
            if not self._vec_supported(st.value) or not all(
                self._vec_supported(ix) for ix in t.indices
            ):
                return None
        if len(set(written)) != len(written):
            return None  # two statements scatter into the same array
        if read_arrays & set(written):
            return None  # loop-carried through an array: stay sequential
        stmts = tuple(
            (
                st.target.array,
                self._aid(st.target.array),
                self._vec_subscripts(st.target, loopvars)[0],
                self._vec_expr(st.value, loopvars)[0],
            )
            for st in body
        )
        # every pair of names one of which the loop writes: distinct
        # names may still bind arrays that share memory at run time
        wset = set(written)
        pairs = tuple(
            (w, x)
            for w in sorted(wset)
            for x in sorted(wset | read_arrays)
            if x != w and (x not in wset or w < x)
        )
        return _VecPlan(space, stmts, pairs)

    def _constant_row(self, s: SLoop, inner: SLoop) -> "np.ndarray | None":
        """The inner variable's values over one row of the nest ``s``
        (``inner`` is its whole body): the inner loop needs its own
        variable and constant bounds (:meth:`_constant_trips`) with
        ``0 < K <`` :data:`VEC_MIN_TRIPS` trips (a longer row is
        vectorized on its own).  ``None`` when the nest does not
        qualify."""
        if inner.var == s.var:
            return None
        trips = self._constant_trips(inner)
        if trips is None or not 0 < len(trips) < VEC_MIN_TRIPS:
            return None
        try:
            return np.array(trips, dtype=np.int64)
        except OverflowError:
            return None  # the row leaves int64

    def _constant_trips(self, s: SLoop) -> "range | None":
        """The values the variable of ``s`` takes when its bounds read no
        variable, array or call, so they are known at lowering; ``None``
        when they read one, when ``s`` has no step, or when the scalar
        loop raises on its bounds."""
        bounds = (s.lb, s.ub)
        if not s.step or not all(
            isinstance(n, (IConst, IFloat, IUn, IBin)) for e in bounds for n in e.walk()
        ):
            return None
        try:
            # the scalar loop evaluates and converts them the same way
            lb, ub = (_as_int(self.expr(e)({}, None)) for e in bounds)  # type: ignore[arg-type]
            trips = range(lb, ub, s.step)
            len(trips)  # more trips than a C ssize_t holds: OverflowError
        except (InterpreterError, ArithmeticError):
            return None
        return trips

    def _vec_supported(self, e: IExpr) -> bool:
        if isinstance(e, (IConst, IFloat, IVar)):
            return True
        if isinstance(e, IArrayRef):
            return all(self._vec_supported(ix) for ix in e.indices)
        if isinstance(e, IUn):
            return e.op in ("-", "!") and self._vec_supported(e.operand)
        if isinstance(e, IBin):
            # && / || short-circuit per element in the interpreter (their
            # unevaluated side records no reads), so they are excluded
            if e.op not in _VEC_ARITH and e.op not in _VEC_CMP:
                return False
            return self._vec_supported(e.left) and self._vec_supported(e.right)
        return False

    def _vec_expr(self, e: IExpr, loopvars: dict[str, tuple[int, int]]) -> tuple[VecFn, int]:
        """Compile ``e`` to a vector closure ``(env, ivs, reads) ->
        value`` where ``ivs`` holds the loop variables' vectors (the
        iteration space's, :meth:`_Space.vectors`), ``loopvars`` maps
        each loop variable to its position in ``ivs`` and its shape, and
        ``reads`` collects ``(array_id, flat_indices)`` pairs in
        evaluation order.  Also returns the value's shape over the
        iteration space: :data:`_INVARIANT` (a scalar — the body of a
        vectorizable loop writes no scalar and never reads an array it
        writes), :data:`_AFFINE` (affine in a monotone loop variable with
        loop-invariant coefficients: monotone, so its extremes are its
        two endpoints, the vector path's int arithmetic being exact) or
        :data:`_NONAFFINE`."""
        if isinstance(e, (IConst, IFloat)):
            v = e.value
            return (lambda env, ivs, reads: v), _INVARIANT
        if isinstance(e, IVar):
            if e.name in loopvars:
                k, shape = loopvars[e.name]
                return _LOOP_VECTORS[k], shape
            name = e.name

            def vvar(env: dict, ivs: Any, reads: list) -> Any:
                try:
                    v = env[name]
                except KeyError:
                    raise _VecFallback from None
                if isinstance(v, np.ndarray):
                    raise _VecFallback  # whole-array scalar use: let the scalar path judge
                return v

            return vvar, _INVARIANT
        if isinstance(e, IArrayRef):
            name = e.array
            aid = self._aid(name)
            idx, kind = self._vec_subscripts(e, loopvars)

            def vread(env: dict, ivs: Any, reads: list) -> Any:
                arr = env.get(name)
                if not isinstance(arr, np.ndarray) or arr.ndim != len(idx):
                    raise _VecFallback
                idxs, flat = _vec_locate(arr, idx, env, ivs, reads)
                reads.append((aid, flat))
                return arr[idxs]

            return vread, kind
        if isinstance(e, IUn):
            f, kind = self._vec_expr(e.operand, loopvars)
            if e.op == "-":
                bound = _BOUNDERS[kind]
                return (lambda env, ivs, reads: _vec_neg(f(env, ivs, reads), bound)), kind

            def vnot(env: dict, ivs: Any, reads: list) -> Any:
                v = f(env, ivs, reads)
                r = v == 0
                return r.astype(np.int64) if isinstance(r, np.ndarray) else int(r)

            return vnot, (_INVARIANT if kind == _INVARIANT else _NONAFFINE)
        assert isinstance(e, IBin)
        op = e.op
        lf, ka = self._vec_expr(e.left, loopvars)
        rf, kb = self._vec_expr(e.right, loopvars)
        if ka == kb == _INVARIANT:
            kind = _INVARIANT
        elif op in ("+", "-") or (op == "*" and _INVARIANT in (ka, kb)):
            kind = max(ka, kb)
        else:
            kind = _NONAFFINE
        ba, bb = _BOUNDERS[ka], _BOUNDERS[kb]
        if op == "+":
            fn = lambda env, ivs, reads: _vec_add(lf(env, ivs, reads), rf(env, ivs, reads), 1, ba, bb)
        elif op == "-":
            fn = lambda env, ivs, reads: _vec_add(lf(env, ivs, reads), rf(env, ivs, reads), -1, ba, bb)
        elif op == "*":
            fn = lambda env, ivs, reads: _vec_mul(lf(env, ivs, reads), rf(env, ivs, reads), ba, bb)
        elif op == "/":
            fn = lambda env, ivs, reads: _vec_div(lf(env, ivs, reads), rf(env, ivs, reads), ba, bb)
        elif op == "%":
            fn = lambda env, ivs, reads: _vec_mod(lf(env, ivs, reads), rf(env, ivs, reads), ba, bb)
        else:

            def fn(env: dict, ivs: Any, reads: list) -> Any:
                a = lf(env, ivs, reads)
                b = rf(env, ivs, reads)
                if _inexact_mix(a, b, ba, bb):
                    raise _VecFallback
                r = _CMPS[op](a, b)
                return r.astype(np.int64) if isinstance(r, np.ndarray) else int(r)

        return fn, kind

    def _vec_subscripts(
        self, ref: IArrayRef, loopvars: dict[str, tuple[int, int]]
    ) -> tuple[tuple[tuple[VecFn, bool], ...], int]:
        """Per subscript: its vector closure, and whether its bounds may
        be checked from its endpoints (it is not a gathered or otherwise
        non-affine index, which a min/max reduction checks); and the
        shape of the reference's value (invariant or not)."""
        subs = [self._vec_expr(ix, loopvars) for ix in ref.indices]
        idx = tuple((f, kind != _NONAFFINE) for f, kind in subs)
        invariant = all(kind == _INVARIANT for _, kind in subs)
        return idx, (_INVARIANT if invariant else _NONAFFINE)


_CMPS: dict[str, Callable[[Any, Any], Any]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _vec_index(j: Any, size: int, ends: bool) -> Any:
    """Validate an index value/vector: integral and in ``[0, size)``.
    ``ends``: the vector is monotone, so its endpoints are its extremes.
    Returns a python int or an int64 vector; raises :class:`_VecFallback`
    otherwise (the scalar replay produces the exact error)."""
    if isinstance(j, np.ndarray):
        if not issubclass(j.dtype.type, np.integer):
            raise _VecFallback
        if ends:
            lo, hi = int(j[0]), int(j[-1])
            if lo > hi:
                lo, hi = hi, lo
        else:
            lo, hi = int(j.min()), int(j.max())
        if lo < 0 or hi >= size:
            raise _VecFallback
        return j
    if isinstance(j, (int, np.integer)) and not isinstance(j, bool):
        j = int(j)
        if not 0 <= j < size:
            raise _VecFallback
        return j
    raise _VecFallback


def _vec_locate(
    arr: np.ndarray, idx: tuple, env: dict, ivs: Any, reads: list
) -> tuple[tuple, Any]:
    """Evaluate and validate one index value/vector per dimension
    (``idx`` as :meth:`_Compiler._vec_subscripts` builds it).
    Returns ``(index_tuple, flat)``: the tuple drives the NumPy access,
    ``flat`` is the row-major flat index the trace protocol records —
    identical to the interpreter's ``_locate``.  The caller has already
    checked ``arr.ndim == len(idx)``; per-dimension bounds failures
    raise :class:`_VecFallback` (the scalar replay reproduces the exact
    error)."""
    idxs = []
    flat: Any = None
    for d, (f, ends) in enumerate(idx):
        j = _vec_index(f(env, ivs, reads), arr.shape[d], ends)
        idxs.append(j)
        flat = j if flat is None else flat * arr.shape[d] + j
    return tuple(idxs), flat


# -- overflow discipline ------------------------------------------------------
#
# The interpreter computes scalar intermediates as arbitrary-precision
# Python ints; the vector path computes in int64, which *wraps* silently.
# Every int arithmetic op therefore bounds its operands exactly — by
# min/max reductions, or from the two endpoints of an operand affine in
# the loop variable (:meth:`_Compiler._vec_expr`; the iteration vector
# never wraps, see :meth:`_VecPlan.run`, so such an operand is monotone)
# — and falls back to the scalar replay whenever a result could leave
# int64.  The replay then reproduces the interpreter bit-for-bit,
# including the store-time error an oversized value provokes.  Float
# arithmetic needs no guard (both engines use IEEE doubles elementwise),
# but a non-finite or int64-oversized float must not reach an int-array
# commit (checked in :meth:`_VecPlan.run`).

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


def _vec_bound(x: Any) -> int:
    """Exact max-abs of an int-like operand, as a Python int."""
    if isinstance(x, np.ndarray):
        if x.size == 0:
            return 0
        return max(abs(int(x.min())), abs(int(x.max())))
    return abs(int(x))


def _vec_ends(x: Any) -> int:
    """:func:`_vec_bound` of a monotone operand (an affine vector, never
    empty on the vector path), from its two endpoints."""
    if isinstance(x, np.ndarray):
        return max(abs(int(x[0])), abs(int(x[-1])))
    return abs(int(x))


Bounder = Callable[[Any], int]

#: a value's shape over the iteration vector (:meth:`_Compiler._vec_expr`)
_INVARIANT, _AFFINE, _NONAFFINE = 0, 1, 2

#: how the overflow checks bound an operand of each shape
_BOUNDERS: dict[int, Bounder] = {
    _INVARIANT: _vec_ends,
    _AFFINE: _vec_ends,
    _NONAFFINE: _vec_bound,
}


def _vec_add(a: Any, b: Any, sign: int, ba: Bounder, bb: Bounder) -> Any:
    if _is_int_like(a) and _is_int_like(b):
        if ba(a) + bb(b) > _INT64_MAX:
            raise _VecFallback
    return a + b if sign > 0 else a - b


def _vec_mul(a: Any, b: Any, ba: Bounder, bb: Bounder) -> Any:
    if _is_int_like(a) and _is_int_like(b):
        if ba(a) * bb(b) > _INT64_MAX:
            raise _VecFallback
    return a * b


def _vec_neg(a: Any, ba: Bounder) -> Any:
    if _is_int_like(a) and ba(a) > _INT64_MAX:
        raise _VecFallback  # negating int64.min wraps
    return -a


def _is_float_like(v: Any) -> bool:
    if isinstance(v, np.ndarray):
        return issubclass(v.dtype.type, np.floating)
    return isinstance(v, float)


#: every int of at most this magnitude converts to a float exactly
_FLOAT_EXACT = 2**53


def _inexact_mix(a: Any, b: Any, ba: Bounder, bb: Bounder) -> bool:
    """Would comparing ``a`` with ``b`` convert an int past 2^53 to a
    float?  NumPy compares an int vector with a float that way, where the
    scalar path compares a loop variable (a Python int) with a float
    exactly."""
    if _is_int_like(a) and _is_float_like(b):
        return ba(a) > _FLOAT_EXACT
    if _is_float_like(a) and _is_int_like(b):
        return bb(b) > _FLOAT_EXACT
    return False


def _vec_div(a: Any, b: Any, ba: Bounder, bb: Bounder) -> Any:
    scalar = not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray)
    if scalar:
        if b == 0:
            raise _VecFallback
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    if np.any(b == 0):
        raise _VecFallback
    if _is_int_like(a) and _is_int_like(b):
        if ba(a) > _INT64_MAX or bb(b) > _INT64_MAX:
            raise _VecFallback  # np.abs(int64.min) wraps
        q = np.abs(a) // np.abs(b)
        return np.where((a >= 0) == (b >= 0), q, -q)
    return a / b


def _vec_mod(a: Any, b: Any, ba: Bounder, bb: Bounder) -> Any:
    scalar = not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray)
    if scalar:
        if b == 0:
            raise _VecFallback
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    if np.any(b == 0):
        raise _VecFallback
    if _is_int_like(a) and _is_int_like(b):
        if ba(a) > _INT64_MAX or bb(b) > _INT64_MAX:
            raise _VecFallback  # np.abs(int64.min) wraps
    r = np.abs(a) % np.abs(b)
    return np.where(a >= 0, r, -r)


def _overlap(a: Any, b: Any) -> bool:
    """May arrays ``a`` and ``b`` share memory?  (False unless both are
    arrays; a bounds check only, so it may answer True for disjoint
    strided views.)"""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return False
    if a.base is None and b.base is None:
        return a is b  # an array that owns its memory shares it with no other
    return np.may_share_memory(a, b)


def _check_storable(val: Any, arr: np.ndarray) -> None:
    """Commit-phase precondition: storing ``val`` into ``arr`` must not
    be able to raise (a non-finite or int64-oversized float into an int
    array would), otherwise the activation must be replayed through the
    scalar path so the error lands with the interpreter's exact partial
    effects."""
    if issubclass(arr.dtype.type, np.integer):
        if isinstance(val, np.ndarray):
            if not issubclass(val.dtype.type, np.integer):
                if not np.isfinite(val).all() or np.any(np.abs(val) >= 2.0**63):
                    raise _VecFallback
        elif isinstance(val, float) and not (-(2.0**63) < val < 2.0**63):
            raise _VecFallback


class _Space:
    """The iteration space of a vector plan.  For one loop: its ``m``
    trips from ``lb`` by ``step``.  For a perfect nest whose inner loop
    runs the constant ``row`` of ``k`` values every outer trip: the
    ``m·k`` pairs of the two variables in sequential (outer-major)
    order, so a fancy store with duplicate indices still keeps the last
    iteration's value."""

    __slots__ = ("var", "step", "cost", "k", "row", "inner_var", "inner_exit", "inner_label")

    def __init__(
        self,
        var: str,
        step: int,
        cost: int,
        inner: "SLoop | None" = None,
        row: "np.ndarray | None" = None,
    ) -> None:
        self.var = var
        self.step = step
        #: steps one outer trip costs the scalar closures
        self.cost = cost
        #: the row as a 1 × k matrix, which repeats into the rows of m
        self.row = None if row is None else row.reshape(1, -1)
        self.k = 1 if row is None else len(row)
        if inner is not None:
            self.inner_var = inner.var
            self.inner_exit = int(row[-1]) + inner.step  # type: ignore[index]
            self.inner_label = inner.label

    def vectors(self, lb: int, m: int) -> "tuple[np.ndarray, ...] | None":
        """The loop variables' vectors over ``m >= 1`` outer trips from
        ``lb``, or ``None`` where the outer one would wrap in int64 (the
        row was built in int64 at lowering)."""
        step = self.step
        last = lb + (m - 1) * step
        if not (_INT64_MIN <= lb <= _INT64_MAX and _INT64_MIN <= last <= _INT64_MAX):
            return None
        iv = np.arange(lb, lb + m * step, step, dtype=np.int64)
        if self.row is None:
            return (iv,)
        # the methods cost a quarter of np.repeat and np.tile at these sizes
        return iv.repeat(self.k), self.row.repeat(m, 0).ravel()

    def exit(self, env: dict, lb: int, m: int) -> None:
        """Leave the loop variables as ``m >= 1`` sequential outer trips
        from ``lb`` leave them."""
        env[self.var] = lb + m * self.step
        if self.row is not None:
            env[self.inner_var] = self.inner_exit


class _VecPlan:
    """Run-time executor for one vectorizable loop or nest."""

    __slots__ = ("space", "stmts", "alias_pairs")

    def __init__(
        self,
        space: _Space,
        stmts: tuple[tuple[str, int, tuple[tuple[VecFn, bool], ...], VecFn], ...],
        alias_pairs: tuple[tuple[str, str], ...],
    ) -> None:
        self.space = space
        self.stmts = stmts
        #: (written, other) name pairs that must not share memory
        self.alias_pairs = alias_pairs

    def execute(self, env: dict, rt: _Rt, lb: int, ub: int, act: int) -> bool:
        """Attempt the whole-array execution of one activation from
        :data:`VEC_MIN_TRIPS` trips of its iteration space on (a
        zero-trip activation commits at once).  ``act > 0`` iff the
        loop is the observed loop; a nest steps aside when the trace
        observes either of its loops, whose rows then carry per-row
        activations.  Returns ``True`` when committed (the loop
        variables already hold their exit values); ``False`` means no
        effect happened — run the scalar loop."""
        space = self.space
        step = space.step
        if step > 0:
            m = (ub - lb + step - 1) // step if ub > lb else 0
        else:
            m = (lb - ub - step - 1) // (-step) if lb > ub else 0
        if m == 0:
            env[space.var] = lb
            return True
        if m * space.k < VEC_MIN_TRIPS:
            return False
        if space.row is not None and (act > 0 or space.inner_label == rt.observe):
            return False
        return self.run(env, rt, lb, m, act)

    def run(self, env: dict, rt: _Rt, lb: int, m: int, act: int) -> bool:
        """:meth:`execute` past its gates: ``m >= 1`` outer trips from
        ``lb``."""
        space = self.space
        if rt.steps + m * space.cost > rt.max_steps:
            return False  # budget would trip mid-loop: scalar path raises exactly
        ivs = space.vectors(lb, m)
        if ivs is None:
            return False  # the iteration vector itself would wrap in int64
        n = m * space.k
        plan: list[tuple[np.ndarray, int, tuple, Any, Any, list]] = []
        try:
            for w, x in self.alias_pairs:
                if _overlap(env.get(w), env.get(x)):
                    # whole-array evaluation reads before it writes; an
                    # aliased write must be seen by later iterations
                    raise _VecFallback
            for name, aid, idx, valf in self.stmts:
                reads: list = []
                # the interpreter evaluates the value before locating the
                # target, so reads collect in that order
                val = valf(env, ivs, reads)
                arr = env.get(name)
                if not isinstance(arr, np.ndarray) or arr.ndim != len(idx):
                    raise _VecFallback
                tvi, flat = _vec_locate(arr, idx, env, ivs, reads)
                _check_storable(val, arr)
                plan.append((arr, aid, tvi, flat, val, reads))
        except _VecFallback:
            rt.vec_fallbacks += 1
            return False
        # ---- commit: no error is possible past this point ----
        rt.steps += m * space.cost
        trace = rt.trace
        tracing = trace is not None and (act > 0 or rt.cur is not None)
        if tracing:
            if act > 0:  # a single loop: a nest steps aside when observed
                acts: Any = act
                idxs: Any = np.arange(n, dtype=np.int64)
            else:
                acts, idxs = rt.cur  # type: ignore[misc]
        for arr, aid, tvi, flat, val, reads in plan:
            if tracing:
                for raid, rvec in reads:
                    trace.extend(raid, rvec, False, acts, idxs, n)  # type: ignore[union-attr]
                trace.extend(aid, flat, True, acts, idxs, n)  # type: ignore[union-attr]
            if any(isinstance(j, np.ndarray) for j in tvi):
                # duplicate indices: NumPy assigns in index order, so the
                # last iteration wins — identical to sequential execution
                arr[tvi] = val
            else:
                arr[tvi] = val[n - 1] if isinstance(val, np.ndarray) else val
        space.exit(env, lb, m)
        rt.vec_activations += 1
        return True


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


class CompiledFunction:
    """One IR function lowered to closures; reusable across runs."""

    def __init__(self, func: IRFunction) -> None:
        self.func = func
        c = _Compiler(func)
        self._body = c.block(func.body)
        #: array names in ``array_id`` order (trace decoding)
        self.array_names: list[str] = [
            n for n, _ in sorted(c.array_ids.items(), key=lambda kv: kv[1])
        ]
        self.last_stats: RunStats | None = None

    def new_trace(self, capacity: int = 4096) -> TraceBuffer:
        return TraceBuffer(self.array_names, capacity)

    def run(
        self,
        env: dict[str, Any],
        trace: TraceBuffer | None = None,
        observe_label: str | None = None,
        max_steps: int = 50_000_000,
    ) -> dict[str, Any]:
        """Execute over ``env`` (arrays modified in place), recording
        accesses of the loop labeled ``observe_label`` into ``trace``."""
        rt = _Rt(trace, observe_label, max_steps)
        self._body(env, rt)
        self.last_stats = RunStats(rt)
        return env


_CACHE: dict[int, tuple[IRFunction, CompiledFunction]] = {}
_CACHE_LIMIT = 256


def compile_function(func: IRFunction) -> CompiledFunction:
    """Lower ``func`` to closures (memoized per function object)."""
    hit = _CACHE.get(id(func))
    if hit is not None and hit[0] is func:
        return hit[1]
    compiled = CompiledFunction(func)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[id(func)] = (func, compiled)
    return compiled


def run_compiled(
    func: IRFunction,
    env: dict[str, Any],
    trace: TraceBuffer | None = None,
    observe_label: str | None = None,
    max_steps: int = 50_000_000,
) -> dict[str, Any]:
    """Convenience wrapper: compile (cached) and run."""
    return compile_function(func).run(env, trace, observe_label, max_steps)


__all__ = [
    "CompiledFunction",
    "RunStats",
    "TraceBuffer",
    "VEC_MIN_TRIPS",
    "compile_function",
    "rollback_point",
    "run_compiled",
]
