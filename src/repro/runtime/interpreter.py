"""Sequential interpreter for the mini-C IR over NumPy arrays.

Used to (a) validate that corpus kernels compute what their NumPy
reference implementations compute, and (b) drive the dynamic
independence oracle: with a recorder attached, every array element
read/write is reported together with the current iteration number of a
designated loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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

#: recorder(array_name, flat_index, is_write, iteration) — iteration is
#: ``(activation, index)`` of the observed loop, or None outside it.
#: ``activation`` counts entries to the loop (a nested loop re-activates
#: once per enclosing iteration); ``index`` is the iteration number
#: within that activation.  Parallel-for independence is a per-activation
#: property, so conflicts must never be inferred across activations.
Recorder = Callable[[str, int, bool, "tuple[int, int] | None"], None]


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


@dataclass
class Interpreter:
    """Executes one IR function over a variable environment.

    ``env`` maps names to Python ints/floats or NumPy arrays; arrays are
    modified in place.  ``observe_label`` names the loop whose iteration
    number is reported to the recorder.
    """

    func: IRFunction
    env: dict[str, Any]
    recorder: Recorder | None = None
    observe_label: str | None = None
    max_steps: int = 50_000_000
    steps: int = 0
    _iteration: "tuple[int, int] | None" = None
    _activations: int = 0

    def run(self) -> dict[str, Any]:
        try:
            self._block(self.func.body)
        except _Return:
            pass
        return self.env

    # -- statements -----------------------------------------------------------
    def _block(self, stmts: list[Stmt]) -> None:
        for s in stmts:
            self._stmt(s)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(f"step budget exceeded ({self.max_steps})")

    def _stmt(self, s: Stmt) -> None:
        self._tick()
        if isinstance(s, SAssign):
            value = self._eval(s.value)
            self._store(s.target, value)
        elif isinstance(s, SIf):
            if self._truthy(self._eval(s.cond)):
                self._block(s.then)
            else:
                self._block(s.other)
        elif isinstance(s, SLoop):
            self._loop(s)
        elif isinstance(s, SWhile):
            while self._truthy(self._eval(s.cond)):
                self._tick()
                try:
                    self._block(s.body)
                except _Continue:
                    continue
                except _Break:
                    break
        elif isinstance(s, SCall):
            self._call(s.call)
        elif isinstance(s, SReturn):
            raise _Return(self._eval(s.value) if s.value is not None else None)
        elif isinstance(s, SBreak):
            raise _Break()
        elif isinstance(s, SContinue):
            raise _Continue()
        else:
            raise InterpreterError(f"cannot execute {s!r}")

    def _loop(self, s: SLoop) -> None:
        lb = self._as_int(self._eval(s.lb))
        ub = self._as_int(self._eval(s.ub))
        observed = self.observe_label is not None and s.label == self.observe_label
        if observed:
            self._activations += 1
            activation = self._activations
        i = lb
        iteration = 0
        while (i < ub) if s.step > 0 else (i > ub):
            self._tick()
            self.env[s.var] = i
            if observed:
                prev = self._iteration
                self._iteration = (activation, iteration)
            try:
                self._block(s.body)
            except _Continue:
                pass
            except _Break:
                if observed:
                    self._iteration = prev
                break
            if observed:
                self._iteration = prev
            # the loop variable may have been modified by the body (the
            # corpus does not do this, but the IR permits it)
            i = self._as_int(self.env[s.var]) + s.step
            iteration += 1
        self.env[s.var] = i

    # -- expressions ------------------------------------------------------------
    def _eval(self, e: IExpr) -> Any:
        if isinstance(e, IConst):
            return e.value
        if isinstance(e, IFloat):
            return e.value
        if isinstance(e, IVar):
            if e.name not in self.env:
                raise InterpreterError(f"unbound variable {e.name}")
            return self.env[e.name]
        if isinstance(e, IArrayRef):
            arr, flat = self._locate(e)
            if self.recorder is not None:
                self.recorder(e.array, flat, False, self._iteration)
            return arr.flat[flat] if arr.ndim > 1 else arr[flat]
        if isinstance(e, IUn):
            v = self._eval(e.operand)
            if e.op == "-":
                return -v
            if e.op == "!":
                return 0 if self._truthy(v) else 1
            raise InterpreterError(f"unknown unary {e.op}")
        if isinstance(e, IBin):
            return self._binop(e)
        if isinstance(e, ICall):
            return self._call(e)
        raise InterpreterError(f"cannot evaluate {e!r}")

    def _binop(self, e: IBin) -> Any:
        op = e.op
        if op == "&&":
            return 1 if (self._truthy(self._eval(e.left)) and self._truthy(self._eval(e.right))) else 0
        if op == "||":
            return 1 if (self._truthy(self._eval(e.left)) or self._truthy(self._eval(e.right))) else 0
        a = self._eval(e.left)
        b = self._eval(e.right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise InterpreterError("division by zero")
            if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q  # C truncation
            return a / b
        if op == "%":
            if b == 0:
                raise InterpreterError("modulo by zero")
            r = abs(a) % abs(b)
            return r if a >= 0 else -r  # C sign semantics
        table = {
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
            "==": a == b,
            "!=": a != b,
        }
        if op in table:
            return 1 if table[op] else 0
        raise InterpreterError(f"unknown operator {op}")

    def _call(self, e: ICall) -> Any:
        args = [self._eval(a) for a in e.args if not isinstance(a, IVar) or a.name in self.env]
        builtins: dict[str, Callable[..., Any]] = {
            "abs": lambda x: abs(x),
            "min": lambda a, b: min(a, b),
            "max": lambda a, b: max(a, b),
            "printf": lambda *a: 0,
        }
        if e.name in builtins:
            return builtins[e.name](*args)
        raise InterpreterError(f"call to unknown function {e.name!r}")

    # -- memory -------------------------------------------------------------------
    def _locate(self, ref: IArrayRef) -> tuple[np.ndarray, int]:
        arr = self.env.get(ref.array)
        if not isinstance(arr, np.ndarray):
            raise InterpreterError(f"{ref.array} is not an array")
        idx = [self._as_int(self._eval(i)) for i in ref.indices]
        if len(idx) != arr.ndim:
            raise InterpreterError(
                f"{ref.array}: rank mismatch ({len(idx)} subscripts, {arr.ndim} dims)"
            )
        flat = 0
        for d, i in enumerate(idx):
            if not 0 <= i < arr.shape[d]:
                raise InterpreterError(
                    f"{ref.array}: index {i} out of bounds for dim {d} (size {arr.shape[d]})"
                )
            flat = flat * arr.shape[d] + i
        return arr, flat

    def _store(self, target: "IVar | IArrayRef", value: Any) -> None:
        if isinstance(target, IVar):
            self.env[target.name] = value
            return
        arr, flat = self._locate(target)
        if self.recorder is not None:
            self.recorder(target.array, flat, True, self._iteration)
        arr.flat[flat] = value

    @staticmethod
    def _truthy(v: Any) -> bool:
        return bool(v)

    @staticmethod
    def _as_int(v: Any) -> int:
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, float) and v.is_integer():
            return int(v)
        raise InterpreterError(f"expected integer, got {v!r}")


def run_function(
    func: IRFunction,
    env: dict[str, Any],
    recorder: Recorder | None = None,
    observe_label: str | None = None,
    max_steps: int = 50_000_000,
) -> dict[str, Any]:
    """Convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(
        func=func,
        env=env,
        recorder=recorder,
        observe_label=observe_label,
        max_steps=max_steps,
    )
    return interp.run()
