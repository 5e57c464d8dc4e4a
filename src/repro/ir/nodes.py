"""Loop-oriented intermediate representation.

The IR desugars the mini-C AST into a small, analysis-friendly core:

* compound assignments and ``++``/``--`` become plain ``SAssign``;
* side effects are extracted out of expressions (``a[index++] = j``
  becomes ``a[index] = j; index = index + 1``), so IR *expressions* are
  pure;
* ``for`` loops matching the inductive pattern are normalized to
  :class:`SLoop` with explicit bounds and constant step; everything else
  falls back to :class:`SWhile` (executable, but opaque to the analysis,
  i.e. analyzed as ⊥ — exactly the paper's treatment of "too complex").

Loops receive stable labels ``L1``, ``L1.1`` ... in program order; the
reports, tests and benchmarks reference these labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.frontend.source import Loc


# --------------------------------------------------------------------------
# Expressions (pure)
# --------------------------------------------------------------------------


class IExpr:
    __slots__ = ()

    def children(self) -> Iterator["IExpr"]:
        return iter(())

    def walk(self) -> Iterator["IExpr"]:
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True, slots=True)
class IConst(IExpr):
    value: int


@dataclass(frozen=True, slots=True)
class IFloat(IExpr):
    value: float


@dataclass(frozen=True, slots=True)
class IVar(IExpr):
    name: str


@dataclass(frozen=True, slots=True)
class IArrayRef(IExpr):
    """``array[indices...]`` — multi-dimensional refs keep one tuple."""

    array: str
    indices: tuple[IExpr, ...]

    def children(self) -> Iterator[IExpr]:
        yield from self.indices


@dataclass(frozen=True, slots=True)
class IBin(IExpr):
    """Binary operation; ``op`` ∈ arithmetic {+,-,*,/,%} ∪ comparison
    {<,<=,>,>=,==,!=} ∪ logical {&&,||}."""

    op: str
    left: IExpr
    right: IExpr

    def children(self) -> Iterator[IExpr]:
        yield self.left
        yield self.right


@dataclass(frozen=True, slots=True)
class IUn(IExpr):
    """Unary operation; ``op`` ∈ {'-', '!'}."""

    op: str
    operand: IExpr

    def children(self) -> Iterator[IExpr]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class ICall(IExpr):
    """Opaque call (the analysis maps it to ⊥)."""

    name: str
    args: tuple[IExpr, ...]

    def children(self) -> Iterator[IExpr]:
        yield from self.args


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Stmt:
    __slots__ = ()

    def blocks(self) -> Iterator[list["Stmt"]]:
        """Nested statement lists (for traversal)."""
        return iter(())

    def exprs(self) -> Iterator[IExpr]:
        """Immediate expressions of this statement."""
        return iter(())


@dataclass(slots=True)
class SAssign(Stmt):
    target: IVar | IArrayRef
    value: IExpr
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        yield self.target
        yield self.value


@dataclass(slots=True)
class SIf(Stmt):
    cond: IExpr
    then: list[Stmt]
    other: list[Stmt]
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[list[Stmt]]:
        yield self.then
        yield self.other

    def exprs(self) -> Iterator[IExpr]:
        yield self.cond


@dataclass(slots=True)
class SLoop(Stmt):
    """Normalized counted loop.

    Semantics: ``var`` takes values ``lb, lb+step, ...`` while
    ``var < ub`` (step > 0) or ``var > ub`` (step < 0); ``ub`` is
    exclusive.  ``step`` is a non-zero integer constant.
    """

    var: str
    lb: IExpr
    ub: IExpr
    step: int
    body: list[Stmt]
    pragmas: tuple[str, ...] = ()
    label: str = ""
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[list[Stmt]]:
        yield self.body

    def exprs(self) -> Iterator[IExpr]:
        yield self.lb
        yield self.ub


@dataclass(slots=True)
class SWhile(Stmt):
    """Fallback loop form — executable, opaque to the analysis."""

    cond: IExpr
    body: list[Stmt]
    label: str = ""
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[list[Stmt]]:
        yield self.body

    def exprs(self) -> Iterator[IExpr]:
        yield self.cond


@dataclass(slots=True)
class SCall(Stmt):
    call: ICall
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        yield self.call


@dataclass(slots=True)
class SReturn(Stmt):
    value: IExpr | None = None
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        if self.value is not None:
            yield self.value


@dataclass(slots=True)
class SBreak(Stmt):
    loc: Loc = field(default_factory=Loc.none)


@dataclass(slots=True)
class SContinue(Stmt):
    loc: Loc = field(default_factory=Loc.none)


# --------------------------------------------------------------------------
# Functions / program
# --------------------------------------------------------------------------


@dataclass(slots=True)
class IRFunction:
    name: str
    body: list[Stmt]
    symtab: "SymbolTable"

    def loops(self) -> list[SLoop]:
        """All normalized loops in pre-order."""
        out: list[SLoop] = []

        def visit(stmts: list[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, SLoop):
                    out.append(s)
                for b in s.blocks():
                    visit(b)

        visit(self.body)
        return out

    def loop(self, label: str) -> SLoop:
        for lp in self.loops():
            if lp.label == label:
                return lp
        raise KeyError(f"no loop labeled {label!r} in {self.name}")

    def outer_loops(self) -> list[SLoop]:
        """Loops not nested inside another normalized loop."""
        out: list[SLoop] = []

        def visit(stmts: list[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, SLoop):
                    out.append(s)
                    continue  # don't descend into its body
                for b in s.blocks():
                    visit(b)

        visit(self.body)
        return out


@dataclass(slots=True)
class IRProgram:
    functions: dict[str, IRFunction]
    globals: "SymbolTable"

    def function(self, name: str) -> IRFunction:
        return self.functions[name]


# placed at the end to avoid a circular import in type checking
from repro.ir.symtab import SymbolTable  # noqa: E402

__all__ = [
    "IArrayRef",
    "IBin",
    "ICall",
    "IConst",
    "IExpr",
    "IFloat",
    "IRFunction",
    "IRProgram",
    "IUn",
    "IVar",
    "SAssign",
    "SBreak",
    "SCall",
    "SContinue",
    "SIf",
    "SLoop",
    "SReturn",
    "SWhile",
    "Stmt",
]
