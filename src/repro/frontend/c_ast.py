"""Abstract syntax tree for the mini-C subset.

The node set is exactly what the paper's corpus kernels need: scalar and
array declarations, assignments (including compound ``+=`` and
``++``/``--``), ``for``/``while`` loops, ``if``/``else``, calls (treated
as opaque), and ``#pragma`` annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.frontend.source import Loc


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()

    def children(self) -> Iterator["Node"]:
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children():
            yield from child.walk()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(Expression):
    value: int
    loc: Loc = field(default_factory=Loc.none)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class FloatLit(Expression):
    value: float
    loc: Loc = field(default_factory=Loc.none)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Ident(Expression):
    name: str
    loc: Loc = field(default_factory=Loc.none)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ArrayRef(Expression):
    """``base[index]``; multi-dimensional refs nest: ``a[i][j]`` is
    ``ArrayRef(ArrayRef(a, i), j)``."""

    base: Expression
    index: Expression
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index

    def root_name(self) -> str | None:
        """Name of the underlying array variable, if the base chain is
        a plain identifier."""
        b: Expression = self.base
        while isinstance(b, ArrayRef):
            b = b.base
        return b.name if isinstance(b, Ident) else None

    def indices(self) -> list[Expression]:
        """All index expressions, outermost dimension first."""
        idx: list[Expression] = []
        node: Expression = self
        while isinstance(node, ArrayRef):
            idx.append(node.index)
            node = node.base
        idx.reverse()
        return idx

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True, slots=True)
class Call(Expression):
    name: str
    args: tuple[Expression, ...]
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield from self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """``op`` in ``{'-', '+', '!', '~', '++', '--'}``; ``postfix`` only
    meaningful for ``++``/``--``."""

    op: str
    operand: Expression
    postfix: bool = False
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.operand

    def __str__(self) -> str:
        if self.op in ("++", "--") and self.postfix:
            return f"{self.operand}{self.op}"
        return f"{self.op}{self.operand}"


@dataclass(frozen=True, slots=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Cond(Expression):
    """Ternary ``c ? t : f``."""

    cond: Expression
    then: Expression
    other: Expression
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.other

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.other})"


@dataclass(frozen=True, slots=True)
class Assign(Expression):
    """``target op value`` where op ∈ {'=', '+=', '-=', '*=', '/=', '%='}."""

    op: str
    target: Expression
    value: Expression
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value

    def __str__(self) -> str:
        return f"{self.target} {self.op} {self.value}"


# --------------------------------------------------------------------------
# Statements and declarations
# --------------------------------------------------------------------------


class Statement(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Declarator(Node):
    """One declared name: ``name[dims] = init``; ``dims`` entries may be
    ``None`` for unsized dimensions (parameters)."""

    name: str
    dims: tuple[Expression | None, ...] = ()
    init: Expression | None = None
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        for d in self.dims:
            if d is not None:
                yield d
        if self.init is not None:
            yield self.init

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass(frozen=True, slots=True)
class DeclStmt(Statement):
    type_name: str
    declarators: tuple[Declarator, ...]
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield from self.declarators


@dataclass(frozen=True, slots=True)
class ExprStmt(Statement):
    expr: Expression
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.expr


@dataclass(frozen=True, slots=True)
class Block(Statement):
    stmts: tuple[Statement, ...]
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield from self.stmts


@dataclass(frozen=True, slots=True)
class If(Statement):
    cond: Expression
    then: Statement
    other: Statement | None = None
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        if self.other is not None:
            yield self.other


@dataclass(frozen=True, slots=True)
class For(Statement):
    """C for-loop; any of init/cond/step may be ``None``.  ``pragmas``
    hold the ``#pragma`` lines that immediately preceded the loop."""

    init: Statement | None
    cond: Expression | None
    step: Expression | None
    body: Statement
    pragmas: tuple[str, ...] = ()
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass(frozen=True, slots=True)
class While(Statement):
    cond: Expression
    body: Statement
    pragmas: tuple[str, ...] = ()
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


@dataclass(frozen=True, slots=True)
class Return(Statement):
    value: Expression | None = None
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass(frozen=True, slots=True)
class Break(Statement):
    loc: Loc = field(default_factory=Loc.none)


@dataclass(frozen=True, slots=True)
class Continue(Statement):
    loc: Loc = field(default_factory=Loc.none)


@dataclass(frozen=True, slots=True)
class Pragma(Statement):
    """A free-standing pragma that did not precede a loop."""

    text: str
    loc: Loc = field(default_factory=Loc.none)


@dataclass(frozen=True, slots=True)
class Param(Node):
    type_name: str
    name: str
    dims: tuple[Expression | None, ...] = ()
    loc: Loc = field(default_factory=Loc.none)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass(frozen=True, slots=True)
class FuncDef(Node):
    return_type: str
    name: str
    params: tuple[Param, ...]
    body: Block
    loc: Loc = field(default_factory=Loc.none)

    def children(self) -> Iterator[Node]:
        yield from self.params
        yield self.body


@dataclass(frozen=True, slots=True)
class Program(Node):
    """A translation unit: global declarations and function definitions."""

    globals: tuple[DeclStmt, ...]
    functions: tuple[FuncDef, ...]

    def children(self) -> Iterator[Node]:
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> FuncDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")
