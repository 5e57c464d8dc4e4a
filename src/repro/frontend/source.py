"""Source locations for diagnostics."""

from __future__ import annotations


class Loc:
    """A (line, column) position, both 1-based. ``Loc.none()`` for synthetic nodes.

    A plain ``__slots__`` class, not a frozen dataclass: the lexer builds
    one per token, and a frozen dataclass's constructor sets each field
    through ``object.__setattr__``, which costs about twice as much.  It
    keeps value equality and hashing, because AST nodes compare and hash
    their ``loc``; nothing assigns to a ``Loc`` after construction.
    """

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col

    @staticmethod
    def none() -> "Loc":
        return _NONE

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Loc:
            return self.line == other.line and self.col == other.col  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.line, self.col))

    def __repr__(self) -> str:
        return f"Loc(line={self.line}, col={self.col})"

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


_NONE = Loc(0, 0)
