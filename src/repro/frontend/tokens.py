"""Token definitions for the mini-C lexer."""

from __future__ import annotations

from enum import Enum

from repro.frontend.source import Loc


class TokKind(Enum):
    IDENT = "ident"
    INT = "int_lit"
    FLOAT = "float_lit"
    STRING = "string_lit"
    CHAR = "char_lit"
    KEYWORD = "keyword"
    PUNCT = "punct"
    PRAGMA = "pragma"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "int",
        "long",
        "short",
        "unsigned",
        "signed",
        "char",
        "float",
        "double",
        "void",
        "const",
        "static",
        "struct",
        "for",
        "while",
        "do",
        "if",
        "else",
        "return",
        "break",
        "continue",
        "sizeof",
    }
)

# Multi-character operators first (longest match wins).
PUNCTUATORS = (
    "<<=",
    ">>=",
    "...",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)

TYPE_KEYWORDS = frozenset(
    {"int", "long", "short", "unsigned", "signed", "char", "float", "double", "void", "const", "static"}
)


class Token:
    """One lexeme: its kind, its text and where it starts.  A plain
    ``__slots__`` class with value equality, for the reason
    :class:`~repro.frontend.source.Loc` is one."""

    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: TokKind, text: str, loc: Loc) -> None:
        self.kind = kind
        self.text = text
        self.loc = loc

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Token:
            return (
                self.kind is other.kind  # type: ignore[attr-defined]
                and self.text == other.text  # type: ignore[attr-defined]
                and self.loc == other.loc  # type: ignore[attr-defined]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.loc))

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, text={self.text!r}, loc={self.loc!r})"

    def is_punct(self, text: str) -> bool:
        return self.kind is TokKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.loc}"
