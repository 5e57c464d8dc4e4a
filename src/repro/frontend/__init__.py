"""Mini-C frontend: lexer, parser and AST.  Only the IR builder reads
the AST; everything downstream prints and analyzes the IR."""

from repro.frontend import c_ast
from repro.frontend.lexer import tokenize
from repro.frontend.parser import (
    parse_expression,
    parse_function,
    parse_program,
    parse_statements,
)
from repro.frontend.source import Loc

__all__ = [
    "Loc",
    "c_ast",
    "parse_expression",
    "parse_function",
    "parse_program",
    "parse_statements",
    "tokenize",
]
