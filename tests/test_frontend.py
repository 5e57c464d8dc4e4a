"""Frontend tests: lexer, parser, round trips through the IR printer, error reporting."""

from __future__ import annotations

import pytest

from repro.errors import LexError, ParseError
from repro.frontend import (
    c_ast as A,
    parse_expression,
    parse_function,
    parse_program,
    parse_statements,
    tokenize,
)
from repro.frontend.tokens import TokKind


class TestLexer:
    def test_idents_and_keywords(self):
        toks = tokenize("for (int i = 0;)")
        kinds = [t.kind for t in toks[:-1]]
        assert kinds[0] is TokKind.KEYWORD
        assert toks[1].is_punct("(")
        assert toks[2].is_keyword("int")
        assert toks[3].kind is TokKind.IDENT

    def test_numbers(self):
        toks = tokenize("42 0x1F 3.5 1e3 2.5f 7L")
        kinds = [t.kind for t in toks[:-1]]
        assert kinds == [
            TokKind.INT,
            TokKind.INT,
            TokKind.FLOAT,
            TokKind.FLOAT,
            TokKind.FLOAT,
            TokKind.INT,
        ]

    def test_longest_match_operators(self):
        toks = tokenize("a+++b <<= >=")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["a", "++", "+", "b", "<<=", ">="]

    def test_comments_skipped(self):
        toks = tokenize("a // line\n /* block\n comment */ b")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["a", "b"]

    def test_pragma_captured(self):
        toks = tokenize("#pragma omp parallel for\nx;")
        assert toks[0].kind is TokKind.PRAGMA
        assert toks[0].text == "omp parallel for"

    def test_include_skipped(self):
        toks = tokenize("#include <stdio.h>\nx;")
        assert toks[0].kind is TokKind.IDENT

    def test_line_col_tracking(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[1].loc.col == 3

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')


class TestParserExpressions:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, A.BinOp) and e.op == "+"
        assert isinstance(e.right, A.BinOp) and e.right.op == "*"

    def test_parentheses(self):
        e = parse_expression("(1 + 2) * 3")
        assert isinstance(e, A.BinOp) and e.op == "*"

    def test_relational_chain(self):
        e = parse_expression("a < b == c")
        assert e.op == "=="

    def test_array_ref_nesting(self):
        e = parse_expression("a[b[i]][j]")
        assert isinstance(e, A.ArrayRef)
        assert e.root_name() == "a"
        assert len(e.indices()) == 2

    def test_postincrement(self):
        e = parse_expression("x++")
        assert isinstance(e, A.UnaryOp) and e.postfix

    def test_ternary(self):
        e = parse_expression("a ? b : c")
        assert isinstance(e, A.Cond)

    def test_call(self):
        e = parse_expression("f(a, b + 1)")
        assert isinstance(e, A.Call)
        assert len(e.args) == 2

    def test_unary_minus(self):
        e = parse_expression("-x * 3")
        assert isinstance(e, A.BinOp) and e.op == "*"

    def test_modulo(self):
        e = parse_expression("(i + 1) % 8")
        assert isinstance(e, A.BinOp) and e.op == "%"


class TestParserStatements:
    def test_for_loop(self):
        block = parse_statements("for (i = 0; i < n; i++) x = x + 1;")
        loop = block.stmts[0]
        assert isinstance(loop, A.For)
        assert isinstance(loop.body, A.ExprStmt)

    def test_if_else(self):
        block = parse_statements("if (a > 0) { x = 1; } else { x = 2; }")
        s = block.stmts[0]
        assert isinstance(s, A.If)
        assert s.other is not None

    def test_dangling_else_binds_inner(self):
        block = parse_statements("if (a) if (b) x = 1; else x = 2;")
        outer = block.stmts[0]
        assert isinstance(outer, A.If)
        assert outer.other is None
        assert isinstance(outer.then, A.If)
        assert outer.then.other is not None

    def test_declarations(self):
        block = parse_statements("int i, j = 3; double a[10][20];")
        d1, d2 = block.stmts
        assert isinstance(d1, A.DeclStmt)
        assert d1.declarators[1].init is not None
        assert d2.declarators[0].dims and len(d2.declarators[0].dims) == 2

    def test_pragma_attaches_to_loop(self):
        block = parse_statements(
            "#pragma omp parallel for private(j)\nfor (i = 0; i < n; i++) x = i;"
        )
        loop = block.stmts[0]
        assert isinstance(loop, A.For)
        assert loop.pragmas == ("omp parallel for private(j)",)

    def test_while_and_do(self):
        block = parse_statements("while (x > 0) x = x - 1; do { y = 1; } while (y);")
        assert isinstance(block.stmts[0], A.While)
        assert isinstance(block.stmts[1], A.Block)  # desugared do-while

    def test_break_continue_return(self):
        block = parse_statements("break; continue; return x + 1;")
        assert isinstance(block.stmts[0], A.Break)
        assert isinstance(block.stmts[1], A.Continue)
        assert isinstance(block.stmts[2], A.Return)

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_statements("x = 1")

    def test_unbalanced_braces_raise(self):
        with pytest.raises(ParseError):
            parse_program("void f() { if (x) {")


class TestProgramsAndRoundTrip:
    def test_globals_and_functions(self):
        prog = parse_program("int g[10];\nvoid f(int x) { g[x] = 1; }")
        assert len(prog.globals) == 1
        assert prog.function("f").params[0].name == "x"

    def test_parse_function_selects(self):
        src = "void a() { } void b() { }"
        assert parse_function(src, "b").name == "b"
        with pytest.raises(ParseError):
            parse_function(src)  # ambiguous

    def test_roundtrip_idempotent(self, fig9_func):
        from repro.ir import build_function, function_to_c

        once = function_to_c(fig9_func)
        twice = function_to_c(build_function(once))
        assert once == twice

    def test_pragma_survives_roundtrip(self):
        from repro.ir import build_function, function_to_c

        src = "void f(int n, int x[]) {\n    int i;\n    #pragma omp parallel for\n    for (i = 0; i < n; i++) {\n        x[i] = i;\n    }\n}\n"
        loops = [n for n in parse_program(src).walk() if isinstance(n, A.For)]
        assert [lp.pragmas for lp in loops] == [("omp parallel for",)]
        assert "#pragma omp parallel for" in function_to_c(build_function(src))
