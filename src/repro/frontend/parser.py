"""Recursive-descent parser for the mini-C subset.

Grammar (informally)::

    program     := (funcdef | decl)*
    funcdef     := type ident '(' params? ')' block
    decl        := type declarator (',' declarator)* ';'
    declarator  := ident ('[' expr? ']')* ('=' assignment)?
    stmt        := block | if | for | while | do-while | decl | jump
                 | pragma stmt | expr ';' | ';'
    expr        := assignment
    assignment  := ternary (assignop assignment)?
    ternary     := or ('?' expr ':' ternary)?

Precedence climbing handles the binary operators.  ``#pragma`` tokens
preceding a loop are attached to the loop node (this is how a source's
own loop pragmas reach the IR and the annotated output); other pragmas become
free-standing :class:`~repro.frontend.c_ast.Pragma` statements.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import c_ast as A
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TYPE_KEYWORDS, TokKind, Token

# binary operator precedence (higher binds tighter)
_BIN_PREC: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")


def parse_program(source: str) -> A.Program:
    """Parse a translation unit."""
    return _Parser(tokenize(source)).program()


def parse_function(source: str, name: str | None = None) -> A.FuncDef:
    """Parse a translation unit and return one function (the only one, or
    the one called ``name``)."""
    prog = parse_program(source)
    if name is not None:
        return prog.function(name)
    if len(prog.functions) != 1:
        raise ParseError(
            f"expected exactly one function, found {len(prog.functions)}"
        )
    return prog.functions[0]


def parse_statements(source: str) -> A.Block:
    """Parse a bare statement sequence (no enclosing function) — handy in
    tests and for the paper's figure snippets."""
    wrapped = "void __snippet__() {\n" + source + "\n}"
    return parse_function(wrapped, "__snippet__").body


def parse_expression(source: str) -> A.Expression:
    """Parse a single expression."""
    p = _Parser(tokenize(source))
    e = p.expression()
    p.expect_kind(TokKind.EOF)
    return e


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self, off: int = 0) -> Token:
        p = min(self.pos + off, len(self.toks) - 1)
        return self.toks[p]

    def next(self) -> Token:
        t = self.peek()
        if t.kind is not TokKind.EOF:
            self.pos += 1
        return t

    def accept_punct(self, text: str) -> Token | None:
        if self.peek().is_punct(text):
            return self.next()
        return None

    def expect_punct(self, text: str) -> Token:
        t = self.peek()
        if not t.is_punct(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.loc.line, t.loc.col)
        return self.next()

    def accept_keyword(self, text: str) -> Token | None:
        if self.peek().is_keyword(text):
            return self.next()
        return None

    def expect_kind(self, kind: TokKind) -> Token:
        t = self.peek()
        if t.kind is not kind:
            raise ParseError(f"expected {kind.value}, found {t.text!r}", t.loc.line, t.loc.col)
        return self.next()

    def at_type(self) -> bool:
        return self.peek().kind is TokKind.KEYWORD and self.peek().text in TYPE_KEYWORDS

    # -- top level ------------------------------------------------------------
    def program(self) -> A.Program:
        globals_: list[A.DeclStmt] = []
        funcs: list[A.FuncDef] = []
        while self.peek().kind is not TokKind.EOF:
            if self.peek().kind is TokKind.PRAGMA:
                self.next()  # file-scope pragmas are ignored
                continue
            if not self.at_type():
                t = self.peek()
                raise ParseError(
                    f"expected declaration or function, found {t.text!r}",
                    t.loc.line,
                    t.loc.col,
                )
            type_name = self.type_name()
            name_tok = self.expect_kind(TokKind.IDENT)
            if self.peek().is_punct("("):
                funcs.append(self.funcdef_rest(type_name, name_tok))
            else:
                globals_.append(self.decl_rest(type_name, name_tok))
        return A.Program(tuple(globals_), tuple(funcs))

    def type_name(self) -> str:
        parts = []
        while self.at_type():
            parts.append(self.next().text)
        if not parts:
            t = self.peek()
            raise ParseError(f"expected type, found {t.text!r}", t.loc.line, t.loc.col)
        return " ".join(parts)

    def funcdef_rest(self, return_type: str, name_tok: Token) -> A.FuncDef:
        self.expect_punct("(")
        params: list[A.Param] = []
        if not self.peek().is_punct(")"):
            if self.peek().is_keyword("void") and self.peek(1).is_punct(")"):
                self.next()
            else:
                while True:
                    params.append(self.param())
                    if not self.accept_punct(","):
                        break
        self.expect_punct(")")
        body = self.block()
        return A.FuncDef(return_type, name_tok.text, tuple(params), body, name_tok.loc)

    def param(self) -> A.Param:
        type_name = self.type_name()
        stars = 0
        while self.accept_punct("*"):
            stars += 1
        name_tok = self.expect_kind(TokKind.IDENT)
        dims: list[A.Expression | None] = [None] * stars  # T* x ≈ T x[]
        while self.accept_punct("["):
            if self.peek().is_punct("]"):
                dims.append(None)
            else:
                dims.append(self.expression())
            self.expect_punct("]")
        return A.Param(type_name, name_tok.text, tuple(dims), name_tok.loc)

    # -- declarations --------------------------------------------------------------
    def decl_rest(self, type_name: str, first_name: Token) -> A.DeclStmt:
        decls = [self.declarator_rest(first_name)]
        while self.accept_punct(","):
            while self.accept_punct("*"):
                pass
            name_tok = self.expect_kind(TokKind.IDENT)
            decls.append(self.declarator_rest(name_tok))
        self.expect_punct(";")
        return A.DeclStmt(type_name, tuple(decls), first_name.loc)

    def declarator_rest(self, name_tok: Token) -> A.Declarator:
        dims: list[A.Expression | None] = []
        while self.accept_punct("["):
            if self.peek().is_punct("]"):
                dims.append(None)
            else:
                dims.append(self.expression())
            self.expect_punct("]")
        init = None
        if self.accept_punct("="):
            init = self.assignment()
        return A.Declarator(name_tok.text, tuple(dims), init, name_tok.loc)

    def declaration(self) -> A.DeclStmt:
        type_name = self.type_name()
        while self.accept_punct("*"):
            pass
        name_tok = self.expect_kind(TokKind.IDENT)
        return self.decl_rest(type_name, name_tok)

    # -- statements -----------------------------------------------------------------
    def block(self) -> A.Block:
        lbrace = self.expect_punct("{")
        stmts: list[A.Statement] = []
        while not self.peek().is_punct("}"):
            if self.peek().kind is TokKind.EOF:
                raise ParseError("unterminated block", lbrace.loc.line, lbrace.loc.col)
            stmts.append(self.statement())
        self.expect_punct("}")
        return A.Block(tuple(stmts), lbrace.loc)

    def statement(self) -> A.Statement:
        t = self.peek()
        if t.kind is TokKind.PRAGMA:
            return self.pragma_statement()
        if t.is_punct("{"):
            return self.block()
        if t.is_keyword("if"):
            return self.if_statement()
        if t.is_keyword("for"):
            return self.for_statement(())
        if t.is_keyword("while"):
            return self.while_statement(())
        if t.is_keyword("do"):
            return self.do_statement()
        if t.is_keyword("return"):
            self.next()
            value = None if self.peek().is_punct(";") else self.expression()
            self.expect_punct(";")
            return A.Return(value, t.loc)
        if t.is_keyword("break"):
            self.next()
            self.expect_punct(";")
            return A.Break(t.loc)
        if t.is_keyword("continue"):
            self.next()
            self.expect_punct(";")
            return A.Continue(t.loc)
        if self.at_type():
            return self.declaration()
        if t.is_punct(";"):
            self.next()
            return A.Block((), t.loc)
        expr = self.expression()
        self.expect_punct(";")
        return A.ExprStmt(expr, t.loc)

    def pragma_statement(self) -> A.Statement:
        pragmas: list[str] = []
        loc = self.peek().loc
        while self.peek().kind is TokKind.PRAGMA:
            pragmas.append(self.next().text)
        t = self.peek()
        if t.is_keyword("for"):
            return self.for_statement(tuple(pragmas))
        if t.is_keyword("while"):
            return self.while_statement(tuple(pragmas))
        # a free-standing pragma (or one before a non-loop statement)
        if len(pragmas) == 1 and (t.is_punct("}") or t.kind is TokKind.EOF):
            return A.Pragma(pragmas[0], loc)
        stmts: list[A.Statement] = [A.Pragma(p, loc) for p in pragmas]
        stmts.append(self.statement())
        return A.Block(tuple(stmts), loc)

    def if_statement(self) -> A.If:
        t = self.next()
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        then = self.statement()
        other = self.statement() if self.accept_keyword("else") else None
        return A.If(cond, then, other, t.loc)

    def for_statement(self, pragmas: tuple[str, ...]) -> A.For:
        t = self.next()
        self.expect_punct("(")
        init: A.Statement | None
        if self.peek().is_punct(";"):
            self.next()
            init = None
        elif self.at_type():
            init = self.declaration()  # consumes the ';'
        else:
            e = self.expression()
            self.expect_punct(";")
            init = A.ExprStmt(e, t.loc)
        cond = None if self.peek().is_punct(";") else self.expression()
        self.expect_punct(";")
        step = None if self.peek().is_punct(")") else self.expression()
        self.expect_punct(")")
        body = self.statement()
        return A.For(init, cond, step, body, pragmas, t.loc)

    def while_statement(self, pragmas: tuple[str, ...]) -> A.While:
        t = self.next()
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        body = self.statement()
        return A.While(cond, body, pragmas, t.loc)

    def do_statement(self) -> A.Statement:
        # do { body } while (c);  is desugared to  body; while (c) body;
        t = self.next()
        body = self.statement()
        if not self.accept_keyword("while"):
            raise ParseError("expected 'while' after do-body", t.loc.line, t.loc.col)
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return A.Block((body, A.While(cond, body, (), t.loc)), t.loc)

    # -- expressions ---------------------------------------------------------------
    def expression(self) -> A.Expression:
        return self.assignment()

    def assignment(self) -> A.Expression:
        left = self.ternary()
        t = self.peek()
        if t.kind is TokKind.PUNCT and t.text in _ASSIGN_OPS:
            self.next()
            value = self.assignment()
            return A.Assign(t.text, left, value, t.loc)
        return left

    def ternary(self) -> A.Expression:
        cond = self.binary(1)
        if self.accept_punct("?"):
            then = self.expression()
            self.expect_punct(":")
            other = self.ternary()
            return A.Cond(cond, then, other, cond.loc if hasattr(cond, "loc") else None)  # type: ignore[arg-type]
        return cond

    def binary(self, min_prec: int) -> A.Expression:
        left = self.unary()
        while True:
            t = self.peek()
            if t.kind is not TokKind.PUNCT:
                return left
            prec = _BIN_PREC.get(t.text)
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self.binary(prec + 1)
            left = A.BinOp(t.text, left, right, t.loc)

    def unary(self) -> A.Expression:
        t = self.peek()
        if t.kind is TokKind.PUNCT and t.text in ("-", "+", "!", "~"):
            self.next()
            return A.UnaryOp(t.text, self.unary(), False, t.loc)
        if t.kind is TokKind.PUNCT and t.text in ("++", "--"):
            self.next()
            return A.UnaryOp(t.text, self.unary(), False, t.loc)
        if t.kind is TokKind.PUNCT and t.text in ("*", "&"):
            # pointer deref / address-of: parse operand, treat as opaque call
            self.next()
            operand = self.unary()
            return A.Call("__deref__" if t.text == "*" else "__addr__", (operand,), t.loc)
        return self.postfix()

    def postfix(self) -> A.Expression:
        e = self.primary()
        while True:
            t = self.peek()
            if t.is_punct("["):
                self.next()
                idx = self.expression()
                self.expect_punct("]")
                e = A.ArrayRef(e, idx, t.loc)
            elif t.is_punct("(") and isinstance(e, A.Ident):
                self.next()
                args: list[A.Expression] = []
                if not self.peek().is_punct(")"):
                    while True:
                        args.append(self.assignment())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                e = A.Call(e.name, tuple(args), t.loc)
            elif t.kind is TokKind.PUNCT and t.text in ("++", "--"):
                self.next()
                e = A.UnaryOp(t.text, e, True, t.loc)
            else:
                return e

    def primary(self) -> A.Expression:
        t = self.peek()
        if t.kind is TokKind.INT:
            self.next()
            return A.IntLit(int(t.text.rstrip("uUlL"), 0), t.loc)
        if t.kind is TokKind.FLOAT:
            self.next()
            return A.FloatLit(float(t.text.rstrip("fFlL")), t.loc)
        if t.kind is TokKind.IDENT:
            self.next()
            return A.Ident(t.text, t.loc)
        if t.is_punct("("):
            self.next()
            if self.at_type():  # cast: (double) x — parse and drop the cast
                self.type_name()
                while self.accept_punct("*"):
                    pass
                self.expect_punct(")")
                return self.unary()
            e = self.expression()
            self.expect_punct(")")
            return e
        if t.kind in (TokKind.STRING, TokKind.CHAR):
            self.next()
            return A.Call("__literal__", (A.Ident(t.text, t.loc),), t.loc)
        raise ParseError(f"unexpected token {t.text!r}", t.loc.line, t.loc.col)
