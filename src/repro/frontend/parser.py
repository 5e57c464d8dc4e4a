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
_UNARY_OPS = frozenset({"-", "+", "!", "~", "++", "--", "*", "&"})

_PUNCT = TokKind.PUNCT
_KEYWORD = TokKind.KEYWORD
_EOF = TokKind.EOF
_INT = TokKind.INT
_IDENT = TokKind.IDENT


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
    p.expect_kind(_EOF)
    return e


class _Parser:
    """Recursive descent over a token list that ends with an EOF token.

    ``tok`` is the current token and ``pos`` its index.  The expression
    and statement rules, which look at nearly every token, read ``tok``
    directly; the rest go through the small ``at_*``/``accept_*``/
    ``expect_*`` helpers.  Punctuator tests compare the text first (it
    usually differs) and then the kind, which stays necessary: a
    ``#pragma`` token's text may equal a punctuator's."""

    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.pos = 0
        self.tok = tokens[0]

    # -- token plumbing ----------------------------------------------------
    def next(self) -> Token:
        """Consume and return the current token (EOF is never consumed)."""
        t = self.tok
        if t.kind is not _EOF:
            self.pos += 1
            self.tok = self.toks[self.pos]
        return t

    def accept_punct(self, text: str) -> Token | None:
        t = self.tok
        if t.text == text and t.kind is _PUNCT:
            self.pos += 1
            self.tok = self.toks[self.pos]
            return t
        return None

    def expect_punct(self, text: str) -> Token:
        t = self.tok
        if t.text != text or t.kind is not _PUNCT:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.loc.line, t.loc.col)
        self.pos += 1
        self.tok = self.toks[self.pos]
        return t

    def expect_kind(self, kind: TokKind) -> Token:
        t = self.tok
        if t.kind is not kind:
            raise ParseError(f"expected {kind.value}, found {t.text!r}", t.loc.line, t.loc.col)
        return self.next()

    def at_punct(self, text: str) -> bool:
        t = self.tok
        return t.text == text and t.kind is _PUNCT

    def at_type(self) -> bool:
        t = self.tok
        return t.kind is _KEYWORD and t.text in TYPE_KEYWORDS

    # -- top level ------------------------------------------------------------
    def program(self) -> A.Program:
        globals_: list[A.DeclStmt] = []
        funcs: list[A.FuncDef] = []
        while self.tok.kind is not _EOF:
            if self.tok.kind is TokKind.PRAGMA:
                self.next()  # file-scope pragmas are ignored
                continue
            if not self.at_type():
                t = self.tok
                raise ParseError(
                    f"expected declaration or function, found {t.text!r}",
                    t.loc.line,
                    t.loc.col,
                )
            type_name = self.type_name()
            name_tok = self.expect_kind(_IDENT)
            if self.at_punct("("):
                funcs.append(self.funcdef_rest(type_name, name_tok))
            else:
                globals_.append(self.decl_rest(type_name, name_tok))
        return A.Program(tuple(globals_), tuple(funcs))

    def type_name(self) -> str:
        parts = []
        while self.at_type():
            parts.append(self.next().text)
        if not parts:
            t = self.tok
            raise ParseError(f"expected type, found {t.text!r}", t.loc.line, t.loc.col)
        return " ".join(parts)

    def funcdef_rest(self, return_type: str, name_tok: Token) -> A.FuncDef:
        self.expect_punct("(")
        params: list[A.Param] = []
        if not self.at_punct(")"):
            # ``void`` is not EOF, so a token follows it
            if self.tok.is_keyword("void") and self.toks[self.pos + 1].is_punct(")"):
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
        name_tok = self.expect_kind(_IDENT)
        dims: list[A.Expression | None] = [None] * stars  # T* x ≈ T x[]
        dims += self.dims()
        return A.Param(type_name, name_tok.text, tuple(dims), name_tok.loc)

    def dims(self) -> list[A.Expression | None]:
        """``('[' expr? ']')*`` after a declared name."""
        dims: list[A.Expression | None] = []
        while self.accept_punct("["):
            dims.append(None if self.at_punct("]") else self.expression())
            self.expect_punct("]")
        return dims

    # -- declarations --------------------------------------------------------------
    def decl_rest(self, type_name: str, first_name: Token) -> A.DeclStmt:
        decls = [self.declarator_rest(first_name)]
        while self.accept_punct(","):
            while self.accept_punct("*"):
                pass
            name_tok = self.expect_kind(_IDENT)
            decls.append(self.declarator_rest(name_tok))
        self.expect_punct(";")
        return A.DeclStmt(type_name, tuple(decls), first_name.loc)

    def declarator_rest(self, name_tok: Token) -> A.Declarator:
        dims = self.dims()
        init = None
        if self.accept_punct("="):
            init = self.assignment()
        return A.Declarator(name_tok.text, tuple(dims), init, name_tok.loc)

    def declaration(self) -> A.DeclStmt:
        type_name = self.type_name()
        while self.accept_punct("*"):
            pass
        name_tok = self.expect_kind(_IDENT)
        return self.decl_rest(type_name, name_tok)

    # -- statements -----------------------------------------------------------------
    def block(self) -> A.Block:
        lbrace = self.expect_punct("{")
        stmts: list[A.Statement] = []
        while not self.at_punct("}"):
            if self.tok.kind is _EOF:
                raise ParseError("unterminated block", lbrace.loc.line, lbrace.loc.col)
            stmts.append(self.statement())
        self.next()
        return A.Block(tuple(stmts), lbrace.loc)

    def statement(self) -> A.Statement:
        t = self.tok
        kind = t.kind
        if kind is _KEYWORD:
            text = t.text
            if text == "for":
                return self.for_statement(())
            if text == "if":
                return self.if_statement()
            if text == "while":
                return self.while_statement(())
            if text == "do":
                return self.do_statement()
            if text == "return":
                self.next()
                value = None if self.at_punct(";") else self.expression()
                self.expect_punct(";")
                return A.Return(value, t.loc)
            if text == "break":
                self.next()
                self.expect_punct(";")
                return A.Break(t.loc)
            if text == "continue":
                self.next()
                self.expect_punct(";")
                return A.Continue(t.loc)
            if text in TYPE_KEYWORDS:
                return self.declaration()
        elif kind is _PUNCT:
            if t.text == "{":
                return self.block()
            if t.text == ";":
                self.next()
                return A.Block((), t.loc)
        elif kind is TokKind.PRAGMA:
            return self.pragma_statement()
        expr = self.expression()
        self.expect_punct(";")
        return A.ExprStmt(expr, t.loc)

    def pragma_statement(self) -> A.Statement:
        pragmas: list[str] = []
        loc = self.tok.loc
        while self.tok.kind is TokKind.PRAGMA:
            pragmas.append(self.next().text)
        t = self.tok
        if t.is_keyword("for"):
            return self.for_statement(tuple(pragmas))
        if t.is_keyword("while"):
            return self.while_statement(tuple(pragmas))
        # a free-standing pragma (or one before a non-loop statement)
        if len(pragmas) == 1 and (t.is_punct("}") or t.kind is _EOF):
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
        other = None
        if self.tok.is_keyword("else"):
            self.next()
            other = self.statement()
        return A.If(cond, then, other, t.loc)

    def for_statement(self, pragmas: tuple[str, ...]) -> A.For:
        t = self.next()
        self.expect_punct("(")
        init: A.Statement | None
        if self.accept_punct(";"):
            init = None
        elif self.at_type():
            init = self.declaration()  # consumes the ';'
        else:
            e = self.expression()
            self.expect_punct(";")
            init = A.ExprStmt(e, t.loc)
        cond = None if self.at_punct(";") else self.expression()
        self.expect_punct(";")
        step = None if self.at_punct(")") else self.expression()
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
        if not self.tok.is_keyword("while"):
            raise ParseError("expected 'while' after do-body", t.loc.line, t.loc.col)
        self.next()
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
        t = self.tok
        if t.kind is _PUNCT and t.text in _ASSIGN_OPS:
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
            t = self.tok
            if t.kind is not _PUNCT:
                return left
            prec = _BIN_PREC.get(t.text)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            self.tok = self.toks[self.pos]
            right = self.binary(prec + 1)
            left = A.BinOp(t.text, left, right, t.loc)

    def unary(self) -> A.Expression:
        t = self.tok
        if t.kind is _PUNCT:
            op = t.text
            if op in _UNARY_OPS:
                self.next()
                operand = self.unary()
                if op == "*" or op == "&":
                    # pointer deref / address-of: treat as an opaque call
                    return A.Call("__deref__" if op == "*" else "__addr__", (operand,), t.loc)
                return A.UnaryOp(op, operand, False, t.loc)
        return self.postfix()

    def postfix(self) -> A.Expression:
        e = self.primary()
        while True:
            t = self.tok
            if t.kind is not _PUNCT:
                return e
            op = t.text
            if op == "[":
                self.next()
                idx = self.expression()
                self.expect_punct("]")
                e = A.ArrayRef(e, idx, t.loc)
            elif op == "(" and isinstance(e, A.Ident):
                self.next()
                args: list[A.Expression] = []
                if not self.at_punct(")"):
                    while True:
                        args.append(self.assignment())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                e = A.Call(e.name, tuple(args), t.loc)
            elif op == "++" or op == "--":
                self.next()
                e = A.UnaryOp(op, e, True, t.loc)
            else:
                return e

    def primary(self) -> A.Expression:
        t = self.tok
        kind = t.kind
        if kind is _IDENT:
            self.next()
            return A.Ident(t.text, t.loc)
        if kind is _INT:
            self.next()
            return A.IntLit(_int_value(t), t.loc)
        if kind is TokKind.FLOAT:
            self.next()
            return A.FloatLit(_float_value(t), t.loc)
        if kind is _PUNCT and t.text == "(":
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
        if kind is TokKind.STRING or kind is TokKind.CHAR:
            self.next()
            return A.Call("__literal__", (A.Ident(t.text, t.loc),), t.loc)
        raise ParseError(f"unexpected token {t.text!r}", t.loc.line, t.loc.col)


def _int_value(t: Token) -> int:
    """The value of a C integer literal: hexadecimal after ``0x``, octal
    after a leading ``0`` (``010`` is 8), decimal otherwise; the ``u``/``l``
    suffixes do not change it."""
    body = t.text.rstrip("uUlL")
    try:
        if body[:2] in ("0x", "0X"):
            return int(body[2:], 16)
        return int(body, 8 if body[0] == "0" else 10)
    except ValueError:
        raise ParseError(
            f"invalid integer literal {t.text!r}", t.loc.line, t.loc.col
        ) from None


def _float_value(t: Token) -> float:
    try:
        return float(t.text.rstrip("fFlL"))
    except ValueError:
        raise ParseError(
            f"invalid floating literal {t.text!r}", t.loc.line, t.loc.col
        ) from None
