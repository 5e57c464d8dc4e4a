"""AST → IR lowering.

Responsibilities:

* build symbol tables from declarations and parameters (block-scope
  declarations are hoisted to function scope — sufficient for the corpus,
  which never shadows), with every declared dimension lowered to an IR
  expression (``None`` when unsized), so nothing downstream of the
  builder reads the AST;
* desugar compound assignment and ``++``/``--`` (statement position and
  embedded: pre-ops are emitted before the containing statement, post-ops
  after it, matching C semantics for the single-side-effect expressions
  the corpus uses);
* normalize inductive ``for`` loops into :class:`~repro.ir.nodes.SLoop`
  (``i = lb``; ``i </<=/>/>= bound``; ``i ± const`` step), falling back to
  ``SWhile`` otherwise;
* assign stable loop labels in program order: outer loops ``L1, L2...``,
  children ``L1.1`` etc.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.frontend import c_ast as A
from repro.frontend.parser import parse_function, parse_program
from repro.ir.nodes import (
    IArrayRef,
    IBin,
    ICall,
    IConst,
    IExpr,
    IFloat,
    IRFunction,
    IRProgram,
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
from repro.ir.symtab import ElemType, SymbolTable, VarInfo

_CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}
_ARITH_OPS = {"+", "-", "*", "/", "%"}
_LOGIC_OPS = {"&&", "||"}


def build_program(source_or_ast: "str | A.Program") -> IRProgram:
    """Lower a translation unit (source text or parsed AST) to IR."""
    ast = parse_program(source_or_ast) if isinstance(source_or_ast, str) else source_or_ast
    globals_tab = SymbolTable()
    builder = _Builder(globals_tab)
    for g in ast.globals:
        builder.declare(g, is_global=True)
    funcs: dict[str, IRFunction] = {}
    for f in ast.functions:
        funcs[f.name] = _build_function(f, globals_tab)
    return IRProgram(funcs, globals_tab)


def build_function(source_or_ast: "str | A.FuncDef", name: str | None = None) -> IRFunction:
    """Lower a single function to IR."""
    if isinstance(source_or_ast, str):
        ast = parse_function(source_or_ast, name)
    else:
        ast = source_or_ast
    return _build_function(ast, SymbolTable())


def _build_function(f: A.FuncDef, globals_tab: SymbolTable) -> IRFunction:
    tab = SymbolTable(parent=globals_tab)
    builder = _Builder(tab)
    for p in f.params:
        tab.declare(
            VarInfo(p.name, ElemType.of_c_type(p.type_name), builder.dims(p.dims), is_param=True)
        )
    body = builder.stmt_list(f.body.stmts)
    _assign_labels(body)
    return IRFunction(f.name, body, tab)


def _assign_labels(body: list[Stmt]) -> None:
    def visit(stmts: list[Stmt], prefix: str, counter: list[int]) -> None:
        for s in stmts:
            if isinstance(s, (SLoop, SWhile)):
                counter[0] += 1
                label = f"{prefix}{counter[0]}"
                s.label = label
                inner = [0]
                for b in s.blocks():
                    visit(b, label + ".", inner)
            else:
                for b in s.blocks():
                    visit(b, prefix, counter)

    visit(body, "L", [0])


class _Builder:
    def __init__(self, tab: SymbolTable) -> None:
        self.tab = tab

    # -- declarations --------------------------------------------------------
    def declare(self, decl: A.DeclStmt, is_global: bool = False) -> None:
        etype = ElemType.of_c_type(decl.type_name)
        for d in decl.declarators:
            self.tab.declare(VarInfo(d.name, etype, self.dims(d.dims), is_global=is_global))

    def dims(self, dims: tuple[A.Expression | None, ...]) -> tuple[IExpr | None, ...]:
        """Lower declared dimensions; ``None`` stays an unsized one."""
        out: list[IExpr | None] = []
        for d in dims:
            if d is None:
                out.append(None)
                continue
            pre, dim = self.pure_expr(d)
            if pre:
                raise IRError(f"{d.loc}: side effects in an array dimension are unsupported")
            out.append(dim)
        return tuple(out)

    # -- statements ----------------------------------------------------------
    def stmt_list(self, stmts: tuple[A.Statement, ...] | list[A.Statement]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            out.extend(self.statement(s))
        return out

    def statement(self, s: A.Statement) -> list[Stmt]:
        if isinstance(s, A.Block):
            return self.stmt_list(s.stmts)
        if isinstance(s, A.DeclStmt):
            self.declare(s)
            out: list[Stmt] = []
            for d in s.declarators:
                if d.init is not None:
                    out.extend(self._assign(A.Ident(d.name, d.loc), "=", d.init, d.loc))
            return out
        if isinstance(s, A.ExprStmt):
            return self.expr_statement(s.expr, s.loc)
        if isinstance(s, A.If):
            pre, cond = self.pure_expr(s.cond)
            if pre:
                raise IRError(f"{s.loc}: side effects in if-condition are unsupported")
            return [SIf(cond, self.statement(s.then), self.statement(s.other) if s.other else [], s.loc)]
        if isinstance(s, A.For):
            return self.for_statement(s)
        if isinstance(s, A.While):
            pre, cond = self.pure_expr(s.cond)
            if pre:
                raise IRError(f"{s.loc}: side effects in while-condition are unsupported")
            return [SWhile(cond, self.statement(s.body), "", s.loc)]
        if isinstance(s, A.Return):
            if s.value is None:
                return [SReturn(None, s.loc)]
            pre, v = self.pure_expr(s.value)
            return [*pre, SReturn(v, s.loc)]
        if isinstance(s, A.Break):
            return [SBreak(s.loc)]
        if isinstance(s, A.Continue):
            return [SContinue(s.loc)]
        if isinstance(s, A.Pragma):
            return []  # free-standing pragmas carry no IR semantics
        raise IRError(f"unsupported statement {type(s).__name__}")

    def expr_statement(self, e: A.Expression, loc) -> list[Stmt]:
        if isinstance(e, A.Assign):
            return self._assign(e.target, e.op, e.value, loc)
        if isinstance(e, A.UnaryOp) and e.op in ("++", "--"):
            one = A.IntLit(1, e.loc)
            return self._assign(e.operand, "+=" if e.op == "++" else "-=", one, loc)
        if isinstance(e, A.Call):
            pre, args = self._pure_args(e.args)
            return [*pre, SCall(ICall(e.name, tuple(args)), loc)]
        # an expression evaluated for side effects only
        pre, _ = self.pure_expr(e)
        return pre

    def _assign(self, target: A.Expression, op: str, value: A.Expression, loc) -> list[Stmt]:
        pre_t, post_t, tgt = self._lvalue(target)
        pre_v, val = self.pure_expr(value)
        if op != "=":
            val = IBin(op[0], tgt, val)
        return [*pre_t, *pre_v, SAssign(tgt, val, loc), *post_t]

    def _lvalue(self, e: A.Expression) -> tuple[list[Stmt], list[Stmt], IVar | IArrayRef]:
        """Lower an assignment target; returns (pre, post, target).
        Index expressions may carry ``++``/``--`` (``a[index++] = ...``)."""
        if isinstance(e, A.Ident):
            return [], [], IVar(e.name)
        if isinstance(e, A.ArrayRef):
            name = e.root_name()
            if name is None:
                raise IRError(f"{e.loc}: cannot lower array target {e}")
            pre: list[Stmt] = []
            post: list[Stmt] = []
            idx: list[IExpr] = []
            for index in e.indices():
                p, q, ix = self._index_expr(index)
                pre.extend(p)
                post.extend(q)
                idx.append(ix)
            return pre, post, IArrayRef(name, tuple(idx))
        raise IRError(f"unsupported assignment target {e}")

    def _index_expr(self, e: A.Expression) -> tuple[list[Stmt], list[Stmt], IExpr]:
        """Like pure_expr but separates post-increment side effects so
        they run *after* the containing statement (C semantics)."""
        if isinstance(e, A.UnaryOp) and e.op in ("++", "--") and isinstance(e.operand, A.Ident):
            v = IVar(e.operand.name)
            delta = IConst(1 if e.op == "++" else -1)
            update = SAssign(v, IBin("+", v, delta), e.loc)
            if e.postfix:
                return [], [update], v
            return [update], [], v
        pre, pure = self.pure_expr(e)
        return pre, [], pure

    # -- expressions ---------------------------------------------------------------
    def pure_expr(self, e: A.Expression) -> tuple[list[Stmt], IExpr]:
        """Lower an expression, extracting side effects as prefix statements."""
        if isinstance(e, A.IntLit):
            return [], IConst(e.value)
        if isinstance(e, A.FloatLit):
            return [], IFloat(e.value)
        if isinstance(e, A.Ident):
            return [], IVar(e.name)
        if isinstance(e, A.ArrayRef):
            name = e.root_name()
            if name is None:
                raise IRError(f"{e.loc}: cannot lower array ref {e}")
            pre: list[Stmt] = []
            idx: list[IExpr] = []
            for index in e.indices():
                p, q, ix = self._index_expr(index)
                pre.extend(p)
                if q:
                    # post-increment inside a *read* index: emit after read —
                    # since the read itself is pure, after-the-expression is
                    # equivalent to after-the-statement here.
                    pre_reads = q
                    pre.extend(pre_reads)
                idx.append(ix)
            return pre, IArrayRef(name, tuple(idx))
        if isinstance(e, A.UnaryOp):
            if e.op in ("++", "--"):
                p, q, v = self._index_expr(e)
                return [*p, *q], v
            pre, operand = self.pure_expr(e.operand)
            if e.op == "+":
                return pre, operand
            return pre, IUn(e.op, operand)
        if isinstance(e, A.BinOp):
            pre_l, left = self.pure_expr(e.left)
            pre_r, right = self.pure_expr(e.right)
            return [*pre_l, *pre_r], IBin(e.op, left, right)
        if isinstance(e, A.Cond):
            # ternary in rvalue position: lower via a fresh temp and SIf
            pre_c, cond = self.pure_expr(e.cond)
            pre_t, tval = self.pure_expr(e.then)
            pre_f, fval = self.pure_expr(e.other)
            tmp = IVar(self._fresh_temp())
            branch = SIf(cond, [*pre_t, SAssign(tmp, tval, e.loc)], [*pre_f, SAssign(tmp, fval, e.loc)], e.loc)
            return [*pre_c, branch], tmp
        if isinstance(e, A.Call):
            pre, args = self._pure_args(e.args)
            return pre, ICall(e.name, tuple(args))
        if isinstance(e, A.Assign):
            stmts = self._assign(e.target, e.op, e.value, e.loc)
            _, tgt = self.pure_expr(e.target)
            return stmts, tgt
        raise IRError(f"unsupported expression {type(e).__name__}")

    def _pure_args(self, args: tuple[A.Expression, ...]) -> tuple[list[Stmt], list[IExpr]]:
        pre: list[Stmt] = []
        out: list[IExpr] = []
        for a in args:
            p, v = self.pure_expr(a)
            pre.extend(p)
            out.append(v)
        return pre, out

    _temp_counter = 0

    def _fresh_temp(self) -> str:
        _Builder._temp_counter += 1
        name = f"__t{_Builder._temp_counter}"
        self.tab.declare(VarInfo(name, ElemType.INT))
        return name

    # -- loop normalization -----------------------------------------------------------
    def for_statement(self, s: A.For) -> list[Stmt]:
        body = self.statement(s.body)
        norm = self._normalize_for(s)
        if norm is not None:
            var, lb, ub, step, pre = norm
            return [*pre, SLoop(var, lb, ub, step, body, s.pragmas, "", s.loc)]
        # fallback: init; while (cond) { body; step; }
        out: list[Stmt] = []
        if s.init is not None:
            out.extend(self.statement(s.init))
        cond: IExpr = IConst(1)
        if s.cond is not None:
            pre, cond = self.pure_expr(s.cond)
            if pre:
                raise IRError(f"{s.loc}: side effects in for-condition are unsupported")
        step_stmts: list[Stmt] = []
        if s.step is not None:
            step_stmts = self.expr_statement(s.step, s.loc)
        out.append(SWhile(cond, [*body, *step_stmts], "", s.loc))
        return out

    def _normalize_for(
        self, s: A.For
    ) -> tuple[str, IExpr, IExpr, int, list[Stmt]] | None:
        """Match ``for (v = lb; v </<=/>/>= bound; v ± c)``; returns
        (var, lb, ub_exclusive, step, pre_statements) or None."""
        # --- induction variable and lower bound
        var: str | None = None
        lb_ast: A.Expression | None = None
        pre: list[Stmt] = []
        if isinstance(s.init, A.ExprStmt) and isinstance(s.init.expr, A.Assign) and s.init.expr.op == "=":
            tgt = s.init.expr.target
            if isinstance(tgt, A.Ident):
                var = tgt.name
                lb_ast = s.init.expr.value
        elif isinstance(s.init, A.DeclStmt) and len(s.init.declarators) == 1:
            d = s.init.declarators[0]
            if d.init is not None and not d.dims:
                self.declare(s.init)
                var = d.name
                lb_ast = d.init
        if var is None or lb_ast is None or s.cond is None or s.step is None:
            return None
        # --- step
        step = self._match_step(s.step, var)
        if step is None:
            return None
        # --- bound
        if not isinstance(s.cond, A.BinOp):
            return None
        op, left, right = s.cond.op, s.cond.left, s.cond.right
        if isinstance(right, A.Ident) and right.name == var and op in _CMP_OPS:
            # flip: bound OP var
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
            op, left, right = flip[op], right, left
        if not (isinstance(left, A.Ident) and left.name == var):
            return None
        if any(
            isinstance(n, A.Ident) and n.name == var for n in right.walk()
        ):
            return None  # bound must not reference the induction variable
        pre_b, bound = self.pure_expr(right)
        if pre_b:
            return None
        pre_l, lb = self.pure_expr(lb_ast)
        pre.extend(pre_l)
        if step > 0:
            if op == "<" or op == "!=":
                ub = bound
            elif op == "<=":
                ub = IBin("+", bound, IConst(1))
            else:
                return None
        else:
            if op == ">" or op == "!=":
                ub = bound
            elif op == ">=":
                ub = IBin("-", bound, IConst(1))
            else:
                return None
        return var, lb, ub, step, pre

    def _match_step(self, e: A.Expression, var: str) -> int | None:
        if isinstance(e, A.UnaryOp) and isinstance(e.operand, A.Ident) and e.operand.name == var:
            if e.op == "++":
                return 1
            if e.op == "--":
                return -1
        if isinstance(e, A.Assign) and isinstance(e.target, A.Ident) and e.target.name == var:
            if e.op in ("+=", "-=") and isinstance(e.value, A.IntLit):
                return e.value.value if e.op == "+=" else -e.value.value
            if e.op == "=" and isinstance(e.value, A.BinOp) and isinstance(e.value.right, A.IntLit):
                v = e.value
                if isinstance(v.left, A.Ident) and v.left.name == var:
                    if v.op == "+":
                        return v.right.value
                    if v.op == "-":
                        return -v.right.value
        return None
