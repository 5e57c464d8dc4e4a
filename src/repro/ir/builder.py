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


def _assign_labels(
    stmts: list[Stmt], prefix: str = "L", counter: "list[int] | None" = None
) -> None:
    """Label the loops of ``stmts`` ``L1``, ``L2``, ... and their nested
    loops ``L1.1``, ...; ``counter`` numbers the loops of one block."""
    counter = [0] if counter is None else counter
    for s in stmts:
        if isinstance(s, (SLoop, SWhile)):
            counter[0] += 1
            label = f"{prefix}{counter[0]}"
            s.label = label
            inner = [0]
            for b in s.blocks():
                _assign_labels(b, label + ".", inner)
        else:
            for b in s.blocks():
                _assign_labels(b, prefix, counter)


class _Builder:
    def __init__(self, tab: SymbolTable) -> None:
        self.tab = tab
        #: ternary temps lowered so far: numbered per build, so the same
        #: source always lowers to the same IR
        self.temps = 0

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
            out.append(self._pure(d, "an array dimension"))
        return tuple(out)

    def _pure(self, e: A.Expression, where: str) -> IExpr:
        """Lower an expression that must have no side effects."""
        pre, value, post = self.pure_expr(e)
        if pre or post:
            raise IRError(f"{e.loc}: side effects in {where} are unsupported")
        return value

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
                    stmts, _, post = self._assign(A.Ident(d.name, d.loc), "=", d.init, d.loc)
                    out += [*stmts, *post]
            return out
        if isinstance(s, A.ExprStmt):
            return self.expr_statement(s.expr, s.loc)
        if isinstance(s, A.If):
            cond = self._pure(s.cond, "if-condition")
            return [SIf(cond, self.statement(s.then), self.statement(s.other) if s.other else [], s.loc)]
        if isinstance(s, A.For):
            return self.for_statement(s)
        if isinstance(s, A.While):
            cond = self._pure(s.cond, "while-condition")
            return [SWhile(cond, self.statement(s.body), "", s.loc)]
        if isinstance(s, A.Return):
            if s.value is None:
                return [SReturn(None, s.loc)]
            pre, v, post = self.pure_expr(s.value)
            if post:
                # no statement follows a return: keep the value in a temp
                tmp = self._fresh_temp(v)
                return [*pre, SAssign(tmp, v, s.loc), *post, SReturn(tmp, s.loc)]
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
            stmts, _, post = self._assign(e.target, e.op, e.value, loc)
            return [*stmts, *post]
        if isinstance(e, A.UnaryOp) and e.op in ("++", "--"):
            one = A.IntLit(1, e.loc)
            stmts, _, post = self._assign(e.operand, "+=" if e.op == "++" else "-=", one, loc)
            return [*stmts, *post]
        if isinstance(e, A.Call):
            pre, args, post = self._pure_args(e.args)
            return [*pre, SCall(ICall(e.name, tuple(args)), loc), *post]
        # an expression evaluated for side effects only
        pre, _, post = self.pure_expr(e)
        return [*pre, *post]

    def _assign(
        self, target: A.Expression, op: str, value: A.Expression, loc
    ) -> tuple[list[Stmt], IVar | IArrayRef, list[Stmt]]:
        """``(statements up to the store, target, post effects)``: an
        assignment's value is its target read after the store, before
        the post effects."""
        pre_t, post_t, tgt = self._lvalue(target)
        pre_v, val, post_v = self.pure_expr(value)
        if op != "=":
            val = IBin(op[0], tgt, val)
        return [*pre_t, *pre_v, SAssign(tgt, val, loc)], tgt, [*post_v, *post_t]

    def _lvalue(self, e: A.Expression) -> tuple[list[Stmt], list[Stmt], IVar | IArrayRef]:
        """Lower an assignment target; returns (pre, post, target).
        Index expressions may carry ``++``/``--`` (``a[index++] = ...``)."""
        if isinstance(e, A.Ident):
            return [], [], IVar(e.name)
        if isinstance(e, A.ArrayRef):
            pre, ref, post = self.pure_expr(e)
            return pre, post, ref  # type: ignore[return-value]
        raise IRError(f"unsupported assignment target {e}")

    # -- expressions ---------------------------------------------------------------
    def pure_expr(self, e: A.Expression) -> tuple[list[Stmt], IExpr, list[Stmt]]:
        """Lower an expression to ``(pre, value, post)``: its side effects
        become statements that run before the value is read (``pre``, a
        pre-increment) and after the containing statement (``post``, a
        post-increment), C's semantics for the single-side-effect
        expressions the corpus uses."""
        if isinstance(e, A.IntLit):
            return [], IConst(e.value), []
        if isinstance(e, A.FloatLit):
            return [], IFloat(e.value), []
        if isinstance(e, A.Ident):
            return [], IVar(e.name), []
        if isinstance(e, A.ArrayRef):
            name = e.root_name()
            if name is None:
                raise IRError(f"{e.loc}: cannot lower array ref {e}")
            pre: list[Stmt] = []
            post: list[Stmt] = []
            idx: list[IExpr] = []
            for index in e.indices():
                p, ix, q = self.pure_expr(index)
                pre.extend(p)
                post.extend(q)
                idx.append(ix)
            return pre, IArrayRef(name, tuple(idx)), post
        if isinstance(e, A.UnaryOp):
            if e.op in ("++", "--"):
                # the statement form's update, before or after the read
                pre_t, post_t, tgt = self._lvalue(e.operand)
                update = SAssign(tgt, IBin(e.op[0], tgt, IConst(1)), e.loc)
                if e.postfix:
                    return pre_t, tgt, [update, *post_t]
                return [*pre_t, update], tgt, post_t
            pre, operand, post = self.pure_expr(e.operand)
            if e.op == "+":
                return pre, operand, post
            return pre, IUn(e.op, operand), post
        if isinstance(e, A.BinOp):
            pre_l, left, post_l = self.pure_expr(e.left)
            pre_r, right, post_r = self.pure_expr(e.right)
            if e.op in _LOGIC_OPS and (pre_r or post_r):
                # they would run whether or not the operator evaluates it
                raise IRError(f"{e.loc}: side effects in the right operand of {e.op} are unsupported")
            return [*pre_l, *pre_r], IBin(e.op, left, right), [*post_l, *post_r]
        if isinstance(e, A.Cond):
            # ternary in rvalue position: lower via a fresh temp and SIf;
            # the condition's post effects land before either branch runs
            pre_c, cond, post_c = self.pure_expr(e.cond)
            pre_t, tval, post_t = self.pure_expr(e.then)
            pre_f, fval, post_f = self.pure_expr(e.other)
            tmp = self._fresh_temp(tval, fval)
            branch = SIf(
                cond,
                [*post_c, *pre_t, SAssign(tmp, tval, e.loc), *post_t],
                [*post_c, *pre_f, SAssign(tmp, fval, e.loc), *post_f],
                e.loc,
            )
            return [*pre_c, branch], tmp, []
        if isinstance(e, A.Call):
            pre, args, post = self._pure_args(e.args)
            return pre, ICall(e.name, tuple(args)), post
        if isinstance(e, A.Assign):
            return self._assign(e.target, e.op, e.value, e.loc)
        raise IRError(f"unsupported expression {type(e).__name__}")

    def _pure_args(
        self, args: tuple[A.Expression, ...]
    ) -> tuple[list[Stmt], list[IExpr], list[Stmt]]:
        pre: list[Stmt] = []
        out: list[IExpr] = []
        post: list[Stmt] = []
        for a in args:
            p, v, q = self.pure_expr(a)
            pre.extend(p)
            out.append(v)
            post.extend(q)
        return pre, out, post

    def _fresh_temp(self, *values: IExpr) -> IVar:
        """A new temp for ``values``: ``double`` when one reads a float,
        as C's conversions type the expression, else ``int``."""
        self.temps += 1
        name = f"__t{self.temps}"
        floaty = any(self._reads_float(n) for v in values for n in v.walk())
        self.tab.declare(VarInfo(name, ElemType.FLOAT if floaty else ElemType.INT))
        return IVar(name)

    def _reads_float(self, e: IExpr) -> bool:
        if isinstance(e, IFloat):
            return True
        name = e.name if isinstance(e, IVar) else e.array if isinstance(e, IArrayRef) else None
        info = self.tab.lookup(name) if name is not None else None
        return info is not None and info.elem_type is ElemType.FLOAT

    # -- loop normalization -----------------------------------------------------------
    def for_statement(self, s: A.For) -> list[Stmt]:
        body = self.statement(s.body)
        norm = self._normalize_for(s)
        if norm is not None:
            var, lb, ub, step, pre = norm
            return [*pre, SLoop(var, lb, ub, step, body, s.pragmas, "", s.loc)]
        # fallback: init; while (cond) { body; step; }, where a continue
        # of this loop runs the step first, as C's does
        out: list[Stmt] = []
        if s.init is not None:
            out.extend(self.statement(s.init))
        cond: IExpr = IConst(1)
        if s.cond is not None:
            cond = self._pure(s.cond, "for-condition")
        step_stmts: list[Stmt] = []
        if s.step is not None:
            step_stmts = self.expr_statement(s.step, s.loc)
            body = self._step_before_continue(body, s.step, s.loc)
        out.append(SWhile(cond, [*body, *step_stmts], "", s.loc))
        return out

    def _step_before_continue(self, stmts: list[Stmt], step: A.Expression, loc) -> list[Stmt]:
        """``stmts`` with the step lowered again before every ``continue``
        that belongs to the loop (a nested loop's ``continue`` is its own)."""
        out: list[Stmt] = []
        for st in stmts:
            if isinstance(st, SContinue):
                out.extend(self.expr_statement(step, loc))
            elif isinstance(st, SIf):
                st.then = self._step_before_continue(st.then, step, loc)
                st.other = self._step_before_continue(st.other, step, loc)
            out.append(st)
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
        pre_b, bound, post_b = self.pure_expr(right)
        if pre_b or post_b:
            return None
        pre_l, lb, post_l = self.pure_expr(lb_ast)
        if post_l:
            return None  # the while form runs the init as a statement
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
