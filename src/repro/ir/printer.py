"""IR → C pretty-printer.

The parallelizer works on the IR, so the annotated program the pipeline
emits is printed from IR.  Because lowering desugared ``++``/``--`` into
explicit assignments, the output is plain (and still valid) C.

``pragmas=False`` prints without loop pragmas.  Pragmas are planner
output, read only by this printer and the planner's ``_annotate``, so
content keys print this way: annotating a function must not change what
it is (see :func:`repro.analysis.framework.function_key`).
"""

from __future__ import annotations

from repro.ir.nodes import (
    IArrayRef,
    IBin,
    ICall,
    IConst,
    IExpr,
    IFloat,
    IRFunction,
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
from repro.ir.symtab import ElemType

_INDENT = "    "

_PREC = {
    "||": 1, "&&": 2,
    "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}


def expr_to_c(e: IExpr, parent_prec: int = 0) -> str:
    if isinstance(e, (IConst, IFloat, IVar)):
        return str(e)
    if isinstance(e, IArrayRef):
        return e.array + "".join(f"[{expr_to_c(i)}]" for i in e.indices)
    if isinstance(e, IUn):
        return f"{e.op}{expr_to_c(e.operand, 11)}"
    if isinstance(e, IBin):
        prec = _PREC[e.op]
        text = f"{expr_to_c(e.left, prec)} {e.op} {expr_to_c(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, ICall):
        return f"{e.name}({', '.join(expr_to_c(a) for a in e.args)})"
    raise TypeError(f"unprintable IR expression {e!r}")


def stmt_to_c(s: Stmt, level: int = 0, pragmas: bool = True) -> str:
    pad = _INDENT * level
    if isinstance(s, SAssign):
        return f"{pad}{expr_to_c(s.target)} = {expr_to_c(s.value)};"
    if isinstance(s, SIf):
        text = (
            f"{pad}if ({expr_to_c(s.cond)}) {{\n"
            + block_to_c(s.then, level + 1, pragmas)
            + f"\n{pad}}}"
        )
        if s.other:
            text += " else {\n" + block_to_c(s.other, level + 1, pragmas) + f"\n{pad}}}"
        return text
    if isinstance(s, SLoop):
        lines = [f"{pad}#pragma {p}" for p in s.pragmas] if pragmas else []
        cmp_op = "<" if s.step > 0 else ">"
        step_txt = (
            f"{s.var}++" if s.step == 1 else f"{s.var}--" if s.step == -1 else f"{s.var} += {s.step}"
        )
        lines.append(
            f"{pad}for ({s.var} = {expr_to_c(s.lb)}; {s.var} {cmp_op} {expr_to_c(s.ub)}; {step_txt}) {{"
        )
        lines.append(block_to_c(s.body, level + 1, pragmas))
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    if isinstance(s, SWhile):
        return (
            f"{pad}while ({expr_to_c(s.cond)}) {{\n"
            + block_to_c(s.body, level + 1, pragmas)
            + f"\n{pad}}}"
        )
    if isinstance(s, SCall):
        return f"{pad}{expr_to_c(s.call)};"
    if isinstance(s, SReturn):
        return f"{pad}return {expr_to_c(s.value)};" if s.value is not None else f"{pad}return;"
    if isinstance(s, SBreak):
        return f"{pad}break;"
    if isinstance(s, SContinue):
        return f"{pad}continue;"
    raise TypeError(f"unprintable IR statement {s!r}")


def block_to_c(stmts: list[Stmt], level: int = 0, pragmas: bool = True) -> str:
    if not stmts:
        return _INDENT * level + ";"
    return "\n".join(stmt_to_c(s, level, pragmas) for s in stmts)


def function_to_c(func: IRFunction, pragmas: bool = True) -> str:
    """Emit a full C function definition from IR (without loop pragmas
    when ``pragmas`` is false)."""
    from repro.frontend.printer import expr_to_c as ast_expr_to_c

    params = []
    locals_: list[str] = []
    for info in func.symtab.vars.values():
        dims = "".join(
            f"[{ast_expr_to_c(d) if d is not None else ''}]" for d in info.dims  # type: ignore[arg-type]
        )
        c_type = "double" if info.elem_type is ElemType.FLOAT else "int"
        if info.is_param:
            params.append(f"{c_type} {info.name}{dims}")
        elif not info.is_global:
            locals_.append(f"{_INDENT}{c_type} {info.name}{dims};")
    header = f"void {func.name}({', '.join(params) or 'void'}) {{"
    body = block_to_c(func.body, 1, pragmas)
    return "\n".join([header, *locals_, body, "}"])
