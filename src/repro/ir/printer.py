"""IR → C printer, the package's only one.

The parallelizer works on the IR, so the annotated program the pipeline
emits is printed from IR, declarations included: the builder lowers
every declared dimension to an IR expression.  Because lowering
desugared ``++``/``--`` into explicit assignments, the output is plain
(and still valid) C.

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

# the parser's binary precedences (a declared dimension may use any of them)
_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}


#: the calls the parser makes of C's pointer operators (``*p``, ``&p``),
#: printed back as those operators at unary precedence
_POINTER_OPS = {"__deref__": "*", "__addr__": "&"}


def expr_to_c(e: IExpr, parent_prec: int = 0) -> str:
    if isinstance(e, IVar):
        return e.name
    if isinstance(e, IConst):
        return str(e.value)
    if isinstance(e, IFloat):
        return repr(e.value)
    if isinstance(e, IArrayRef):
        return e.array + "".join(f"[{expr_to_c(i)}]" for i in e.indices)
    if isinstance(e, IUn):
        return _unary(e.op, expr_to_c(e.operand, 11))
    if isinstance(e, IBin):
        prec = _PREC[e.op]
        text = f"{expr_to_c(e.left, prec)} {e.op} {expr_to_c(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, ICall):
        if e.name in _POINTER_OPS and len(e.args) == 1:
            return _unary(_POINTER_OPS[e.name], expr_to_c(e.args[0], 11))
        if e.name == "__literal__" and len(e.args) == 1 and isinstance(e.args[0], IVar):
            return e.args[0].name  # a string or char literal's own text
        return f"{e.name}({', '.join(expr_to_c(a) for a in e.args)})"
    raise TypeError(f"unprintable IR expression {e!r}")


def _unary(op: str, operand: str) -> str:
    """``op`` applied to the printed ``operand``; two minus signs never
    touch (``- -x`` would print as the decrement ``--x``)."""
    if op == "-" and operand.startswith("-"):
        return f"-({operand})"
    return f"{op}{operand}"


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
            f"{s.var}++" if s.step == 1
            else f"{s.var}--" if s.step == -1
            else f"{s.var} += {s.step}" if s.step > 0
            else f"{s.var} -= {-s.step}"  # `i += -2` would not parse back as a counted loop
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
    params = []
    locals_: list[str] = []
    for info in func.symtab.vars.values():
        dims = "".join(f"[{expr_to_c(d) if d is not None else ''}]" for d in info.dims)
        c_type = "double" if info.elem_type is ElemType.FLOAT else "int"
        if info.is_param:
            params.append(f"{c_type} {info.name}{dims}")
        elif not info.is_global:
            locals_.append(f"{_INDENT}{c_type} {info.name}{dims};")
    header = f"void {func.name}({', '.join(params) or 'void'}) {{"
    body = block_to_c(func.body, 1, pragmas)
    return "\n".join([header, *locals_, body, "}"])
