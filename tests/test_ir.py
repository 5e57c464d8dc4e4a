"""IR tests: lowering/desugaring, loop normalization, labels, symtab,
the IR printer, and the IR→symbolic bridge."""

from __future__ import annotations

import pytest

from repro.errors import IRError, ParseError
from repro.ir import (
    IArrayRef,
    IBin,
    IConst,
    IExpr,
    IVar,
    SAssign,
    SIf,
    SLoop,
    SWhile,
    build_function,
    build_program,
    cond_to_atoms,
    expr_to_c,
    function_to_c,
    ir_to_sym,
    stmt_to_c,
)
from repro.ir.symtab import ElemType
from repro.symbolic import BOTTOM, add, array_term, const, intdiv, mod, mul, sub, var


def lower(body: str, decls: str = "int i, j, k, x, y, n; int a[100]; int b[100];") -> list:
    src = f"void f() {{ {decls} {body} }}"
    return build_function(src).body


class TestDesugaring:
    def test_compound_assign(self):
        stmts = lower("x += 3;")
        s = stmts[0]
        assert isinstance(s, SAssign)
        assert isinstance(s.value, IBin) and s.value.op == "+"

    def test_statement_increment(self):
        stmts = lower("x++;")
        s = stmts[0]
        assert isinstance(s, SAssign)
        assert expr_to_c(s.value) == "x + 1"

    def test_postincrement_in_subscript(self):
        stmts = lower("a[x++] = 5;")
        assert len(stmts) == 2
        write, update = stmts
        assert isinstance(write, SAssign) and isinstance(write.target, IArrayRef)
        assert expr_to_c(write.target) == "a[x]"
        assert isinstance(update, SAssign) and expr_to_c(update.target) == "x"

    def test_preincrement_in_subscript(self):
        stmts = lower("a[++x] = 5;")
        update, write = stmts
        assert expr_to_c(update.target) == "x"
        assert expr_to_c(write.target) == "a[x]"

    def test_ternary_lowered_to_if(self):
        stmts = lower("x = y > 0 ? 1 : 2;")
        assert any(isinstance(s, SIf) for s in stmts)

    def test_multidim_ref(self):
        stmts = lower("x = c[i][j];", decls="int i, j, x; int c[10][10];")
        s = stmts[0]
        assert isinstance(s.value, IArrayRef)
        assert len(s.value.indices) == 2


class TestLoopNormalization:
    def test_upward_lt(self):
        stmts = lower("for (i = 0; i < n; i++) { x = i; }")
        loop = stmts[0]
        assert isinstance(loop, SLoop)
        assert (expr_to_c(loop.lb), expr_to_c(loop.ub), loop.step) == ("0", "n", 1)

    def test_upward_le(self):
        loop = lower("for (i = 1; i <= n; i++) { x = i; }")[0]
        assert expr_to_c(loop.ub) == "n + 1"

    def test_downward(self):
        loop = lower("for (i = n - 1; i >= 0; i--) { x = i; }")[0]
        assert loop.step == -1
        assert expr_to_c(loop.ub) == "0 - 1"

    def test_step_forms(self):
        cases = (
            ("i = 0; i < n", "i += 2", 2),
            ("i = 0; i < n", "i = i + 3", 3),
            ("i = n; i > 0", "i -= 1", -1),
        )
        for head, step_src, expected in cases:
            loop = lower(f"for ({head}; {step_src}) {{ x = i; }}")[0]
            assert isinstance(loop, SLoop)
            assert loop.step == expected

    def test_flipped_condition(self):
        loop = lower("for (i = 0; n > i; i++) { x = i; }")[0]
        assert isinstance(loop, SLoop)
        assert expr_to_c(loop.ub) == "n"

    def test_decl_init(self):
        stmts = lower("for (int q = 0; q < n; q++) { x = q; }", decls="int x, n;")
        loop = stmts[0]
        assert isinstance(loop, SLoop) and loop.var == "q"

    def test_non_inductive_falls_back_to_while(self):
        stmts = lower("for (i = 0; a[i] < n; i++) { x = i; }")
        assert any(isinstance(s, SWhile) for s in stmts)

    def test_bound_referencing_var_falls_back(self):
        stmts = lower("for (i = 0; i < i + n; i++) { x = i; }")
        assert any(isinstance(s, SWhile) for s in stmts)

    def test_labels_nested(self):
        stmts = lower(
            "for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { x = j; } }"
            "for (k = 0; k < n; k++) { x = k; }"
        )
        f = build_function(
            "void g(int n) { int i, j, k, x;"
            " for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { x = j; } }"
            " for (k = 0; k < n; k++) { x = k; } }"
        )
        labels = [l.label for l in f.loops()]
        assert labels == ["L1", "L1.1", "L2"]
        assert [l.label for l in f.outer_loops()] == ["L1", "L2"]


class TestSymtab:
    def test_params_and_locals(self):
        f = build_function("void f(double v[], int n) { int i; double s; s = 0.0; }")
        assert f.symtab.is_array("v")
        assert f.symtab.lookup("v").elem_type is ElemType.FLOAT
        assert f.symtab.is_int_scalar("i")
        assert not f.symtab.is_int_scalar("s")
        assert f.symtab.lookup("n").is_param

    def test_globals_visible(self):
        from repro.ir import build_program

        prog = build_program("int g[5];\nvoid f() { g[0] = 1; }")
        func = prog.function("f")
        assert func.symtab.is_array("g")


class TestIrToSym:
    def test_arith(self):
        e = IBin("+", IBin("*", IConst(2), IVar("x")), IConst(1))
        assert ir_to_sym(e) == add(mul(2, var("x")), 1)

    def test_array_ref(self):
        e = IArrayRef("a", (IBin("-", IVar("i"), IConst(1)),))
        assert ir_to_sym(e) == array_term("a", sub(var("i"), 1))

    def test_div_mod(self):
        assert ir_to_sym(IBin("/", IVar("x"), IConst(2))) == intdiv(var("x"), 2)
        assert ir_to_sym(IBin("%", IVar("x"), IConst(8))) == mod(var("x"), 8)

    def test_unsupported_is_bottom(self):
        from repro.ir import ICall, IFloat

        assert ir_to_sym(ICall("f", ())).is_bottom
        assert ir_to_sym(IFloat(1.5)).is_bottom
        assert ir_to_sym(IArrayRef("c", (IConst(0), IConst(1)))).is_bottom

    def test_cond_atoms_conjunction(self):
        e = IBin("&&", IBin("<", IVar("i"), IVar("n")), IBin(">=", IVar("j"), IConst(0)))
        atoms, exact = cond_to_atoms(e)
        assert exact and len(atoms) == 2

    def test_cond_atoms_negation(self):
        from repro.ir import IUn

        e = IUn("!", IBin("<", IVar("i"), IVar("n")))
        atoms, exact = cond_to_atoms(e)
        assert exact and atoms[0].op == ">="

    def test_cond_atoms_disjunction_inexact(self):
        e = IBin("||", IBin("<", IVar("i"), IVar("n")), IBin(">", IVar("i"), IConst(0)))
        atoms, exact = cond_to_atoms(e)
        assert not exact


class TestEmbeddedIncrements:
    """An increment inside an expression keeps C's semantics: a
    post-increment's update runs after the containing statement (or the
    branch of a ternary), a pre-increment's before the value is read.
    The expected values are C's, worked out by hand: the interpreter
    runs the same IR, so it cannot be the oracle."""

    SRC = "void f(int x[], int y[], int k) {{ int i; for (i = 0; i < 3; i++) {{ {body} }} }}"
    Y = [100, 101, 102, 103, 104]

    @pytest.mark.parametrize("engine", ["interp", "compiled", "parallel"])
    @pytest.mark.parametrize(
        "body, x, y, k",
        [
            ("x[i] = y[k++];", [100, 101, 102], Y, 3),
            ("x[i] = k++;", [0, 1, 2], Y, 3),
            ("x[i] = (k++) * 2;", [0, 2, 4], Y, 3),
            ("x[i] = y[++k];", [101, 102, 103], Y, 3),
            ("x[i] = --k;", [-1, -2, -3], Y, -3),
            ("x[i] = y[i]++;", [100, 101, 102], [101, 102, 103, 103, 104], 0),
            ("x[i] = --y[i];", [99, 100, 101], [99, 100, 101, 103, 104], 0),
            ("x[i] = y[k++]--;", [100, 101, 102], [99, 100, 101, 103, 104], 3),
            # only the branch that runs increments; the condition's own
            # update lands before the branch reads k
            ("x[i] = i > 0 ? y[k++] : -1;", [-1, 100, 101], Y, 2),
            ("x[i] = k++ > 0 ? k : 0;", [0, 2, 3], Y, 3),
            # an assignment's value is its target, read before the post effects
            ("x[i] = (y[k++] = 7);", [7, 7, 7], [7, 7, 7, 103, 104], 3),
            ("x[i] = (y[i > 0 ? 1 : 2] = 5);", [5, 5, 5], [100, 5, 5, 103, 104], 0),
        ],
    )
    def test_matches_c(self, engine, body, x, y, k):
        import numpy as np

        from repro.runtime import execute

        env = {"x": np.zeros(3, np.int64), "y": np.array(self.Y, np.int64), "k": 0}
        execute(build_function(self.SRC.format(body=body)), env, engine=engine)
        assert env["x"].tolist() == x
        assert env["y"].tolist() == y
        assert env["k"] == k

    def test_post_increment_runs_after_the_statement(self):
        write, update = lower("x = a[k++];")
        assert stmt_to_c(write) == "x = a[k];" and stmt_to_c(update) == "k = k + 1;"

    def test_return_keeps_the_value_in_a_temp(self):
        func = build_function("int f(int k) { return k++; }")
        assert [stmt_to_c(s) for s in func.body[:2]] == ["__t1 = k;", "k = k + 1;"]
        assert func.body[2].value == IVar("__t1")

    def test_side_effect_in_a_short_circuit_operand_is_refused(self):
        with pytest.raises(IRError, match="right operand of &&"):
            lower("x = y > 0 && k++;")

    def test_element_increment_in_an_expression_parallelizes(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "k.c"
        path.write_text(self.SRC.format(body="x[i] = y[i]++;"))
        assert main(["parallelize", str(path)]) == 0
        assert "y[i] = y[i] + 1;" in capsys.readouterr().out


class TestTernaryTemps:
    SRC = "void f(double x[], double y[], int n) { int i; for (i = 0; i < n; i++) { x[i] = y[i] > 0 ? y[i] : 0.5; } }"

    def test_same_source_lowers_to_the_same_function(self):
        from repro.analysis.framework import function_key
        from repro.service import AnalysisRequest
        from repro.service.engine import _request_key

        def keys():
            func = build_function(self.SRC)
            fkey = function_key(func, "")
            return function_to_c(func), fkey, _request_key(AnalysisRequest("f", self.SRC))

        first, second = keys(), keys()
        assert first == second
        assert "__t1" in first[0] and "__t2" not in first[0]

    @pytest.mark.parametrize(
        "value, c_type",
        [
            ("y[i] > 0 ? y[i] : 0.5", "double"),
            ("n > 0 ? 1 : 0.5", "double"),
            ("n > 0 ? y[i] : 0", "double"),
            ("y[i] > 0 ? n : 2", "int"),
        ],
    )
    def test_temp_takes_the_branches_type(self, value, c_type):
        func = build_function(self.SRC.replace("y[i] > 0 ? y[i] : 0.5", value))
        assert f"    {c_type} __t1;" in function_to_c(func)
        info = func.symtab.lookup("__t1")
        assert func.symtab.is_int_scalar("__t1") == (c_type == "int"), info


def _reprinted(source: str) -> tuple[str, str]:
    once = function_to_c(build_function(source))
    return once, function_to_c(build_function(once))


class TestPrinterRoundTrip:
    """Printing, parsing, building and printing again is a fixed point:
    the annotated C means what the IR means."""

    @pytest.mark.parametrize(
        "body, printed",
        [
            ("x[i] = *p + i;", "x[i] = *p + i;"),
            ("x[i] = -*p;", "x[i] = -*p;"),
            ("q = &p;", "q = &p;"),
            ('printf("%d\\n", i);', 'printf("%d\\n", i);'),
            ("c = 'x';", "c = 'x';"),
            ("x[i] = -(-y[i]);", "x[i] = -(-y[i]);"),
            ("x[i] = - -3;", "x[i] = -(-3);"),
            ("x[i] = !-y[i];", "x[i] = !-y[i];"),
        ],
    )
    def test_operator_forms(self, body, printed):
        src = f"void f(int x[], int y[], int p, int q, int c) {{ int i; for (i = 0; i < 3; i++) {{ {body} }} }}"
        once, twice = _reprinted(src)
        assert f"        {printed}" in once.splitlines()
        assert once == twice

    def test_every_corpus_kernel_and_fuzz_seed(self):
        for name, source in _corpus_and_fuzz_sources():
            once, twice = _reprinted(source)
            assert once == twice, name


class TestIrPrinter:
    def test_emits_valid_reparseable_c(self, fig9_func):
        out = function_to_c(fig9_func)
        rebuilt = build_function(out)
        assert [l.label for l in rebuilt.loops()] == [l.label for l in fig9_func.loops()]

    def test_decreasing_loop_printed(self):
        f = build_function("void f(int n, int a[]) { int i; for (i = n - 1; i >= 0; i--) a[i] = i; }")
        out = function_to_c(f)
        assert "i--" in out and "i > 0 - 1" in out

    def test_the_printer_is_the_only_one(self):
        # no node prints itself: str() of a node is its dataclass repr
        import inspect

        from repro.ir import nodes

        classes = [
            c
            for c in vars(nodes).values()
            if inspect.isclass(c) and c.__module__ == nodes.__name__
        ]
        assert len(classes) > 10
        assert [c.__name__ for c in classes if "__str__" in vars(c)] == []


def _declared(func):
    """Every declaration in scope: params, locals, then globals."""
    tab = func.symtab
    while tab is not None:
        yield from tab.vars.values()
        tab = tab.parent


def _corpus_and_fuzz_sources():
    from repro.corpus import all_kernels
    from repro.workloads.generators import random_kernel

    for name, k in sorted(all_kernels().items()):
        yield name, k.source
    for seed in range(200):
        yield f"fuzz{seed}", random_kernel(seed).source


class TestLoweredDimensions:
    """Declared dimensions lower to IR expressions: ``VarInfo.dims``
    holds an ``IExpr`` or ``None`` (unsized), ``function_to_c`` prints
    each with the IR printer as the source wrote it, and building the
    print gives the same declarations back."""

    @staticmethod
    def _check(func, source: str) -> None:
        squeezed = "".join(source.split())
        for info in _declared(func):
            for d in info.dims:
                assert d is None or isinstance(d, IExpr), (info.name, d)
                if d is not None:
                    assert f"[{''.join(expr_to_c(d).split())}]" in squeezed, (info.name, d)
        again = build_function(function_to_c(func)).symtab.vars
        for name, info in func.symtab.vars.items():
            assert again[name].dims == info.dims, name

    def test_every_corpus_kernel_and_fuzz_seed(self):
        checked = 0
        for _, source in _corpus_and_fuzz_sources():
            func = build_function(source)
            self._check(func, source)
            checked += sum(1 for info in _declared(func) if info.is_array)
        assert checked > 0

    @pytest.mark.parametrize(
        "source, name, dims, printed",
        [
            (
                "void f(int n, int a[][4]) { int i; for (i = 0; i < n; i++) a[i][0] = i; }",
                "a",
                (None, IConst(4)),
                "int a[][4]",
            ),
            (
                "void f(int n, double m[N + 1][8]) { int i; for (i = 0; i < n; i++) m[i][0] = 1.0; }",
                "m",
                (IBin("+", IVar("N"), IConst(1)), IConst(8)),
                "double m[N + 1][8]",
            ),
            (
                "void f(int n) { int i; int t[n * (n - 1)]; for (i = 0; i < n; i++) t[i] = i; }",
                "t",
                (IBin("*", IVar("n"), IBin("-", IVar("n"), IConst(1))),),
                "    int t[n * (n - 1)];",
            ),
        ],
    )
    def test_sized_declaration(self, source, name, dims, printed):
        func = build_function(source)
        assert func.symtab.lookup(name).dims == dims
        assert printed in function_to_c(func)
        self._check(func, source)

    def test_global_dimension(self):
        source = "int g[32];\ndouble h[2 * 8][4];\nvoid f(int n, int x[]) { int i; for (i = 0; i < n; i++) x[i] = g[i]; }"
        func = build_program(source).function("f")
        g, h = func.symtab.lookup("g"), func.symtab.lookup("h")
        assert g.is_global and g.dims == (IConst(32),)
        assert h.dims == (IBin("*", IConst(2), IConst(8)), IConst(4))
        self._check(func, source)

    @pytest.mark.parametrize("dim", ["n++", "n = 4", "n > 0 ? n : 1"])
    def test_dimension_that_does_not_lower_to_a_pure_expression(self, dim):
        with pytest.raises(IRError, match="array dimension"):
            build_function(f"void f(int n) {{ int t[{dim}]; t[0] = n; }}")
