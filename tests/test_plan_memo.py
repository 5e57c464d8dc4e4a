"""The plan memo: lowering reuses the plan the pipeline just derived.

Four contracts, each pinned:

* **key completeness** — perturbing any one input a plan reads (IR
  text, a loop label, a declaration, the assertions' content,
  ``method``) misses the memo, and the plan it then
  returns equals a recomputation from emptied memo tables; a
  pragma-only difference and a re-parsed copy hit.
* **soundness rules** — a stale analysis neither reads nor fills the
  memo, a failing analysis stores nothing, a hit with
  ``annotate=True`` writes exactly the pragmas a miss writes, and the
  table is bounded and registered.
* **the saving** — ``compile_parallel`` after ``plan_function`` on the
  same content runs no dependence test, and its outputs still match the
  interpreter.
* **pragma-free keys** — re-analyzing a function the planner has
  annotated gives an identical trace, provenance, phase order and key,
  so its plan is a memo hit; re-printed declarations hit too.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.analysis import analyze_function, render_trace
from repro.analysis.env import ArrayRecord
from repro.analysis.properties import Prop
from repro.corpus import all_kernels
from repro.ir import build_function, build_program, function_to_c
from repro.ir.nodes import IBin, IConst
from repro.parallelizer import planner
from repro.parallelizer.planner import plan_function
from repro.runtime import compile_parallel, execute, run_function
from repro.service import faults
from repro.symbolic.expr import clear_memo_tables, memo_stats

KERNELS = all_kernels()
#: its plan depends on every input the harness perturbs: assertions and
#: method each change a verdict
KERNEL = KERNELS["perm_row_scatter"]


@pytest.fixture(autouse=True)
def _cold():
    clear_memo_tables()
    yield
    clear_memo_tables()


def _canon(plan) -> tuple:
    """Everything observable about a plan, for equality checks."""
    return (
        plan.function,
        plan.method,
        [
            (l, p.parallel, p.reason, p.pragma, tuple(p.provenance))
            for l, p in plan.loops.items()
        ],
    )


def _plan(func, env, via_analysis: bool, **kw):
    if via_analysis:
        return plan_function(func, analyze_function(func, env), **kw)
    return plan_function(func, initial_env=env, **kw)


# --------------------------------------------------------------------------
# key completeness
# --------------------------------------------------------------------------


def _edit_text():
    src = KERNEL.source.replace("inv[perm[i]] = i;", "inv[i] = perm[i];")
    return build_function(src), KERNEL.assertion_env(), {}


def _edit_label():
    func = build_function(KERNEL.source)
    func.loops()[0].label = "L7"
    return func, KERNEL.assertion_env(), {}


def _edit_declaration():
    # a global declaration: it lives only in the symbol table, never in
    # the printed function, and the source positions stay put
    func = build_program("int lim;" + KERNEL.source).functions[KERNEL.name]
    assert function_to_c(func) == function_to_c(build_function(KERNEL.source))
    return func, KERNEL.assertion_env(), {}


def _edit_assertions():
    env = KERNEL.assertion_env()
    env.set_record(
        ArrayRecord("perm", props=frozenset({Prop.MONO_INC}), source="asserted")
    )
    return build_function(KERNEL.source), env, {}


def _edit_method():
    return build_function(KERNEL.source), KERNEL.assertion_env(), {"method": "range"}


EDITS = {
    "ir_text": _edit_text,
    "loop_label": _edit_label,
    "declaration": _edit_declaration,
    "assertions": _edit_assertions,
    "method": _edit_method,
}


class TestKeyCompleteness:
    def _check_misses(self, perturbed, via_analysis: bool):
        """``perturbed()`` -> (func, env, kwargs) builds the perturbed call;
        it must miss a memo warmed with the base kernel, and its plan must
        equal a recomputation from emptied memo tables."""
        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert len(planner._PLAN_MEMO) == 1
        func, env, kw = perturbed()
        got = _plan(func, env, via_analysis, annotate=False, **kw)
        assert got is not cached
        clear_memo_tables()
        func, env, kw = perturbed()
        fresh = _plan(func, env, via_analysis, annotate=False, **kw)
        assert fresh is not got
        assert _canon(got) == _canon(fresh)
        return cached, got

    @pytest.mark.parametrize("via_analysis", [True, False])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_each_input_misses(self, edit, via_analysis):
        cached, got = self._check_misses(EDITS[edit], via_analysis)
        if edit != "declaration":  # an unused global changes no verdict
            assert _canon(got) != _canon(cached)

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_reparsed_copy_hits(self, via_analysis):
        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        again = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert again is cached

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_pragma_only_difference_hits(self, via_analysis):
        func = build_function(KERNEL.source)
        cached = _plan(func, KERNEL.assertion_env(), via_analysis)  # annotates
        assert "#pragma omp" in function_to_c(func)
        assert _plan(func, KERNEL.assertion_env(), via_analysis) is cached
        # the same source with pragmas of its own: parsed onto the loops,
        # left out of the key
        pragma_src = KERNEL.source.replace(
            "    for (i", "    #pragma omp parallel for\n    for (i"
        )
        tagged = build_function(pragma_src)
        assert all(lp.pragmas for lp in tagged.loops() if lp.label in ("L1", "L2"))
        assert _plan(tagged, KERNEL.assertion_env(), via_analysis) is cached


# --------------------------------------------------------------------------
# soundness rules
# --------------------------------------------------------------------------


class TestSoundnessRules:
    def test_stale_analysis_neither_fills_nor_reads(self):
        env = KERNEL.assertion_env()

        def edited_after_analysis():
            func = build_function(KERNEL.source)
            stale = analyze_function(func, env)
            stmt = func.loops()[0].body[0]  # inv[perm[i]] = i + 1
            stmt.value = IBin("+", stmt.value, IConst(1))
            return func, stale

        plan_function(*edited_after_analysis(), annotate=False)
        assert len(planner._PLAN_MEMO) == 0  # cannot fill
        cached = _plan(build_function(KERNEL.source), env, True)
        # the stale analysis carries the key of the original content,
        # whose plan is now cached: the key check refuses it
        assert plan_function(*edited_after_analysis(), annotate=False) is not cached
        assert len(planner._PLAN_MEMO) == 1

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_failing_analysis_stores_nothing(self, via_analysis):
        func = build_function(KERNEL.source)
        with faults.injected(f"analysis.passes:{KERNEL.name}:*"):
            with pytest.raises(faults.FaultInjected):
                _plan(func, KERNEL.assertion_env(), via_analysis)
        assert len(planner._PLAN_MEMO) == 0

    def test_hit_annotates_like_a_miss(self):
        miss = build_function(KERNEL.source)
        plan_function(miss, analyze_function(miss, KERNEL.assertion_env()), annotate=False)
        assert "#pragma" not in function_to_c(miss)
        hit = build_function(KERNEL.source)
        before = len(planner._PLAN_MEMO)
        plan_function(hit, analyze_function(hit, KERNEL.assertion_env()))
        assert len(planner._PLAN_MEMO) == before  # it was a hit
        cold = build_function(KERNEL.source)
        clear_memo_tables()
        plan_function(cold, analyze_function(cold, KERNEL.assertion_env()))
        assert len(planner._PLAN_MEMO) == 1  # a miss again
        assert function_to_c(hit) == function_to_c(cold)
        assert "#pragma omp parallel for private(j)" in function_to_c(hit)

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(planner, "_PLAN_MEMO_LIMIT", 4)
        for n in range(10):
            src = KERNEL.source.replace("j < 8", f"j < {n + 1}")
            plan_function(build_function(src), annotate=False)
            assert len(planner._PLAN_MEMO) <= 4

    def test_registered_memo_table(self):
        plan_function(build_function(KERNEL.source), annotate=False)
        assert memo_stats()["tables"]["planner.plans"] == 1
        clear_memo_tables()
        assert memo_stats()["tables"]["planner.plans"] == 0


# --------------------------------------------------------------------------
# the saving: lowering after planning re-runs no dependence test
# --------------------------------------------------------------------------


def _counting_test_loop(monkeypatch) -> list:
    calls: list = []
    real = planner.test_loop

    def counting(*args, **kwargs):
        calls.append(args[1].label)
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "test_loop", counting)
    return calls


class TestLoweringReusesThePlan:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_compile_parallel_runs_no_dependence_test(self, name, monkeypatch):
        k = KERNELS[name]
        func = build_function(k.source)
        plan_function(func, analyze_function(func, k.assertion_env()))
        calls = _counting_test_loop(monkeypatch)
        pf = compile_parallel(func, k.assertion_env(), tier="hybrid")
        assert calls == []
        if k.make_inputs is None:
            return
        ref = k.make_inputs(0)
        run_function(func, ref)
        env = k.make_inputs(0)
        pf.run(env)
        for key, val in ref.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(env[key], val), key
            else:
                assert env[key] == val, key

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fabric dispatch needs the fork start method",
    )
    def test_fabric_run_of_a_memoized_plan_matches_interp(self, monkeypatch):
        k = KERNELS["fig9_csr_product"]  # derives its properties: no assertions
        func = build_function(k.source)
        plan_function(func, analyze_function(func))
        calls = _counting_test_loop(monkeypatch)
        ref = k.make_inputs(1)
        execute(func, ref, engine="interp")
        env = k.make_inputs(1)
        execute(func, env, engine="parallel", workers=2, mp_min_trips=1)
        assert calls == []
        for key, val in ref.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(env[key], val), key


# --------------------------------------------------------------------------
# re-analysis after annotation
# --------------------------------------------------------------------------


class TestNestKeyIgnoresPragmas:
    @pytest.mark.parametrize(
        "name", ["fig9_csr_product", "perm_row_scatter", "blocked_counter_fill"]
    )
    def test_reanalysis_after_annotation_hits_every_nest(self, name):
        k = KERNELS[name]
        func = build_function(k.source)
        first = analyze_function(func, k.assertion_env())
        plan = plan_function(func, first)
        assert plan.parallel_loops and "#pragma omp" in function_to_c(func)
        again = analyze_function(func, k.assertion_env())
        assert render_trace(again) == render_trace(first)
        assert again.provenance.describe() == first.provenance.describe()
        assert again.phase_order == first.phase_order
        assert again.key == first.key
        assert plan_function(func, again) is plan  # every nest's plan reused


# --------------------------------------------------------------------------
# declarations key by content, not by source position
# --------------------------------------------------------------------------


class TestDeclarationKeys:
    """A declaration enters every key by what analysis reads of it —
    name, element type, the param/global flags and each dimension's
    size — never by where the parser found it.  Re-printing a function
    moves its declarations; it must keep its analysis key and still hit
    the plan memo and the parallel engine's schedule table."""

    SRC = """

void fill(int n,
          int grid[][16], int mp[])
{
    int   i, j;
    int   tmp[4];
    for (i = 0; i < n; i++) {
        for (j = 0; j < 16; j++) {
            grid[i][j] = mp[i] + j;
        }
    }
    tmp[0] = n;
}
"""

    def _lookups(self, func):
        """Analyze, plan and lower ``func``; return its analysis key, its
        plan and its lowered parallel form."""
        analysis = analyze_function(func)
        plan = plan_function(func, analysis, annotate=False)
        lowered = compile_parallel(func)
        return analysis.key, plan, lowered

    def test_reprinted_function_hits_every_table(self):
        func = build_function(self.SRC)
        key, plan, lowered = self._lookups(func)
        printed = function_to_c(func)
        assert printed.strip() != self.SRC.strip()  # the declarations moved
        key2, plan2, lowered2 = self._lookups(build_function(printed))
        assert key2 == key
        assert plan2 is plan
        assert lowered2 is lowered

    @pytest.mark.parametrize(
        "edit", [("[16]", "[17]"), ("tmp[4]", "tmp[5]"), ("int mp", "double mp")]
    )
    def test_changed_declaration_misses_every_table(self, edit):
        key, plan, lowered = self._lookups(build_function(self.SRC))
        key2, plan2, lowered2 = self._lookups(build_function(self.SRC.replace(*edit)))
        assert key2 != key
        assert plan2 is not plan
        assert lowered2 is not lowered
