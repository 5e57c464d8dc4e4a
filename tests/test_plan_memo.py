"""The plan memo: lowering reuses the plan the pipeline just derived.

Four contracts, each pinned:

* **key completeness** — perturbing any one input a plan reads (IR
  text, a loop label, a declaration, the assertions' content, the
  pass-pipeline identity, the analysis engine, ``method``, ``nested``)
  misses the memo, and the plan it then returns equals a recomputation
  with the memo off; a pragma-only difference and a re-parsed copy hit.
* **soundness rules** — a stale analysis neither reads nor fills the
  memo, legacy and fallback-degraded analyses never fill it, a hit with
  ``annotate=True`` writes exactly the pragmas a miss writes, and the
  table is bounded, registered, and off under ``REPRO_INCREMENTAL=0``.
* **the saving** — ``compile_parallel`` after ``plan_function`` on the
  same content runs no dependence test, and its outputs still match the
  interpreter.
* **pragma-free nest keys** — re-analyzing a function the planner has
  annotated hits the nest cache on every lookup, with an identical
  trace, provenance and phase order.
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
#: its plan depends on every input the harness perturbs: assertions,
#: analysis engine, method and nesting each change a verdict
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


def _edit_nested():
    return build_function(KERNEL.source), KERNEL.assertion_env(), {"nested": True}


EDITS = {
    "ir_text": _edit_text,
    "loop_label": _edit_label,
    "declaration": _edit_declaration,
    "assertions": _edit_assertions,
    "method": _edit_method,
    "nested": _edit_nested,
}


class TestKeyCompleteness:
    def _check_misses(self, perturbed, monkeypatch, via_analysis: bool):
        """``perturbed()`` -> (func, env, kwargs) builds the perturbed call;
        it must miss a memo warmed with the base kernel, and its plan must
        equal a recomputation with the memo off."""
        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert len(planner._PLAN_MEMO) == 1
        func, env, kw = perturbed()
        got = _plan(func, env, via_analysis, annotate=False, **kw)
        assert got is not cached
        with monkeypatch.context() as m:
            m.setenv("REPRO_INCREMENTAL", "0")
            func, env, kw = perturbed()
            fresh = _plan(func, env, via_analysis, annotate=False, **kw)
        assert _canon(got) == _canon(fresh)
        return cached, got

    @pytest.mark.parametrize("via_analysis", [True, False])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_each_input_misses(self, edit, via_analysis, monkeypatch):
        cached, got = self._check_misses(EDITS[edit], monkeypatch, via_analysis)
        if edit != "declaration":  # an unused global changes no verdict
            assert _canon(got) != _canon(cached)

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_domain_version_bump_misses(self, via_analysis, monkeypatch):
        from repro.analysis.domains import default_domains

        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        domain_cls = type(default_domains()[0])
        monkeypatch.setattr(domain_cls, "version", domain_cls.version + 1000)
        got = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert got is not cached
        assert _canon(got) == _canon(cached)  # the bump changes no rule
        assert len(planner._PLAN_MEMO) == 2

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_legacy_engine_misses_and_is_never_stored(self, via_analysis):
        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        func = build_function(KERNEL.source)
        got = plan_function(
            func, analyze_function(func, KERNEL.assertion_env(), engine="legacy")
        )
        assert got is not cached
        assert _canon(got) != _canon(cached)  # legacy misses L2's rule
        expected = plan_function(
            build_function(KERNEL.source),
            analyze_function(func, KERNEL.assertion_env(), engine="legacy"),
        )
        assert _canon(got) == _canon(expected)
        assert len(planner._PLAN_MEMO) == 1

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
    def test_fallback_analysis_is_never_stored(self, via_analysis):
        with faults.injected(f"analysis.passes:{KERNEL.name}:*"):
            func = build_function(KERNEL.source)
            if via_analysis:
                analysis = analyze_function(func, KERNEL.assertion_env())
                assert analysis.fallback is not None and analysis.key is None
                plan_function(func, analysis)
            else:
                plan_function(func, initial_env=KERNEL.assertion_env())
        assert len(planner._PLAN_MEMO) == 0

    def test_hit_annotates_like_a_miss(self, monkeypatch):
        miss = build_function(KERNEL.source)
        plan_function(miss, analyze_function(miss, KERNEL.assertion_env()), annotate=False)
        assert "#pragma" not in function_to_c(miss)
        hit = build_function(KERNEL.source)
        before = len(planner._PLAN_MEMO)
        plan_function(hit, analyze_function(hit, KERNEL.assertion_env()))
        assert len(planner._PLAN_MEMO) == before  # it was a hit
        cold = build_function(KERNEL.source)
        with monkeypatch.context() as m:
            m.setenv("REPRO_INCREMENTAL", "0")
            plan_function(cold, analyze_function(cold, KERNEL.assertion_env()))
        assert function_to_c(hit) == function_to_c(cold)
        assert "#pragma omp parallel for private(j)" in function_to_c(hit)

    @pytest.mark.parametrize("via_analysis", [True, False])
    def test_incremental_off_bypasses_the_memo(self, via_analysis, monkeypatch):
        cached = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        # a full recompute: the warm entry is not read ...
        again = _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert again is not cached
        assert _canon(again) == _canon(cached)
        # ... and nothing new is stored
        clear_memo_tables()
        _plan(build_function(KERNEL.source), KERNEL.assertion_env(), via_analysis)
        assert len(planner._PLAN_MEMO) == 0

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
# pragma-free nest-cache keys
# --------------------------------------------------------------------------


class TestNestKeyIgnoresPragmas:
    @pytest.mark.parametrize(
        "name", ["fig9_csr_product", "perm_row_scatter", "blocked_counter_fill"]
    )
    def test_reanalysis_after_annotation_hits_every_nest(self, name):
        from repro.analysis.framework import nest_cache_stats

        k = KERNELS[name]
        func = build_function(k.source)
        first = analyze_function(func, k.assertion_env())
        plan = plan_function(func, first)
        assert plan.parallel_loops and "#pragma omp" in function_to_c(func)
        before = nest_cache_stats()
        again = analyze_function(func, k.assertion_env())
        after = nest_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        assert render_trace(again) == render_trace(first)
        assert again.provenance.describe() == first.provenance.describe()
        assert again.phase_order == first.phase_order
        assert again.key == first.key


# --------------------------------------------------------------------------
# declarations key by content, not by source position
# --------------------------------------------------------------------------


class TestDeclarationKeys:
    """A declaration enters every key by what analysis reads of it —
    name, element type, the param/global flags and each dimension's
    size — never by where the parser found it.  Re-printing a function
    moves its declarations; it must still hit the nest cache, the plan
    memo and the parallel engine's schedule table."""

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
        """Analyze, plan and lower ``func``; return the nest-cache
        ``(hits, misses)`` of its analysis, its plan and its lowered
        parallel form."""
        from repro.analysis.framework import nest_cache_stats

        before = nest_cache_stats()
        analysis = analyze_function(func)
        after = nest_cache_stats()
        plan = plan_function(func, analysis, annotate=False)
        lowered = compile_parallel(func)
        nest = (after["hits"] - before["hits"], after["misses"] - before["misses"])
        return nest, plan, lowered

    def test_reprinted_function_hits_every_table(self):
        func = build_function(self.SRC)
        _, plan, lowered = self._lookups(func)
        printed = function_to_c(func)
        assert printed.strip() != self.SRC.strip()  # the declarations moved
        (hits, misses), plan2, lowered2 = self._lookups(build_function(printed))
        assert misses == 0 and hits > 0
        assert plan2 is plan
        assert lowered2 is lowered

    @pytest.mark.parametrize(
        "edit", [("[16]", "[17]"), ("tmp[4]", "tmp[5]"), ("int mp", "double mp")]
    )
    def test_changed_declaration_misses_every_table(self, edit):
        _, plan, lowered = self._lookups(build_function(self.SRC))
        (hits, misses), plan2, lowered2 = self._lookups(
            build_function(self.SRC.replace(*edit))
        )
        assert misses > 0 and hits == 0
        assert plan2 is not plan
        assert lowered2 is not lowered
