"""Laws of the hash-consed symbolic core and its memo tables.

Three invariant families pin the PR that made structural equality
pointer equality:

1. **Interning laws** — equal constructions return the *identical*
   object, for every node class and through every construction path
   (factories, canonicalizers, pickling, copying), including under a
   seeded random construction sweep; expression objects are immutable.
2. **Memo hygiene** — every memo table in the process routes through
   the central registry (a cold run reports zero entries everywhere),
   and wholesale memo clears can never produce two live non-identical
   equal nodes, because intern tables are not memo tables.
3. **Warm equivalence** — memo tables kept from earlier runs (the
   expression and prover memos, the plan memo) are invisible in the
   output: byte-identical batch reports and analysis traces cold vs
   warm.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.symbolic import expr as E
from repro.symbolic.expr import (
    BOTTOM,
    NEG_INF,
    POS_INF,
    ArrayTerm,
    Const,
    OpaqueTerm,
    Sum,
    Sym,
    add,
    array_term,
    clear_memo_tables,
    const,
    intern_stats,
    loopvar,
    memo_stats,
    mul,
    neg,
    param,
    smax,
    smin,
    sub,
    var,
)


def random_expr(rng: random.Random, depth: int = 3):
    """Deterministic random canonical expression over a tiny vocabulary."""
    if depth == 0:
        return rng.choice(
            [var("x"), var("y"), param("n"), loopvar("i"), const(rng.randint(-9, 9))]
        )
    op = rng.choice(["add", "sub", "mul", "neg", "min", "max", "arr"])
    a = random_expr(rng, depth - 1)
    if op == "neg":
        return neg(a)
    if op == "arr":
        return array_term(rng.choice("pq"), a)
    b = random_expr(rng, depth - 1)
    if op == "add":
        return add(a, b)
    if op == "sub":
        return sub(a, b)
    if op == "mul":
        return mul(a, rng.randint(-3, 3))
    if op == "min":
        return smin(a, b)
    return smax(a, b)


class TestInterningLaws:
    def test_equal_constructions_are_identical(self):
        assert Const(7) is Const(7)
        assert const(7) is Const(7)
        # integer-valued Fractions normalize into the int fast path
        from fractions import Fraction

        assert Const(Fraction(14, 2)) is Const(7)
        assert Const(Fraction(1, 2)) is Const(Fraction(2, 4))
        assert var("x") is var("x")
        assert Sym("x", E.SymKind.VAR) is var("x")
        assert param("x") is not var("x")  # kind is part of the identity
        assert array_term("p", var("i")) is array_term("p", var("i"))
        assert smin(var("x"), var("y")) is smin(var("x"), var("y"))
        assert add(var("x"), 1) is add(1, var("x"))
        assert mul(2, var("x")) is mul(var("x"), 2)

    def test_singletons(self):
        assert type(BOTTOM)() is BOTTOM
        assert POS_INF is not NEG_INF
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
        assert pickle.loads(pickle.dumps(POS_INF)) is POS_INF

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_sweep_identity_and_hash(self, seed):
        e1 = random_expr(random.Random(seed))
        e2 = random_expr(random.Random(seed))
        assert e1 is e2
        assert hash(e1) == hash(e2)
        assert e1 == e2
        # equality/hash stay usable as dict keys across construction paths
        table = {e1: "v"}
        assert table[e2] == "v"

    @pytest.mark.parametrize("seed", range(8))
    def test_pickle_reinterns(self, seed):
        e = random_expr(random.Random(seed))
        assert pickle.loads(pickle.dumps(e)) is e

    @pytest.mark.parametrize("seed", range(4))
    def test_copy_returns_self(self, seed):
        e = random_expr(random.Random(seed))
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e

    def test_nodes_are_immutable(self):
        for e in (const(3), var("x"), array_term("p", var("i")), add(var("x"), 1)):
            with pytest.raises(AttributeError):
                e.value = 9  # type: ignore[attr-defined]

    def test_distinct_constructions_differ(self):
        assert const(3) is not const(4)
        assert add(var("x"), 1) != add(var("x"), 2)
        assert array_term("p", var("i")) != array_term("q", var("i"))


class TestMemoHygiene:
    #: Every memo table in the process must be registered — a new table
    #: that bypasses the registry breaks cold-run accounting and cannot
    #: be cleared by benchmarks.
    EXPECTED_TABLES = {
        "expr.add",
        "expr.mul",
        "expr.minmax",
        "ranges.subst",
        "compare.prover",
        "planner.plans",
        "parallel.functions",
        "runtime.inspections",
    }

    def test_cold_run_reports_zero_entries_everywhere(self):
        # populate every table: expr memos, range subst, prover, plan memo
        from repro.service.engine import BatchEngine, corpus_requests
        from repro.service.cache import ResultCache

        BatchEngine(cache=ResultCache()).run(corpus_requests()[:2])
        stats = memo_stats()
        assert set(stats["tables"]) == self.EXPECTED_TABLES
        assert stats["entries"] > 0
        clear_memo_tables()
        stats = memo_stats()
        assert set(stats["tables"]) == self.EXPECTED_TABLES
        assert stats["entries"] == 0
        assert all(n == 0 for n in stats["tables"].values())
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_intern_tables_survive_memo_clears(self):
        e = add(var("x"), mul(2, var("y")))
        before = intern_stats()
        clear_memo_tables()
        assert intern_stats() == before  # interns are NOT memo tables
        assert add(var("x"), mul(2, var("y"))) is e

    @pytest.mark.parametrize("seed", range(4))
    def test_wholesale_clear_cannot_split_identity(self, seed, monkeypatch):
        # Force the constructor memos to wholesale-clear constantly: if
        # clearing could violate the interning invariant, structurally
        # equal rebuilds would come back as distinct live objects.
        monkeypatch.setattr(E, "_MEMO_LIMIT", 4)
        rng1, rng2 = random.Random(seed), random.Random(seed)
        built = [random_expr(rng1) for _ in range(40)]
        for i in range(40):
            if i % 7 == 0:
                clear_memo_tables()
            assert random_expr(rng2) is built[i]


class TestIncrementalEquivalence:
    """A warm re-run reuses the memo tables of the cold one and must
    produce the same bytes."""

    def _report_json(self):
        from repro.service.engine import BatchEngine, corpus_requests
        from repro.service.cache import ResultCache

        return BatchEngine(cache=ResultCache()).run(corpus_requests()).canonical_json()

    def test_batch_report_byte_identical_cold_vs_warm(self):
        clear_memo_tables()
        cold = self._report_json()
        assert memo_stats()["tables"]["planner.plans"] > 0
        warm = self._report_json()
        assert memo_stats()["hits"] > 0
        assert warm == cold

    def test_trace_and_provenance_identical(self, fig9_func):
        from repro.analysis.domains import default_domains
        from repro.analysis.driver import render_trace
        from repro.analysis.framework import PassManager

        clear_memo_tables()
        cold = PassManager(default_domains()).run(fig9_func)
        warm = PassManager(default_domains()).run(fig9_func)
        assert render_trace(warm) == render_trace(cold)
        assert warm.provenance.describe() == cold.provenance.describe()
        assert warm.phase_order == cold.phase_order
        assert warm.key == cold.key
