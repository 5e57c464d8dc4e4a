"""The pass framework vs the legacy walker, and the provenance surface.

The tentpole contract of PR 3:

* the ``passes`` engine is **verdict-equivalent** to the frozen legacy
  walker on the whole corpus and on fuzz kernels — modulo the two
  framework-only derivation rules, which may only *add* parallel loops
  (improvements), never lose one (regressions);
* the structural results (trace, environments) are identical where no
  derivation rule fires;
* every verdict carries a provenance chain, surfaced through the plan,
  ``repro explain``, and the batch service payloads;
* the batch cache fingerprint digests the analysis sources.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_function, render_trace
from repro.analysis.explain import explain_loop, explain_source
from repro.corpus import all_kernels
from repro.ir import build_function
from repro.parallelizer import parallelize
from repro.parallelizer.planner import covered_by_parallel_ancestor
from repro.workloads.generators import random_kernel

KERNELS = all_kernels()

#: corpus loops the framework parallelizes and legacy cannot (expected
#: improvements; everything else must be verdict-identical)
EXPECTED_IMPROVEMENTS = {
    ("inv_perm_scatter", "L2"),
    ("guarded_prefix_fill", "L2"),
    # 2-D kernels: the index-vector algebra separates on the leading
    # dimension through pass-only derived properties
    ("perm_row_scatter", "L2"),
    ("csr_gather_accum", "L2"),
    ("blocked_counter_fill", "L2"),
}


def verdicts(out) -> dict[str, bool]:
    return {label: p.parallel for label, p in out.plan.loops.items()}


class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_no_regressions_and_known_improvements(self, name):
        k = KERNELS[name]
        new = parallelize(k.source, assertions=k.assertion_env(), engine="passes")
        old = parallelize(k.source, assertions=k.assertion_env(), engine="legacy")
        v_new, v_old = verdicts(new), verdicts(old)
        for label in set(v_new) ^ set(v_old):
            # a label may only be missing because the *other* engine
            # parallelized an enclosing loop and never planned it
            v_without = v_old if label in v_new else v_new
            assert covered_by_parallel_ancestor(label, v_without), (
                f"{name}/{label}: planned under one engine only"
            )
        for label in v_old:
            if label not in v_new:
                continue
            if v_old[label] and not v_new[label]:
                pytest.fail(f"{name}/{label}: PARALLEL under legacy, serial under passes")
            if v_new[label] and not v_old[label]:
                assert (name, label) in EXPECTED_IMPROVEMENTS, (
                    f"{name}/{label}: unexpected improvement — if intended, "
                    "add it to EXPECTED_IMPROVEMENTS and the equivalence gate"
                )

    def test_expected_improvements_actually_fire(self):
        for name, label in sorted(EXPECTED_IMPROVEMENTS):
            k = KERNELS[name]
            new = parallelize(k.source, assertions=k.assertion_env(), engine="passes")
            old = parallelize(k.source, assertions=k.assertion_env(), engine="legacy")
            assert verdicts(new)[label], f"{name}/{label} not parallel under passes"
            assert not verdicts(old)[label], f"{name}/{label} parallel under legacy too"

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_structural_equivalence_when_no_rule_fires(self, name):
        if name in {n for n, _ in EXPECTED_IMPROVEMENTS}:
            pytest.skip("derivation rules fire: summaries legitimately differ")
        k = KERNELS[name]
        func_new = build_function(k.source)
        func_old = build_function(k.source)
        env = k.assertion_env()
        new = analyze_function(func_new, env, engine="passes")
        old = analyze_function(func_old, env, engine="legacy")
        assert render_trace(new) == render_trace(old)
        assert new.final_env.describe() == old.final_env.describe()
        assert set(new.env_before) == set(old.env_before)
        for label in old.env_before:
            assert new.env_before[label].describe() == old.env_before[label].describe()


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_framework_never_loses_a_loop(self, seed):
        rk = random_kernel(seed)
        new = parallelize(rk.source, engine="passes")
        old = parallelize(rk.source, engine="legacy")
        lost = {
            label
            for label in set(old.parallel_loops) - set(new.parallel_loops)
            if not covered_by_parallel_ancestor(label, verdicts(new))
        }
        assert not lost, f"fuzz{seed} {rk.families}: legacy-parallel loops lost: {lost}"


class TestProvenance:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_parallel_verdict_has_a_chain(self, name):
        k = KERNELS[name]
        out = parallelize(k.source, assertions=k.assertion_env(), engine="passes")
        for label, plan in out.plan.loops.items():
            if not plan.parallel:
                continue
            assert plan.provenance, f"{name}/{label}: empty provenance"
            assert plan.provenance[0].startswith("verdict["), plan.provenance[0]
            text = explain_loop(out, label)
            assert "provenance chain:" in text
            assert "PARALLEL" in text

    def test_derived_fact_chain_names_rule_and_site(self):
        k = KERNELS["guarded_prefix_fill"]
        out = parallelize(k.source, engine="passes")
        chain = "\n".join(out.plan.loops["L2"].provenance)
        assert "guarded-counter" in chain
        assert "loop L1" in chain

    def test_seeded_assertions_appear_in_chain(self):
        k = KERNELS["fig2_ua_injective"]
        out = parallelize(k.source, assertions=k.assertion_env(), engine="passes")
        chain = "\n".join(out.plan.loops[k.target_loop].provenance)
        assert "seeded" in chain and "assertion" in chain

    def test_explain_source_end_to_end(self):
        k = KERNELS["inv_perm_scatter"]
        text = explain_source(
            k.source, "L2", assertions=k.assertion_env(), method="extended"
        )
        assert "permutation-scatter" in text
        assert "PARALLEL" in text

    def test_explain_unknown_loop_raises(self):
        k = KERNELS["inv_perm_scatter"]
        with pytest.raises(KeyError):
            explain_source(k.source, "L99", assertions=k.assertion_env())


class TestDerivationSoundness:
    """Counterexamples the derivation rules must refuse."""

    def _perm_env(self, array="perm"):
        from repro.analysis import PropertyEnv
        from repro.analysis.env import ArrayRecord
        from repro.analysis.properties import Prop
        from repro.symbolic.expr import const, sub, var
        from repro.symbolic.ranges import symrange

        from repro.symbolic.expr import POS_INF

        env = PropertyEnv()
        env.param_ranges[var("n")] = symrange(const(0), POS_INF)
        env.set_record(
            ArrayRecord(
                array,
                section=symrange(const(0), sub(var("n"), 1)),
                props=frozenset({Prop.PERMUTATION}),
                source="asserted",
            )
        )
        return env

    def test_permutation_scatter_rejects_written_subscript_array(self):
        # perm is overwritten inside the loop: its entry-env permutation
        # record is stale for iterations reading clobbered elements, so
        # no fact may be derived for a (and the scatter through a must
        # stay serial)
        src = """
        void stale(int perm[], int a[], int b[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                a[perm[i]] = i;
                perm[n - 1 - i] = 0;
            }
            for (i = 0; i < n; i++) {
                b[a[i]] = i;
            }
        }
        """
        out = parallelize(src, assertions=self._perm_env(), engine="passes")
        assert not out.plan.loops["L2"].parallel
        assert out.analysis.final_env.record("a") is None

    def test_permutation_scatter_rejects_unanalyzably_written_target(self):
        # a is cleanly scattered AND clobbered by an opaque while body:
        # the clean update alone must not yield Permutation(a), and the
        # downstream scatter through a must stay serial
        src = """
        void clobbered(int perm[], int a[], int b[], int n, int x)
        {
            int i;
            for (i = 0; i < n; i++) {
                a[perm[i]] = i;
                while (x > 0) {
                    a[0] = 5;
                    x = x - 1;
                }
            }
            for (i = 0; i < n; i++) {
                b[a[i]] = i;
            }
        }
        """
        out = parallelize(src, assertions=self._perm_env(), engine="passes")
        assert out.analysis.final_env.record("a") is None
        assert not out.plan.loops["L2"].parallel

    def _two_perm_env(self, hi_q=None):
        from repro.analysis.env import ArrayRecord
        from repro.analysis.properties import Prop
        from repro.symbolic.expr import const, sub, var
        from repro.symbolic.ranges import symrange

        env = self._perm_env("p")
        hi = hi_q if hi_q is not None else sub(var("n"), 1)
        env.set_record(
            ArrayRecord(
                "q",
                section=symrange(const(0), hi),
                props=frozenset({Prop.PERMUTATION}),
                source="asserted",
            )
        )
        return env

    COMPOSE_SRC = """
    void compose(int p[], int q[], int comp[], int out[], int n)
    {
        int i;
        for (i = 0; i < n; i++) {
            comp[i] = q[p[i]];
        }
        for (i = 0; i < n; i++) {
            out[comp[i]] = i;
        }
    }
    """

    def test_permutation_compose_fires_on_matching_sections(self):
        out = parallelize(self.COMPOSE_SRC, assertions=self._two_perm_env(), engine="passes")
        rec = out.analysis.env_before["L2"].record("comp")
        assert rec is not None
        from repro.analysis.properties import Prop

        assert rec.has(Prop.PERMUTATION)
        assert out.plan.loops["L2"].parallel
        assert "permutation-compose" in "\n".join(out.plan.loops["L2"].provenance)

    def test_permutation_compose_rejects_mismatched_sections(self):
        # q is a permutation of a *different* (larger) section: q ∘ p is
        # injective into that section but not a permutation of the swept
        # one — the rule must refuse, and comp keeps only the plain
        # section fact Phase 2 already produced (no props)
        from repro.symbolic.expr import mul, sub, var

        env = self._two_perm_env(hi_q=sub(mul(2, var("n")), 1))
        out = parallelize(self.COMPOSE_SRC, assertions=env, engine="passes")
        rec = out.analysis.env_before["L2"].record("comp")
        assert rec is None or not rec.props
        assert not out.plan.loops["L2"].parallel

    def test_permutation_compose_rejects_non_permutation_inner(self):
        # p merely injective (not onto): values may leave q's section
        from repro.analysis import PropertyEnv
        from repro.analysis.env import ArrayRecord
        from repro.analysis.properties import Prop
        from repro.symbolic.expr import POS_INF, const, sub, var
        from repro.symbolic.ranges import symrange

        env = PropertyEnv()
        env.param_ranges[var("n")] = symrange(const(0), POS_INF)
        env.set_record(
            ArrayRecord("p", section=symrange(const(0), sub(var("n"), 1)),
                        props=frozenset({Prop.INJECTIVE}), source="asserted")
        )
        env.set_record(
            ArrayRecord("q", section=symrange(const(0), sub(var("n"), 1)),
                        props=frozenset({Prop.PERMUTATION}), source="asserted")
        )
        out = parallelize(self.COMPOSE_SRC, assertions=env, engine="passes")
        rec = out.analysis.env_before["L2"].record("comp")
        assert rec is None or not rec.props
        assert not out.plan.loops["L2"].parallel

    def test_value_bound_requires_args_within_section(self):
        # Permutation(perm) over [0 : n-1], but the loop reads perm at
        # n + i — outside the section, where values are arbitrary — so
        # the value-bound separation from the direct write must not fire
        src = """
        void outside(int perm[], int out[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                out[perm[n + i]] = 1;
                out[5 * n + i] = 2;
            }
        }
        """
        out = parallelize(src, assertions=self._perm_env(), engine="passes")
        assert not out.plan.loops["L1"].parallel

    def test_value_bound_fires_when_args_inside_section(self):
        # same shape, arguments inside the section: perm's values are
        # bounded by [0 : n-1], provably disjoint from the writes at
        # 5n + i — the positive side of the args-within-section check
        src = """
        void inside(int perm[], int out[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                out[perm[i]] = 1;
                out[5 * n + i] = 2;
            }
        }
        """
        out = parallelize(src, assertions=self._perm_env(), engine="passes")
        assert out.plan.loops["L1"].parallel, out.plan.describe()


class TestPipelineIdentity:
    def test_identity_in_cache_fingerprint(self):
        from repro.service.cache import analyzer_version

        assert "tree." in analyzer_version()

    def test_result_carries_engine_and_pipeline(self):
        k = KERNELS["fig9_csr_product"]
        func = build_function(k.source)
        new = analyze_function(func, engine="passes")
        assert new.engine == "passes"
        assert not hasattr(new, "pipeline")
        old = analyze_function(func, engine="legacy")
        assert old.engine == "legacy"
        assert len(old.provenance) == 0


class TestServicePayloadProvenance:
    def test_batch_payload_includes_chains(self):
        from repro.service import BatchEngine, corpus_requests

        engine = BatchEngine()
        reqs = [r for r in corpus_requests() if r.name == "guarded_prefix_fill"]
        assert reqs
        report = engine.run(reqs)
        v = report.verdict("guarded_prefix_fill")
        assert v.ok
        loops = {l["label"]: l for l in v.payload["loops"]}
        assert any("guarded-counter" in step for step in loops["L2"]["provenance"])
        assert v.payload["analysis_engine"] == "passes"
        assert "pipeline" not in v.payload


class TestExplainCLI:
    def test_cli_kernel_mode(self, capsys):
        from repro.cli import main

        rc = main(["explain", "L2", "--kernel", "inv_perm_scatter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "permutation-scatter" in out

    def test_cli_file_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "gf.c"
        path.write_text(KERNELS["guarded_prefix_fill"].source)
        rc = main(["explain", "L2", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "guarded-counter" in out

    def test_cli_bad_kernel(self, capsys):
        from repro.cli import main

        rc = main(["explain", "L1", "--kernel", "nope"])
        assert rc == 2
