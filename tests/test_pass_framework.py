"""The pass framework: its recorded snapshot, what its derivation rules
add, and the provenance surface.

* the analysis reproduces ``benchmarks/golden_verdicts.json`` — every
  planned loop's verdict for the corpus and fuzz seeds 0-199, and each
  corpus kernel's Section 3.5 trace, final environment and entry
  environments — through the snapshot function CI's gate runs;
* rules ablation, kernel by kernel: the framework with no derivation
  rules (``PropertyDomain.rules = ()``) has no PARALLEL loop the full
  framework lacks, on the corpus the rules add exactly
  :data:`RULE_DEPENDENT`, and on every other corpus kernel they leave the
  trace and the environments as they are;
* every verdict carries a provenance chain, surfaced through the plan,
  ``repro explain``, and the batch service payloads;
* the batch cache fingerprint digests the analysis sources.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import render_trace
from repro.analysis.domains import PropertyDomain, default_domains
from repro.analysis.explain import explain_loop, explain_source
from repro.analysis.framework import PassManager
from repro.corpus import all_kernels
from repro.ir import build_function
from repro.parallelizer import parallelize
from repro.parallelizer.planner import covered_by_parallel_ancestor, plan_function
from repro.symbolic.expr import clear_memo_tables

KERNELS = all_kernels()


def _load_gate():
    """``benchmarks/analysis_equivalence.py``: the CI gate whose
    snapshot function this module shares."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "analysis_equivalence.py"
    spec = importlib.util.spec_from_file_location("analysis_equivalence", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_gate()

#: corpus loops only the derivation rules make PARALLEL.  A new rule's
#: loops join this set, and ``analysis_equivalence.py --update``
#: records them in the snapshot.
RULE_DEPENDENT = {
    ("inv_perm_scatter", "L2"),
    ("guarded_prefix_fill", "L2"),
    # 2-D kernels: the index-vector algebra separates on the leading
    # dimension through derived properties (permutation-scatter,
    # permutation-compose, guarded-counter)
    ("perm_row_scatter", "L2"),
    ("csr_gather_accum", "L2"),
    ("blocked_counter_fill", "L2"),
}


def verdicts(out) -> dict[str, bool]:
    return {label: p.parallel for label, p in out.plan.loops.items()}


class TestGoldenSnapshot:
    def test_the_analysis_reproduces_its_snapshot(self):
        now = GATE.snapshot()
        moved = GATE.diff(json.loads(GATE.GOLDEN.read_text()), now)
        assert moved == [], "\n".join(GATE.describe(e) for e in moved[:20])
        assert GATE.render(now) == GATE.GOLDEN.read_text()


def _without_rules(kernels) -> dict[str, tuple]:
    """Every kernel's ``(verdicts, analysis)`` from the framework with no
    derivation rules.  The plan memo keys on ``function_key`` alone, so
    the memo tables are cleared on both sides of the run: it must neither
    be served the full framework's plans nor leave its own behind."""
    clear_memo_tables()
    try:
        result = {}
        for name, source, assertions, _, _ in kernels:
            func = build_function(source)
            domains = default_domains()
            for d in domains:
                if isinstance(d, PropertyDomain):
                    d.rules = ()
            analysis = PassManager(domains).run(func, assertions)
            plan = plan_function(func, analysis, annotate=False)
            result[name] = ({label: p.parallel for label, p in plan.loops.items()}, analysis)
        return result
    finally:
        clear_memo_tables()


@pytest.fixture(scope="module")
def ablation():
    """``(full, bare)``: every snapshot kernel's ``(verdicts, analysis)``
    with and without the derivation rules."""
    kernels = GATE.snapshot_kernels()
    bare = _without_rules(kernels)
    full = {}
    for name, source, assertions, _, _ in kernels:
        out = parallelize(source, assertions=assertions)
        full[name] = (verdicts(out), out.analysis)
    return full, bare


def _lost_and_gained(name, ablation) -> tuple[set, set]:
    """Loops of kernel ``name`` PARALLEL without the rules but not with
    them (lost), and the other way round (gained).  A loop planned on one
    side only must sit under a PARALLEL ancestor on the other."""
    full, bare = ablation
    v_full, v_bare = full[name][0], bare[name][0]
    for label in set(v_full) ^ set(v_bare):
        v_without = v_bare if label in v_full else v_full
        assert covered_by_parallel_ancestor(label, v_without), (
            f"{name}/{label}: planned with the rules on or off only"
        )
    lost = {l for l in v_bare if v_bare[l] and l in v_full and not v_full[l]}
    gained = {l for l in v_full if v_full[l] and l in v_bare and not v_bare[l]}
    return lost, gained


#: the snapshot's fuzz kernels, by seed
FUZZ_NAMES = [name for name, *_, corpus in GATE.snapshot_kernels() if not corpus]


class TestCorpusEquivalence:
    """The rules-ablation contract on each corpus kernel: the rules lose
    no loop, and the loops they add are exactly :data:`RULE_DEPENDENT`."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_no_regressions_and_known_improvements(self, name, ablation):
        lost, gained = _lost_and_gained(name, ablation)
        assert lost == set(), f"{name}: PARALLEL without the rules, serial with them"
        unexpected = {(name, l) for l in gained} - RULE_DEPENDENT
        assert unexpected == set(), (
            "unexpected improvement: if intended, add it to RULE_DEPENDENT "
            "and rerun analysis_equivalence.py --update"
        )

    def test_expected_improvements_actually_fire(self, ablation):
        full, bare = ablation
        for name, label in sorted(RULE_DEPENDENT):
            assert full[name][0][label], f"{name}/{label} not parallel with the rules"
            assert not bare[name][0][label], f"{name}/{label} parallel without them too"

    @pytest.mark.parametrize(
        "name", sorted(set(KERNELS) - {n for n, _ in RULE_DEPENDENT})
    )
    def test_structural_equivalence_when_no_rule_fires(self, name, ablation):
        full, bare = ablation
        new, old = full[name][1], bare[name][1]
        assert render_trace(new) == render_trace(old)
        assert new.final_env.describe() == old.final_env.describe()
        assert set(new.env_before) == set(old.env_before)
        for label in old.env_before:
            assert new.env_before[label].describe() == old.env_before[label].describe()


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(GATE.FUZZ_SEEDS))
    def test_framework_never_loses_a_loop(self, seed, ablation):
        name = FUZZ_NAMES[seed]
        lost, _ = _lost_and_gained(name, ablation)
        assert lost == set(), f"{name}: PARALLEL without the rules, serial with them"


class TestProvenance:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_parallel_verdict_has_a_chain(self, name):
        k = KERNELS[name]
        out = parallelize(k.source, assertions=k.assertion_env())
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
        out = parallelize(k.source)
        chain = "\n".join(out.plan.loops["L2"].provenance)
        assert "guarded-counter" in chain
        assert "loop L1" in chain

    def test_seeded_assertions_appear_in_chain(self):
        k = KERNELS["fig2_ua_injective"]
        out = parallelize(k.source, assertions=k.assertion_env())
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
        out = parallelize(src, assertions=self._perm_env())
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
        out = parallelize(src, assertions=self._perm_env())
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
        out = parallelize(self.COMPOSE_SRC, assertions=self._two_perm_env())
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
        out = parallelize(self.COMPOSE_SRC, assertions=env)
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
        out = parallelize(self.COMPOSE_SRC, assertions=env)
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
        out = parallelize(src, assertions=self._perm_env())
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
        out = parallelize(src, assertions=self._perm_env())
        assert out.plan.loops["L1"].parallel, out.plan.describe()


class TestPipelineIdentity:
    def test_identity_in_cache_fingerprint(self):
        from repro.service.cache import analyzer_version

        assert "tree." in analyzer_version()


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
        assert "analysis_engine" not in v.payload and "pipeline" not in v.payload


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
