"""Analysis entry point (Section 3.1).

:func:`analyze_function` runs the :class:`~repro.analysis.framework
.PassManager` over the composable abstract domains of
:mod:`repro.analysis.domains` in one traversal, with provenance tracking
and the derivation rules (permutation scatter and compose, guarded
counters).

The walk follows program order; loops are analyzed inside-out (Phase 1
then Phase 2 per level, inner summaries substituted into outer bodies)
and *collapsed* — the property environment advances over them as if
they were compound assignments.  The result records an environment
snapshot before every loop (the facts available when dependence-testing
it), the per-loop Phase 1/2 results (rendered as the paper's Section 3.5
trace by :func:`render_trace`), and the provenance log behind every
derived fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.env import PropertyEnv
from repro.analysis.phase1 import IterationEffect
from repro.analysis.phase2 import LoopSummary
from repro.analysis.provenance import ProvenanceLog
from repro.ir.nodes import IRFunction


@dataclass
class AnalysisResult:
    """Everything the rest of the pipeline consumes."""

    func: IRFunction
    summaries: dict[str, LoopSummary] = field(default_factory=dict)
    effects: dict[str, IterationEffect] = field(default_factory=dict)
    env_before: dict[str, PropertyEnv] = field(default_factory=dict)
    final_env: PropertyEnv = field(default_factory=PropertyEnv)
    phase_order: list[tuple[int, str]] = field(default_factory=list)  # (phase, label)
    provenance: ProvenanceLog = field(default_factory=ProvenanceLog)
    #: :func:`~repro.analysis.framework.function_key` of the inputs, taken
    #: before the walk
    key: "str | None" = None
    #: fingerprint of the initial environment (the ``assumed`` key part)
    assumed: str = ""

    def summary(self, label: str) -> LoopSummary:
        return self.summaries[label]

    def effect(self, label: str) -> IterationEffect:
        return self.effects[label]

    def env_at(self, label: str) -> PropertyEnv:
        """Facts available just before loop ``label`` executes."""
        return self.env_before[label]


def analyze_function(func: IRFunction, initial_env: PropertyEnv | None = None) -> AnalysisResult:
    """Run the full Section-3 analysis over ``func``.

    ``initial_env`` seeds asserted facts (e.g. properties of index arrays
    filled outside this function — the paper's study kernels rely on
    these, as does the assertion mechanism of Mohammadi et al. discussed
    in Related Work).  Writes inside ``func`` kill seeded facts as usual.

    An internal failure (any exception that is not a
    :class:`~repro.errors.ReproError`) propagates like any other bug: a
    batch records it as that request's ``unexpected`` failure, and
    ``execute(engine="parallel")`` degrades to its compiled rung.
    """
    from repro.analysis.domains import default_domains
    from repro.analysis.framework import PassManager
    from repro.service import faults

    faults.maybe_fail("analysis.passes", func.name)
    return PassManager(default_domains()).run(func, initial_env)


# --------------------------------------------------------------------------
# Section 3.5-style trace rendering
# --------------------------------------------------------------------------


def render_trace(result: AnalysisResult, variables: list[str] | None = None) -> str:
    """Render the analysis in the paper's Section 3.5 format::

        Phase 1 (L1.1): count : [λ(count) : λ(count) + 1]; column_number : ⊥
        Phase 2 (L1.1): count : [Λ(count) : Λ(count) + COLUMNLEN]
    """
    lines: list[str] = []
    for phase, label in result.phase_order:
        if phase == 1:
            effect = result.effects[label]
            parts: list[str] = []
            for name in sorted(effect.scalars):
                if variables is not None and name not in variables:
                    continue
                if name in effect.bottom_scalars:
                    parts.append(f"{name} : ⊥")
                else:
                    parts.append(f"{name} : {effect.scalars[name]}")
            for arr in sorted(effect.updates):
                if variables is not None and arr not in variables:
                    continue
                descr = "; ".join(str(u) for u in effect.updates[arr])
                parts.append(f"{arr} : {descr}")
            for arr in sorted(effect.bottom_arrays):
                if variables is not None and arr not in variables:
                    continue
                parts.append(f"{arr} : ⊥")
            lines.append(f"Phase 1 ({label}): " + "; ".join(parts))
        else:
            summary = result.summaries[label]
            parts = []
            for name in sorted(summary.scalar_post):
                if variables is not None and name not in variables:
                    continue
                parts.append(f"{name} : {summary.scalar_post[name]}")
            for name in sorted(summary.bottom_scalars):
                if variables is not None and name not in variables:
                    continue
                parts.append(f"{name} : ⊥")
            for arr in sorted(summary.array_facts):
                if variables is not None and arr not in variables:
                    continue
                fact = summary.array_facts[arr]
                from repro.analysis.properties import describe

                bits = [str(fact.section)]
                if fact.props:
                    bits.append(describe(fact.props))
                elif fact.value_range is not None:
                    bits.append(str(fact.value_range))
                parts.append(f"{arr} : " + ", ".join(bits))
            for arr in sorted(summary.bottom_arrays):
                if variables is not None and arr not in variables:
                    continue
                parts.append(f"{arr} : ⊥")
            lines.append(f"Phase 2 ({label}): " + "; ".join(parts))
    return "\n".join(lines)
