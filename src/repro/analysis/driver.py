"""Analysis entry point (Section 3.1) and engine dispatch.

Two interchangeable engines produce an :class:`AnalysisResult`:

* ``"passes"`` — the production path: the :class:`~repro.analysis
  .framework.PassManager` running the composable abstract domains of
  :mod:`repro.analysis.domains` in one traversal, with provenance
  tracking and the framework-only derivation rules (permutation scatter,
  guarded counters).
* ``"legacy"`` — the frozen pre-framework two-phase walker
  (:mod:`repro.analysis.legacy`), kept as the equivalence baseline.

Selection: the ``engine`` parameter of :func:`analyze_function`,
defaulting to ``$REPRO_ANALYSIS`` or ``"passes"``.

Both engines walk the function in program order; loops are analyzed
inside-out (Phase 1 then Phase 2 per level, inner summaries substituted
into outer bodies) and *collapsed* — the property environment advances
over them as if they were compound assignments.  The result records an
environment snapshot before every loop (the facts available when
dependence-testing it), the per-loop Phase 1/2 results (rendered as the
paper's Section 3.5 trace by :func:`render_trace`), and — on the passes
engine — the provenance log behind every derived fact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis.env import PropertyEnv
from repro.analysis.framework import pipeline_identity
from repro.analysis.phase1 import IterationEffect
from repro.analysis.phase2 import LoopSummary
from repro.analysis.provenance import ProvenanceLog
from repro.errors import AnalysisError, ReproError
from repro.ir.nodes import IRFunction

#: Known analysis engines; ``passes`` is the production default.
ANALYSIS_ENGINES = ("passes", "legacy")


def default_analysis_engine() -> str:
    """The engine used when callers do not pick one explicitly."""
    engine = os.environ.get("REPRO_ANALYSIS", "passes")
    if engine not in ANALYSIS_ENGINES:
        raise AnalysisError(
            f"REPRO_ANALYSIS={engine!r}: pick from {', '.join(ANALYSIS_ENGINES)}"
        )
    return engine


@dataclass
class AnalysisResult:
    """Everything the rest of the pipeline consumes."""

    func: IRFunction
    summaries: dict[str, LoopSummary] = field(default_factory=dict)
    effects: dict[str, IterationEffect] = field(default_factory=dict)
    env_before: dict[str, PropertyEnv] = field(default_factory=dict)
    final_env: PropertyEnv = field(default_factory=PropertyEnv)
    phase_order: list[tuple[int, str]] = field(default_factory=list)  # (phase, label)
    engine: str = "passes"
    pipeline: str = ""  # pass-pipeline identity (empty on legacy)
    provenance: ProvenanceLog = field(default_factory=ProvenanceLog)
    #: Set when this result came from a degradation-ladder fallback:
    #: ``{"kind": "analysis:legacy", "detail": "..."}``.  Surfaced in
    #: batch payloads (and their health sections) and by ``repro explain``.
    fallback: "dict | None" = None
    #: :func:`~repro.analysis.framework.function_key` of the inputs, taken
    #: before the walk; ``None`` where nothing derived from this result
    #: may be cached (the legacy engine, fallbacks, ``REPRO_INCREMENTAL=0``)
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


def analyze_function(
    func: IRFunction,
    initial_env: PropertyEnv | None = None,
    engine: str | None = None,
) -> AnalysisResult:
    """Run the full Section-3 analysis over ``func``.

    ``initial_env`` seeds asserted facts (e.g. properties of index arrays
    filled outside this function — the paper's study kernels rely on
    these, as does the assertion mechanism of Mohammadi et al. discussed
    in Related Work).  Writes inside ``func`` kill seeded facts as usual.

    ``engine`` selects the analysis engine (``"passes"`` | ``"legacy"``;
    ``None`` honours ``$REPRO_ANALYSIS`` and defaults to ``"passes"``).

    Degradation ladder: an *internal* failure of the passes engine (any
    exception that is not a :class:`~repro.errors.ReproError`) falls back
    to the frozen legacy walker — the equivalence baseline — instead of
    taking the caller down.  The returned result carries a ``fallback``
    record so the degradation is provenance-visible everywhere (batch
    health sections, ``repro explain``).  Set ``REPRO_FALLBACKS=0`` to
    turn the ladder off and let the original exception propagate.
    """
    chosen = engine if engine is not None else default_analysis_engine()
    if chosen == "legacy":
        from repro.analysis.legacy import analyze_legacy

        return analyze_legacy(func, initial_env)
    if chosen == "passes":
        from repro.analysis.domains import default_domains
        from repro.analysis.framework import PassManager
        from repro.analysis.legacy import analyze_legacy
        from repro.service import faults

        try:
            faults.maybe_fail("analysis.passes", func.name)
            return PassManager(default_domains()).run(func, initial_env)
        except ReproError:
            raise  # a verdict about the kernel, not an engine bug
        except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
            if not faults.fallbacks_enabled():
                raise
            result = analyze_legacy(func, initial_env)
            result.fallback = {
                "kind": "analysis:legacy",
                "detail": f"{func.name}: {type(exc).__name__}: {exc}",
            }
            return result
    raise AnalysisError(
        f"unknown analysis engine {chosen!r}; pick from {', '.join(ANALYSIS_ENGINES)}"
    )


def analysis_pipeline_identity() -> str:
    """Identity string of the default pass pipeline (cache fingerprints).
    Read from the domain classes, which carry each name and version:
    every warm parallel ``execute`` pays this, so it instantiates
    nothing.  (The domains import stays lazy: ``import repro`` does not
    load them.)"""
    from repro.analysis.domains import DEFAULT_DOMAINS

    return pipeline_identity(DEFAULT_DOMAINS)


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
