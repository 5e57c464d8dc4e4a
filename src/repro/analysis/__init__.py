"""The paper's core contribution: deriving index-array properties
(monotonicity, injectivity, identity, permutations) from the code that
fills the arrays.

The analysis runs on a lattice-typed dataflow **pass framework**
(:mod:`repro.analysis.framework`): abstract domains with
transfer/join/widen hooks, run by a :class:`PassManager` in one
traversal, every derived fact carrying a provenance record.  The frozen
pre-framework walker survives in :mod:`repro.analysis.legacy` as the
equivalence baseline.
"""

from repro.analysis.driver import (
    ANALYSIS_ENGINES,
    AnalysisResult,
    analyze_function,
    render_trace,
)
from repro.analysis.env import ArrayRecord, PropertyEnv
from repro.analysis.framework import AbstractDomain, PassContext, PassManager
from repro.analysis.phase1 import ArrayUpdate, GuardedGroup, IterationEffect, Phase1Analyzer
from repro.analysis.phase2 import LoopSummary, Phase2Aggregator, SectionFact, aggregate
from repro.analysis.properties import (
    Prop,
    closure,
    describe,
    is_injective,
    is_monotonic,
    join,
    meet,
)
from repro.analysis.provenance import ProvenanceLog, ProvenanceStep

__all__ = [
    "ANALYSIS_ENGINES",
    "AbstractDomain",
    "AnalysisResult",
    "ArrayRecord",
    "ArrayUpdate",
    "GuardedGroup",
    "IterationEffect",
    "LoopSummary",
    "PassContext",
    "PassManager",
    "Phase1Analyzer",
    "Phase2Aggregator",
    "Prop",
    "PropertyEnv",
    "ProvenanceLog",
    "ProvenanceStep",
    "SectionFact",
    "aggregate",
    "analyze_function",
    "closure",
    "describe",
    "is_injective",
    "is_monotonic",
    "join",
    "meet",
    "render_trace",
]
