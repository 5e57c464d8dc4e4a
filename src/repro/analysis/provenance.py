"""Provenance records for derived analysis facts.

Every fact the pass framework establishes, weakens, or kills is logged as
a :class:`ProvenanceStep`: *what* happened to *which* subject, *where*
(the statement or loop that caused it), and under *which rule*.  The log
is append-only and ordered, so a fact's history reads top-to-bottom as
the chain of evidence behind a verdict — surfaced by ``repro explain``,
the planner's :class:`~repro.parallelizer.planner.LoopPlan`, and the
batch service's JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def array_subject(array: str) -> str:
    return f"array:{array}"


def scalar_subject(name: str) -> str:
    return f"scalar:{name}"


@dataclass(frozen=True)
class ProvenanceStep:
    """One event in the history of a derived fact."""

    seq: int  # position in the analysis walk (deterministic)
    subject: str  # "array:rowptr" / "scalar:count"
    action: str  # seeded | established | derived | updated | weakened | killed
    site: str  # loop label or rendered statement that caused the event
    rule: str = ""  # assertion | phase2 | permutation-scatter | guarded-counter | ...
    detail: str = ""  # human-readable fact description

    def describe(self) -> str:
        rule = f" [{self.rule}]" if self.rule else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"#{self.seq} {self.subject} {self.action} at {self.site}{rule}{detail}"

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "subject": self.subject,
            "action": self.action,
            "site": self.site,
            "rule": self.rule,
            "detail": self.detail,
        }


@dataclass
class ProvenanceLog:
    """Ordered, append-only event log for one analysis run."""

    steps: list[ProvenanceStep] = field(default_factory=list)

    def record(
        self, subject: str, action: str, site: str, rule: str = "", detail: str = ""
    ) -> ProvenanceStep:
        step = ProvenanceStep(len(self.steps), subject, action, site, rule, detail)
        self.steps.append(step)
        return step

    # -- queries -------------------------------------------------------------
    def for_arrays(self, arrays: Iterable[str]) -> list[ProvenanceStep]:
        wanted = {array_subject(a) for a in arrays}
        return [s for s in self.steps if s.subject in wanted]

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.steps)
