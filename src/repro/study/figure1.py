"""Figure 1 reproduction: the empirical study table.

For every NPB / SuiteSparse program in the registry, run the scanner and
the full pipeline on its representative kernels and report

* whether the program contains parallelizable subscripted-subscript
  loops (the paper's aggregate: NPB 6/10, SuiteSparse 4/8);
* the property classes involved;
* whether our extended Range Test parallelizes the target loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus import SUITE_PROGRAMS, all_kernels
from repro.ir import build_function
from repro.parallelizer import parallelize
from repro.study.scanner import scan_function
from repro.utils.tables import Table


@dataclass
class ProgramRow:
    suite: str
    program: str
    has_patterns: bool
    patterns: str
    parallelized: str  # "n/m" kernels parallelized
    provenance: str

    def cells(self) -> tuple:
        return (
            self.suite,
            self.program,
            "yes" if self.has_patterns else "no",
            self.patterns or "-",
            self.parallelized or "-",
            self.provenance,
        )


@dataclass
class Figure1Result:
    rows: list[ProgramRow] = field(default_factory=list)

    def counts(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for suite in ("NPB", "SuiteSparse"):
            rows = [r for r in self.rows if r.suite == suite]
            out[suite] = (sum(r.has_patterns for r in rows), len(rows))
        return out

    def render(self) -> str:
        t = Table(
            ["suite", "program", "s-s patterns", "property classes", "parallelized", "provenance"],
            title="Figure 1 — subscripted-subscript patterns in NPB v3.3.1 and SuiteSparse v5.4.0",
        )
        for r in self.rows:
            t.add_row(*r.cells())
        counts = self.counts()
        summary = "; ".join(
            f"{suite}: {have}/{total} programs with patterns"
            for suite, (have, total) in counts.items()
        )
        return t.render() + "\n" + summary


def run_figure1(method: str = "extended") -> Figure1Result:
    """Regenerate Figure 1's table from the corpus."""
    kernels = all_kernels()
    result = Figure1Result()
    for prog in SUITE_PROGRAMS:
        patterns: list[str] = []
        par_ok = 0
        total = 0
        for kname in prog.kernels:
            k = kernels[kname]
            out = parallelize(k.source, method=method, assertions=k.assertion_env())
            total += 1
            if k.target_loop in out.parallel_loops:
                par_ok += 1
            patterns.append(k.pattern)
            # sanity: the scanner must see the pattern the kernel embodies
            func = build_function(k.source)
            scan = scan_function(func)
            if k.expect_parallel and not scan.sites:
                raise AssertionError(f"scanner found no pattern sites in {kname}")
        provenance = (
            "paper text"
            if prog.from_paper_text
            else ("reconstructed" if prog.reconstructed else "none found")
        )
        result.rows.append(
            ProgramRow(
                suite=prog.suite,
                program=prog.program,
                has_patterns=prog.has_patterns,
                patterns=", ".join(sorted(set(patterns))),
                parallelized=f"{par_ok}/{total}" if total else "",
                provenance=provenance if prog.has_patterns else "-",
            )
        )
    return result
