"""Subscripted-subscript pattern scanner (the Section-2 study, automated).

Finds, per loop, the array writes whose subscript expressions contain the
value of another array (directly, through copied scalars, or through an
inner-loop bound), and classifies the *shape*:

* ``indirect-point``  — ``A[B[i]] = ...``          (P1/P3 candidates)
* ``indirect-span``   — ``A[B[k]]``, k from inner loop (P4a)
* ``span-bound``      — ``A[k]``, bounds contain an array (P2a/P2c/P6)
* ``point-expr``      — point subscript containing an array term (P4b/P5)

The classifier then asks which property would make the loop parallel and
whether the pipeline (with the corpus assertions / derived facts) indeed
parallelizes it — regenerating Figure 1's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dependence.accesses import Access, collect_accesses
from repro.ir.nodes import IRFunction, SLoop
from repro.symbolic.expr import ArrayTerm


@dataclass(frozen=True)
class PatternSite:
    loop_label: str
    array: str
    shape: str  # indirect-point | indirect-span | span-bound | point-expr | unknown
    subscript_arrays: tuple[str, ...]

    def describe(self) -> str:
        via = ", ".join(self.subscript_arrays) or "?"
        return f"{self.loop_label}: {self.array}[...{via}...] ({self.shape})"


@dataclass
class ScanReport:
    function: str
    sites: list[PatternSite] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"subscripted-subscript sites in {self.function}:"]
        lines += ["  " + s.describe() for s in self.sites]
        return "\n".join(lines)


def _arrays_in(e) -> tuple[str, ...]:  # noqa: ANN001
    if e is None:
        return ()
    return tuple(sorted({at.array for at in e.atoms() if isinstance(at, ArrayTerm)}))


def _classify_access(a: Access) -> tuple[str, tuple[str, ...]] | None:
    """Classify the first subscripted-subscript dimension of an access
    (any dimension indexing through another array qualifies the site)."""
    if a.index is None:
        return None
    for d in a.index.dims:
        if d.indirect is not None:
            via = (d.indirect.via,)
            if d.indirect.arg_span is not None:
                return "indirect-span", via
            return "indirect-point", via
        if d.point is not None:
            arrays = _arrays_in(d.point)
            if arrays:
                shape = "indirect-point" if isinstance(d.point, ArrayTerm) else "point-expr"
                return shape, arrays
            continue
        if d.span is not None:
            arrays = tuple(
                sorted(set(_arrays_in(d.span.lo)) | set(_arrays_in(d.span.hi)))
            )
            if arrays:
                return "span-bound", arrays
    return None


def scan_function(func: IRFunction) -> ScanReport:
    """Scan every loop of ``func`` for subscripted-subscript writes."""
    report = ScanReport(function=func.name)
    seen: set[tuple[str, str, str]] = set()
    for loop in func.loops():
        accs = collect_accesses(func, loop)
        for a in accs.accesses:
            if not a.is_write:
                continue
            cls = _classify_access(a)
            if cls is None:
                continue
            shape, arrays = cls
            key = (loop.label, a.array, shape)
            if key in seen:
                continue
            seen.add(key)
            report.sites.append(PatternSite(loop.label, a.array, shape, arrays))
    return report
