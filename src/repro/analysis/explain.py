"""``repro explain``: render the chain of evidence behind a verdict.

For one loop of one function, print the parallelization verdict, the
per-pair dependence reasoning, the property facts available at the
loop's entry, and — fact by fact — the provenance chain recorded by the
pass framework (which statements established each fact, which merge
points weakened it, which rule derived it).
"""

from __future__ import annotations


def explain_loop(out, label: str) -> str:  # noqa: ANN001 — ParallelizeOutput
    """Explain loop ``label`` of an analyzed function (``out`` is a
    :class:`~repro.parallelizer.pipeline.ParallelizeOutput`)."""
    plan = out.plan.loops.get(label)
    if plan is None:
        return _explain_covered(out, label)
    lines = [
        f"{out.func.name} / {label}: "
        + ("PARALLEL" if plan.parallel else "serial")
        + f" — {plan.reason}"
    ]
    if plan.pragma:
        lines.append(f"  #pragma {plan.pragma}")
    if plan.dependence is not None and plan.dependence.pairs:
        lines.append("")
        lines.append(f"dependence test ({plan.dependence.method}):")
        for p in plan.dependence.pairs:
            lines.append("  " + p.describe())
    lines += _entry_facts(out, label)
    lines.append("")
    lines.append("provenance chain:")
    for step in plan.provenance:
        lines.append("  " + step)
    return "\n".join(lines)


def _entry_facts(out, label: str) -> list[str]:  # noqa: ANN001
    env = out.analysis.env_before.get(label, out.analysis.final_env)
    facts = env.describe()
    return ["", f"facts at entry of {label}:", "  " + facts.replace("\n", "\n  ")]


def _explain_covered(out, label: str) -> str:  # noqa: ANN001
    """A loop the plan lacks: the planner does not test a loop nested in
    a PARALLEL loop, so name that loop; a label the function lacks is
    an error that lists the function's loops."""
    labels = [loop.label for loop in out.func.loops()]
    parts = label.split(".")
    ancestors = (".".join(parts[:k]) for k in range(1, len(parts)))
    outer = None
    if label in labels:
        outer = next((a for a in ancestors if a in out.plan.loops and out.plan.loops[a].parallel), None)
    if outer is None:
        known = ", ".join(labels) or "(none)"
        raise KeyError(f"no loop {label!r} in {out.func.name}; loops: {known}")
    head = (
        f"{out.func.name} / {label}: covered by PARALLEL loop {outer} — "
        "the planner tests no loop nested in a parallel loop"
    )
    return "\n".join([head] + _entry_facts(out, label))


def explain_source(
    source: str,
    label: str,
    function: str | None = None,
    method: str = "extended",
    assertions=None,  # noqa: ANN001 — PropertyEnv | None
) -> str:
    """Parse, analyze and explain one loop."""
    from repro.parallelizer import parallelize

    out = parallelize(source, method=method, assertions=assertions, function=function)
    return explain_loop(out, label)
