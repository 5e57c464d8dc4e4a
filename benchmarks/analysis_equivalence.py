"""CI gate: the analysis reproduces its recorded snapshot.

``benchmarks/golden_verdicts.json`` records every planned loop's verdict
for the corpus kernels and fuzz seeds 0-199, and, for each corpus
kernel, the paper's Section 3.5 trace, the final property environment
and the environment at entry of each loop.  The gate recomputes all of
it and fails on any difference, naming each kernel and loop that moved.
The references for *correctness* stay the interpreter and the dynamic
oracle; the snapshot pins what the analysis computes, so a change to
code every derivation shares (Phase 1, Phase 2, the collapse helpers)
cannot move a verdict unnoticed.

A change that means to move verdicts (a new derivation rule, a new
corpus kernel) rewrites the snapshot with ``--update``.  It writes only
when every loop that newly reads PARALLEL, new kernels included, is
independent under the dynamic oracle on input seeds 0 and 1; otherwise
it names the conflicting loops and exits 1.

Usage::

    PYTHONPATH=src python benchmarks/analysis_equivalence.py --json verdict_diff.json
    PYTHONPATH=src python benchmarks/analysis_equivalence.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import render_trace
from repro.corpus import all_kernels
from repro.ir import build_function
from repro.parallelizer import parallelize
from repro.runtime import check_loop_independence
from repro.workloads.generators import random_kernel

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
FUZZ_SEEDS = 200
ORACLE_SEEDS = (0, 1)


def snapshot_kernels() -> list[tuple]:
    """``(name, source, assertions, make_inputs, corpus)`` of every kernel
    the snapshot covers: the corpus, then fuzz seeds 0-199."""
    kernels = [
        (name, k.source, k.assertion_env(), k.make_inputs, True)
        for name, k in sorted(all_kernels().items())
    ]
    for seed in range(FUZZ_SEEDS):
        rk = random_kernel(seed)
        kernels.append((rk.name, rk.source, None, rk.make_inputs, False))
    return kernels


def snapshot() -> dict:
    """What the analysis computes today, in the snapshot's layout:
    ``{kernel: {"verdicts": {loop: parallel}}}``, plus ``trace``,
    ``final_env`` and ``entry_envs`` (``{loop: facts}``) for corpus
    kernels."""
    snap: dict = {}
    for name, source, assertions, _, corpus in snapshot_kernels():
        out = parallelize(source, assertions=assertions)
        entry: dict = {"verdicts": {l: p.parallel for l, p in out.plan.loops.items()}}
        if corpus:
            entry["trace"] = render_trace(out.analysis)
            entry["final_env"] = out.analysis.final_env.describe()
            entry["entry_envs"] = {
                l: env.describe() for l, env in out.analysis.env_before.items()
            }
        snap[name] = entry
    return snap


def render(snap: dict) -> str:
    """The snapshot file's bytes (key order fixed, so they do not depend
    on ``PYTHONHASHSEED``)."""
    return json.dumps(snap, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def diff(golden: dict, now: dict) -> list[dict]:
    """Every verdict and structure that differs, one entry each: a
    verdict is ``True``/``False``, or ``None`` where the loop is not
    planned (nested in a PARALLEL loop, or absent)."""
    moved: list[dict] = []
    for name in sorted(set(golden) | set(now)):
        g, n = golden.get(name, {}), now.get(name, {})
        for part in ("verdicts", "entry_envs"):
            was, is_ = g.get(part, {}), n.get(part, {})
            for label in sorted(set(was) | set(is_)):
                if was.get(label) != is_.get(label):
                    moved.append({"kernel": name, "loop": label, "part": part,
                                  "golden": was.get(label), "now": is_.get(label)})
        for part in ("trace", "final_env"):
            if g.get(part) != n.get(part):
                moved.append({"kernel": name, "loop": None, "part": part,
                              "golden": g.get(part), "now": n.get(part)})
    return moved


def oracle_conflicts(golden: dict, now: dict) -> list[dict]:
    """Loops PARALLEL in ``now`` but not in ``golden`` that conflict
    under the dynamic oracle on :data:`ORACLE_SEEDS` (a kernel without
    inputs cannot be executed and passes)."""
    conflicts: list[dict] = []
    for name, source, _, make_inputs, _ in snapshot_kernels():
        was = golden.get(name, {}).get("verdicts", {})
        gained = [l for l, p in now[name]["verdicts"].items() if p and not was.get(l)]
        if not gained or make_inputs is None:
            continue
        func = build_function(source)
        for label in gained:
            for seed in ORACLE_SEEDS:
                report = check_loop_independence(func, make_inputs(seed), label)
                if not report.independent:
                    conflicts.append({"kernel": name, "loop": label, "seed": seed})
                    break
    return conflicts


def describe(entry: dict) -> str:
    where = f"{entry['kernel']}/{entry['loop']}" if entry["loop"] else entry["kernel"]
    if entry["part"] == "verdicts":
        def word(v: "bool | None") -> str:
            return "unplanned" if v is None else ("PARALLEL" if v else "serial")

        return f"VERDICT MOVED: {where}: {word(entry['golden'])} -> {word(entry['now'])}"
    return f"{entry['part'].upper()} MOVED: {where}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the diff against the snapshot to PATH ('-' for stdout)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the snapshot (only if every new PARALLEL loop is oracle-clean)")
    args = parser.parse_args(argv)

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    now = snapshot()
    moved = diff(golden, now)
    verdicts = [v for e in now.values() for v in e["verdicts"].values()]
    report = {
        "kernels": len(now),
        "loops": len(verdicts),
        "parallel": sum(verdicts),
        "moved": moved,
    }
    if args.json == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"analysis snapshot: {report['kernels']} kernels, {report['loops']} loops "
        f"planned, {report['parallel']} PARALLEL; {len(moved)} difference(s) "
        f"from {GOLDEN.name}"
    )
    for entry in moved:
        print(describe(entry))

    if args.update:
        conflicts = oracle_conflicts(golden, now)
        for c in conflicts:
            print(f"UNSOUND: {c['kernel']}/{c['loop']} reads PARALLEL but conflicts "
                  f"under the dynamic oracle on seed {c['seed']}")
        if conflicts:
            print(f"refusing to write {GOLDEN.name}")
            return 1
        GOLDEN.write_text(render(now))
        print(f"wrote {GOLDEN.name}")
        return 0
    if moved:
        print(f"gate failed: the analysis no longer reproduces {GOLDEN.name}; if the "
              "change is intended, run with --update")
        return 1
    print("gate passed: every verdict and structure matches the snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
