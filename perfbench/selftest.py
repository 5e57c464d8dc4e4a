"""The benchmark's own test.  For each workload it runs one seed twice
with ``--trace 1`` and asserts:

* every per-layer count repeats exactly between the two runs (metrics in
  units ``count``, ``ratio`` and ``MB``: dispatches, chunks, activations,
  inspections, memo hits, hits/passes/refusals, verdicts, arena size), so
  a timing-dependent path choice fails loudly instead of reading as noise;
* no op failed and no fallback was taken;
* the traced run shows the workload doing what it is named for.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "ratio", "MB")


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def named_for(workload: str, m: dict[str, float]) -> list[str]:
    """What the traced run must show for the workload to measure what it
    is named for."""
    if workload == "compile_cold":
        want = {"trace.child_coverage >= 0.95": m["trace.child_coverage"] >= 0.95}
    elif workload == "exec_small":
        want = {
            "no fabric dispatch": m["fabric.dispatches_per_op"] == 0,
            "no inspection": m["inspector.inspections_per_op"] == 0,
        }
    else:
        want = {
            "fabric dispatches": m["fabric.dispatches_per_op"] > 0,
            "inspector memo hits": m["inspector.hit_share"] > 0,
            "inspector passes": m["inspector.pass_share"] > 0,
            "inspector refusals": m["inspector.refusal_share"] > 0,
        }
    want["no fallbacks"] = m["runtime.fallbacks"] == 0
    return [f"{workload}: expected {what}" for what, ok in want.items() if not ok]


def check(workload: str, seed: int, seconds: int) -> list[str]:
    first, second = (traced_run(workload, seed, seconds) for _ in range(2))
    problems = []
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            problems.append(f"{workload}: {run['failed']} of {run['attempted']} ops failed")
    for name, a in first["metrics"].items():
        b = second["metrics"][name]
        if a["unit"] in COUNT_UNITS and a["value"] != b["value"]:
            problems.append(f"{workload}: {name} differs: {a['value']} vs {b['value']}")
    values = {k: v["value"] for k, v in first["metrics"].items()}
    return problems + named_for(workload, values)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    problems = []
    for workload in args.workloads:
        found = check(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
