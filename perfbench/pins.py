"""Workload pinning.

The benchmark owns its workloads: it executes the mini-C sources copied
under ``kernels/`` and records in ``pins.json``

* ``calib_ref_ms`` — the calibration kernel's median time on the
  reference host; every timing is reported at that speed;
* ``generators`` — a digest of what the program's input generators and
  corpus registry hand the benchmark (inputs, assertions, expected
  verdicts);
* ``op_lists`` — a digest per seed of each generated op list (sources
  plus input bytes) at the run length in ``BENCHMARK.json``.

A run refuses to time when the program's corpus, fuzz generators,
``runtime/bench.py`` or Figure-10 source no longer match the copies, or
the generators' digest changed; and refuses to report when a pinned
seed's op list digest differs.  Re-pin only in a change that redefines
the benchmark::

    python3 perfbench/pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import (
    LARGE_SIZES,
    RANDOM_SEEDS,
    SHARING_SEEDS,
    WORKLOADS,
    ExecSmall,
    digest_env,
    read_kernel,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_FILE = HERE / "pins.json"
#: op lists of these seeds are pinned
PINNED_SEEDS = range(16)


def load() -> dict:
    return json.loads(PINS_FILE.read_text())


def calib_ref_ms() -> float:
    return float(load()["calib_ref_ms"])


def program_sources() -> dict[tuple[str, str], str]:
    """The program's own text of every kernel the benchmark copied, by
    (directory under kernels/, name)."""
    from repro.corpus import all_kernels
    from repro.evaluation import figure10
    from repro.runtime import bench
    from repro.workloads import generators

    out = {("corpus", n): k.source for n, k in all_kernels().items()}
    for s in RANDOM_SEEDS:
        out[("fuzz", f"fuzz{s}")] = generators.random_kernel(s).source
    for s in SHARING_SEEDS:
        out[("fuzz", f"share{s}")] = generators.disjoint_sharing_kernel(s).source
    for name, (src, _, _) in bench.BENCH_KERNELS.items():
        out[("large", name)] = src
    out[("large", "cg_product")] = figure10.MEASURED_SRC
    out[("large", "csr_seg")] = bench._CSR_INPUT_SRC
    return out


def generators_digest() -> str:
    """What the program's registry and generators hand the benchmark:
    every corpus kernel's target loop, expected verdict and assertions,
    and the inputs of every input seed exec_small uses."""
    from repro.corpus import all_kernels

    h = hashlib.sha256()
    for name, k in sorted(all_kernels().items()):
        env = k.assertion_env()
        h.update(f"{name}:{k.target_loop}:{k.expect_parallel}:".encode())
        h.update((env.fingerprint() if env is not None else "-").encode())
    makers = ExecSmall(0, 1).makers
    for name in sorted(makers):
        for seed in range(ExecSmall.INPUT_SEEDS + 1):
            h.update(f"{name}/{seed}".encode())
            digest_env(h, makers[name](seed))
    return h.hexdigest()


def verify_program() -> list[str]:
    """Every way the program now differs from the pinned workloads."""
    problems = []
    for (group, name), src in program_sources().items():
        if read_kernel(group, name) != src:
            problems.append(f"kernels/{group}/{name}.c differs from the program's copy")
    if generators_digest() != load()["generators"]:
        problems.append("the corpus registry or input generators produce different inputs")
    return problems


def op_list_digest(workload: str, seed: int, seconds: int) -> "str | None":
    return load()["op_lists"].get(f"{workload}:{seed}:{seconds}")


def compute_op_list_digest(workload: str, seed: int, seconds: int) -> str:
    """The digest a run computes while it prepares its ops."""
    wl = WORKLOADS[workload](seed, seconds)
    h = hashlib.sha256()
    for op in wl.ops():
        wl.digest(h, wl.prepare(op))
    return h.hexdigest()


def kernel_rows() -> list[str]:
    """Programs with a ``kernel.<name>.ms_p50`` row: the exec_large
    programs and the corpus kernels."""
    corpus = sorted(p.stem for p in (HERE / "kernels" / "corpus").glob("*.c"))
    return list(LARGE_SIZES) + [n for n in corpus if n not in LARGE_SIZES]


def write() -> None:
    from harness import Calibrator

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calib = Calibrator(1.0)
    for _ in range(400):
        calib.sample()
    pins = {
        "calib_ref_ms": round(calib.median_ms(), 4),
        "generators": generators_digest(),
        "op_lists": {
            f"{w}:{s}:{seconds}": compute_op_list_digest(w, s, seconds)
            for w in WORKLOADS
            for s in PINNED_SEEDS
        },
    }
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/pins.py --write")
    sys.path.insert(0, str(ROOT / "src"))
    write()
