"""Command-line interface.

Usage::

    python -m repro parallelize FILE.c [--method extended] [--trace] [--plan]
                                [--execute [--size N] [--workers W]]
    python -m repro analyze FILE.c [--vars a,b,c]
    python -m repro explain LOOP (FILE.c | --kernel NAME) [--method extended]
    python -m repro inspect LOOP (FILE.c | --kernel NAME) [--size N] [--seed S]
    python -m repro batch [FILES...] [--jobs N] [--cache-dir DIR] [--json PATH]
                          [--validate] [--tier hybrid] [--timeout S]
                          [--max-failures N] [--faults PLAN]
    python -m repro bench [--json PATH] [--size N] [--check]
    python -m repro bench --analysis [--json PATH] [--check]
    python -m repro figure1
    python -m repro figure10 [--measured]

``parallelize`` prints the OpenMP-annotated C (the paper's artifact);
``analyze`` prints the Section-3.5-style trace; ``explain`` prints the
provenance chain behind one loop's verdict (which statements established
each index-array property, which rule derived it, how the dependence
test used it — e.g. ``repro explain L2 kernel.c`` or ``repro explain L2
--kernel inv_perm_scatter``); ``inspect`` lowers one unknown-verdict
loop to a runtime inspector plan and evaluates it on synthesized (or
corpus) inputs, printing the predicate-level outcome (exit 0: dispatches
parallel, 1: stays serial, 2: error); ``batch`` runs the cached,
parallel batch engine over the built-in corpus and/or user C files (see
:mod:`repro.service`) with optional dynamic-oracle validation of the
PARALLEL verdicts (``--tier hybrid`` validates the runtime-inspected
dispatch tier too); ``bench`` measures the runtime engines (interp vs
compiled, see :mod:`repro.runtime.bench`) and writes
``BENCH_runtime.json``, or with ``--analysis`` measures the static
analyzer's cold corpus sweep (see :mod:`repro.analysis.bench`) and
writes ``BENCH_analysis.json``; the ``figure*`` commands regenerate the
paper's evaluation outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_parallelize(args: argparse.Namespace) -> int:
    from repro.parallelizer import parallelize

    out = parallelize(_read(args.file), method=args.method, function=args.function)
    if args.plan:
        print(out.plan.describe())
        print()
    print(out.annotated_c)
    if args.trace:
        from repro.analysis import render_trace

        print()
        print(render_trace(out.analysis))
    if args.execute:
        return _execute_plans(args)
    return 0


def _synth_inputs(func, size: int, seed: int = 0) -> dict:
    """Synthesize interpreter-ready inputs for an arbitrary mini-C
    function: index-typed (int) arrays draw from ``[0, size)`` so
    subscripted subscripts stay in bounds, float arrays are random, and
    every int scalar parameter is bound to ``size``."""
    import numpy as np

    from repro.ir.symtab import ElemType

    rng = np.random.default_rng(seed)
    env: dict = {}
    for info in func.symtab.arrays():
        shape = tuple(size if d is None else d for d in info.dims)
        if info.elem_type is ElemType.INT:
            env[info.name] = rng.integers(0, size, size=shape).astype(np.int64)
        else:
            env[info.name] = rng.uniform(-1.0, 1.0, size=shape)
    for info in func.symtab.scalars():
        if not info.is_param:
            continue
        env[info.name] = size if info.elem_type is ElemType.INT else 0.5
    return env


def _execute_plans(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.ir import build_function
    from repro.runtime import compile_parallel, execute

    func = build_function(_read(args.file), args.function)
    env = _synth_inputs(func, args.size)
    print()
    print(f"-- execute (size={args.size}, workers={args.workers or 'auto'}) --")
    pf = compile_parallel(func)
    if pf.schedules:
        for label, sched in pf.schedules.items():
            print("schedule:", sched.describe())
            print("  cost class:", pf.cost_class(label))
    else:
        print("schedule: none (no PARALLEL loop verdicts; serial path)")
    ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
    t0 = time.perf_counter()
    execute(func, ref, engine="compiled")
    t_ser = time.perf_counter() - t0
    t0 = time.perf_counter()
    pf.run(env, workers=args.workers)
    t_par = time.perf_counter() - t0
    agree = all(
        np.array_equal(env[k], ref[k])
        if isinstance(ref[k], np.ndarray)
        else env[k] == ref[k]
        for k in ref
    )
    c = pf.last_counters
    print(
        f"compiled {t_ser * 1e3:8.2f} ms | parallel {t_par * 1e3:8.2f} ms | "
        f"speedup {t_ser / max(t_par, 1e-9):.2f}x"
    )
    print(
        f"counters: {c['parallel_activations']} parallel activations, "
        f"{c['mp_chunks']} mp chunks, {c['serial_fallbacks']} serial fallbacks, "
        f"{c['vector_kept']} kept on the vector path"
    )
    if c["mp_chunks"]:
        from repro.runtime import fabric_stats

        fs = fabric_stats()
        cost = fs["dispatch_cost_us"]
        print(
            f"fabric: {fs['pool_spawns']} pool spawn(s), "
            f"{fs['dispatches']} dispatches ({fs['warm_dispatches']} warm), "
            f"arena {fs['arena']['created']} segment(s) created / "
            f"{fs['arena']['recycled']} recycled"
            + (f", warm dispatch ~{cost:.0f} us" if cost else "")
        )
    print("engines agree:", "yes" if agree else "NO")
    return 0 if agree else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_function, render_trace
    from repro.ir import build_function

    func = build_function(_read(args.file), args.function)
    result = analyze_function(func)
    variables = args.vars.split(",") if args.vars else None
    print(render_trace(result, variables))
    print()
    print("facts at end of function:")
    print(result.final_env.describe())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.explain import explain_source

    if args.kernel is not None:
        from repro.corpus import all_kernels

        kernels = all_kernels()
        if args.kernel not in kernels:
            print(f"error: unknown corpus kernel {args.kernel!r}", file=sys.stderr)
            return 2
        k = kernels[args.kernel]
        source, assertions = k.source, k.assertion_env()
    elif args.file is not None:
        source, assertions = _read(args.file), None
    else:
        print("error: give a FILE or --kernel NAME", file=sys.stderr)
        return 2
    try:
        print(
            explain_source(
                source,
                args.loop,
                function=args.function,
                method=args.method,
                assertions=assertions,
            )
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.ir import build_function
    from repro.runtime import run_function
    from repro.runtime.parallel import compile_parallel, default_workers

    if args.kernel is not None:
        from repro.corpus import all_kernels

        kernels = all_kernels()
        if args.kernel not in kernels:
            print(f"error: unknown corpus kernel {args.kernel!r}", file=sys.stderr)
            return 2
        k = kernels[args.kernel]
        source, assertions = k.source, k.assertion_env()
        make_inputs = k.make_inputs
    elif args.file is not None:
        source, assertions, make_inputs = _read(args.file), None, None
    else:
        print("error: give a FILE or --kernel NAME", file=sys.stderr)
        return 2
    func = build_function(source, args.function)
    if not any(lp.label == args.loop for lp in func.loops()):
        labels = ", ".join(lp.label for lp in func.loops())
        print(f"error: no loop {args.loop!r} (loops: {labels})", file=sys.stderr)
        return 2
    pf = compile_parallel(func, assertions, tier="hybrid")
    if args.loop in pf.scheduled and args.loop not in pf.inspectors:
        print(f"{args.loop}: statically PARALLEL — no runtime inspection needed")
        print("schedule:", pf.schedules[args.loop].describe())
        return 0
    if args.loop not in pf.inspectors:
        sched = pf.schedules.get(args.loop)
        if sched is not None and not sched.ok:
            print(f"{args.loop}: serial — schedule failed validation")
            for p in sched.problems:
                print(f"  - {p}")
        else:
            from repro.parallelizer.planner import plan_function

            plan = plan_function(func, method="extended", initial_env=assertions)
            lp = plan.loops.get(args.loop)
            reason = lp.reason if lp is not None else "no plan derived"
            print(f"{args.loop}: serial — not an inspector candidate ({reason})")
        return 1
    plan = pf.inspectors[args.loop]
    print("inspector plan:", plan.describe())
    if make_inputs is not None:
        env = make_inputs(args.seed)
    else:
        env = _synth_inputs(func, args.size, args.seed)
    ref = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}
    run_function(func, ref)
    # the inspector guards fabric dispatches only: force one for every
    # activation, however short, as batch validation does
    pf.run(
        env,
        workers=args.workers or max(2, default_workers()),
        mp_min_trips=1,
        inspect_min_trips=1,
    )
    res = pf.last_inspections.get(args.loop)
    if res is None:
        print(
            f"{args.loop}: loop was not inspected on these inputs "
            "(0 trips, fewer than 2 workers, or no fork start method)"
        )
        return 1
    print(res.describe())
    agree = all(
        np.array_equal(env[k], ref[k])
        if isinstance(ref[k], np.ndarray)
        else env[k] == ref[k]
        for k in ref
    )
    print("engines agree:", "yes" if agree else "NO")
    if not agree:
        return 2
    return 0 if res.parallel else 1


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import (
        BatchEngine,
        KernelVerdict,
        ResultCache,
        corpus_requests,
        requests_from_source,
    )

    if args.engine and not args.validate:
        print("error: --engine only applies to --validate", file=sys.stderr)
        return 2
    if args.tier == "hybrid" and not args.validate:
        print("error: --tier hybrid only applies to --validate", file=sys.stderr)
        return 2
    if args.tier == "hybrid" and args.engine != "parallel":
        print(
            "error: --tier hybrid needs --engine parallel (the hybrid tier "
            "is a parallel-engine dispatch mode)",
            file=sys.stderr,
        )
        return 2
    requests = []
    if args.corpus or not args.files:
        requests += corpus_requests(method=args.method)
    # labels must be unique batch-wide: two files sharing a stem (or a
    # stem colliding with a corpus kernel) get numbered suffixes
    seen = {r.name for r in requests}
    unreadable: list = []  # KernelVerdict error rows, merged into the report
    for path in args.files:
        label = stem = Path(path).stem
        k = 2
        while label in seen:
            label = f"{stem}-{k}"
            k += 1
        try:
            source = _read(path)
        except (OSError, UnicodeDecodeError) as exc:
            # an unreadable file costs its own ERROR row, not the batch
            seen.add(label)
            unreadable.append(
                KernelVerdict(
                    label,
                    {
                        "name": label,
                        "method": args.method,
                        "cache_key": None,
                        "error": f"{type(exc).__name__}: {exc}",
                        "function": None,
                    },
                )
            )
            continue
        file_requests = requests_from_source(source, label=label, method=args.method)
        seen.update(r.name for r in file_requests)
        seen.add(label)
        requests += file_requests
    cache = ResultCache(cache_dir=args.cache_dir)
    engine = BatchEngine(
        method=args.method,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        max_failures=args.max_failures,
    )
    prev_plan = None
    if args.faults:
        from repro.service import faults

        try:
            prev_plan = faults.install(args.faults)
        except ValueError as exc:
            print(f"error: --faults: {exc}", file=sys.stderr)
            return 2
    try:
        report = engine.run(requests)
        report.verdicts = sorted(report.verdicts + unreadable, key=lambda v: v.name)
        status = 1 if any(not v.ok for v in report.verdicts) else 0
        if args.validate:
            from repro.service import validate_parallel_verdicts

            problems = validate_parallel_verdicts(
                report, engine=args.engine, tier=args.tier
            )
            if problems:
                for name, msgs in sorted(problems.items()):
                    for msg in msgs:
                        print(f"SOUNDNESS VIOLATION [{name}]: {msg}")
                status = 1
            elif not args.quiet:
                checked = sum(
                    1 for v in report.verdicts if v.ok and v.parallel_loops
                )
                downgraded = len(report.health.get("oracle_downgrades", ()))
                note = f" ({downgraded} downgraded to unknown)" if downgraded else ""
                print(
                    "oracle validation: "
                    f"{checked} parallel verdicts spot-checked, all hold{note}"
                )
    finally:
        if args.faults:
            from repro.service import faults

            faults.install(prev_plan)
    if not args.quiet:
        print(report.render())
    if args.json == "-":
        print(report.to_json())
    elif args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        if not args.quiet:
            print(f"wrote {args.json}")
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    if args.analysis:
        return _cmd_bench_analysis(args)
    from repro.runtime.bench import (
        check_regression,
        render,
        run_runtime_bench,
        to_json,
    )

    try:
        doc = run_runtime_bench(
            size=args.size,
            repeats=args.repeats,
            fuzz_seeds=args.fuzz_seeds,
            kernels=args.kernels.split(",") if args.kernels else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(render(doc))
    if args.json == "-":
        print(to_json(doc))
    elif args.json:
        Path(args.json).write_text(to_json(doc) + "\n")
        if not args.quiet:
            print(f"wrote {args.json}")
    if args.check:
        problems = check_regression(doc, min_speedup=args.min_speedup)
        if problems:
            for p in problems:
                print(f"PERF REGRESSION: {p}")
            return 1
        if not args.quiet:
            print(f"perf check passed (min speedup {args.min_speedup}x)")
    return 0


def _cmd_bench_analysis(args: argparse.Namespace) -> int:
    from repro.analysis.bench import (
        check_regression,
        render,
        run_analysis_bench,
        to_json,
    )

    doc = run_analysis_bench(repeats=args.repeats)
    if not args.quiet:
        print(render(doc))
    if args.json == "-":
        print(to_json(doc))
    elif args.json:
        Path(args.json).write_text(to_json(doc) + "\n")
        if not args.quiet:
            print(f"wrote {args.json}")
    if args.check:
        problems = check_regression(doc, max_sweep_seconds=args.max_sweep_seconds)
        if problems:
            for p in problems:
                print(f"PERF REGRESSION: {p}")
            return 1
        if not args.quiet:
            print(
                f"perf check passed (corpus sweep budget {args.max_sweep_seconds}s)"
            )
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    from repro.study import run_figure1

    print(run_figure1().render())
    return 0


def cmd_figure10(args: argparse.Namespace) -> int:
    from repro.evaluation import run_figure10, shape_checks

    result = run_figure10()
    print(result.render())
    problems = shape_checks(result)
    if problems:
        print("shape violations:", "; ".join(problems))
        return 1
    print("all paper shape checks hold")
    if args.measured:
        import os

        from repro.evaluation import measure_figure10, render_measured

        points = measure_figure10()
        print()
        print(render_measured(points))
        if (os.cpu_count() or 1) < 2:
            print("note: single-cpu host — measured speedups > 1x are not expected")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile-time parallelization of subscripted subscript patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parallelize", help="emit OpenMP-annotated C")
    p.add_argument("file")
    p.add_argument("--method", default="extended", choices=["gcd", "banerjee", "range", "extended"])
    p.add_argument("--function", default=None, help="function name (default: the only one)")
    p.add_argument("--trace", action="store_true", help="also print the analysis trace")
    p.add_argument("--plan", action="store_true", help="also print the loop plan")
    p.add_argument(
        "--execute",
        action="store_true",
        help="also run the kernel on synthesized inputs: compiled vs the "
        "parallel engine, printing schedules, timings, and agreement",
    )
    p.add_argument(
        "--size",
        type=int,
        default=4096,
        help="--execute problem size (default 4096)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="--execute worker count (default: $REPRO_WORKERS or cpu count)",
    )
    p.set_defaults(fn=cmd_parallelize)

    a = sub.add_parser("analyze", help="print the Section 3.5-style analysis trace")
    a.add_argument("file")
    a.add_argument("--function", default=None)
    a.add_argument("--vars", default=None, help="comma-separated variable filter")
    a.set_defaults(fn=cmd_analyze)

    e = sub.add_parser(
        "explain", help="print the provenance chain behind one loop's verdict"
    )
    e.add_argument("loop", help="loop label (e.g. L2)")
    e.add_argument("file", nargs="?", default=None, help="mini-C source file")
    e.add_argument("--kernel", default=None, help="explain a built-in corpus kernel instead of a file")
    e.add_argument("--function", default=None, help="function name (default: the only one)")
    e.add_argument("--method", default="extended", choices=["gcd", "banerjee", "range", "extended"])
    e.set_defaults(fn=cmd_explain)

    i = sub.add_parser(
        "inspect",
        help="lower one unknown-verdict loop to a runtime inspector and evaluate it",
    )
    i.add_argument("loop", help="loop label (e.g. L2)")
    i.add_argument("file", nargs="?", default=None, help="mini-C source file")
    i.add_argument("--kernel", default=None, help="inspect a built-in corpus kernel instead of a file")
    i.add_argument("--function", default=None, help="function name (default: the only one)")
    i.add_argument("--size", type=int, default=4096, help="synthesized problem size (default 4096)")
    i.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    i.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the dispatch (default: $REPRO_WORKERS or cpu count, at least 2)",
    )
    i.set_defaults(fn=cmd_inspect)

    b = sub.add_parser("batch", help="batch-analyze a corpus with caching + workers")
    b.add_argument("files", nargs="*", help="mini-C source files (default: built-in corpus)")
    b.add_argument("--corpus", action="store_true", help="include the built-in corpus even when files are given")
    b.add_argument("--method", default="extended", choices=["gcd", "banerjee", "range", "extended"])
    b.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    b.add_argument("--cache-dir", default=None, help="on-disk result cache directory")
    b.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-kernel wall-clock budget (default: unlimited)",
    )
    b.add_argument(
        "--max-failures",
        type=int,
        default=2,
        help="infrastructure failures before a kernel is quarantined (default 2)",
    )
    b.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject faults for this run: 'site[:glob[:times]]; ...' "
        "(see repro.service.faults.SITES; also via $REPRO_FAULTS)",
    )
    b.add_argument("--json", default=None, metavar="PATH", help="write the JSON report to PATH ('-' for stdout)")
    b.add_argument("--quiet", action="store_true", help="suppress the summary table")
    b.add_argument(
        "--validate",
        action="store_true",
        help="spot-check PARALLEL verdicts against the dynamic oracle (corpus kernels)",
    )
    b.add_argument(
        "--engine",
        default=None,
        choices=["interp", "compiled", "parallel"],
        help="runtime engine for --validate (default: $REPRO_ENGINE or "
        "compiled; 'parallel' additionally executes each validated kernel "
        "on the parallel engine against the interpreter)",
    )
    b.add_argument(
        "--tier",
        default="static",
        choices=["static", "hybrid"],
        help="parallel-engine dispatch tier for --validate --engine parallel "
        "(hybrid also runs unknown-verdict loops through the runtime "
        "inspector; default static)",
    )
    b.set_defaults(fn=cmd_batch)

    r = sub.add_parser(
        "bench",
        help="benchmark the runtime engines (default) or the analyzer (--analysis)",
    )
    r.add_argument(
        "--analysis",
        action="store_true",
        help="benchmark the static analyzer (cold corpus sweep) instead of the runtime engines",
    )
    r.add_argument("--json", default=None, metavar="PATH", help="write the bench JSON to PATH ('-' for stdout)")
    r.add_argument("--size", type=int, default=20000, help="kernel problem size (default 20000)")
    r.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats (default 3): best-of for the oracle, medians for execute "
        "(10N+1 interleaved rounds of compiled and parallel); --analysis uses the median too",
    )
    r.add_argument(
        "--max-sweep-seconds",
        type=float,
        default=1.0,
        help="--analysis --check budget for the cold corpus sweep (default 1.0)",
    )
    r.add_argument("--fuzz-seeds", type=int, default=15, help="random kernels in the fuzz sweep (default 15)")
    r.add_argument("--kernels", default=None, help="comma-separated kernel subset (default: all)")
    r.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless compiled beats interp and parallel reaches 0.8x compiled on every kernel",
    )
    r.add_argument("--min-speedup", type=float, default=1.0, help="regression threshold for --check (default 1.0)")
    r.add_argument("--quiet", action="store_true", help="suppress the summary table")
    r.set_defaults(fn=cmd_bench)

    sub.add_parser("figure1", help="regenerate the Figure 1 study table").set_defaults(
        fn=cmd_figure1
    )
    f10 = sub.add_parser("figure10", help="regenerate the Figure 10 speedup table")
    f10.add_argument(
        "--measured",
        action="store_true",
        help="also measure the CG product loop on the parallel engine "
        "(workers 2 and 4) against the compiled serial engine",
    )
    f10.set_defaults(fn=cmd_figure10)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
