"""Tests for the CLI, the table renderer, and the error hierarchy."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import (
    AnalysisError,
    IRError,
    InterpreterError,
    LexError,
    ParseError,
    ReproError,
    SymbolicError,
    WorkloadError,
)
from repro.utils import Table, format_table
from tests.conftest import FIG9_SOURCE


@pytest.fixture()
def fig9_file(tmp_path):
    p = tmp_path / "fig9.c"
    p.write_text(FIG9_SOURCE)
    return str(p)


class TestCli:
    def test_parallelize(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp parallel for private(j,j1)" in out

    def test_parallelize_with_plan_and_trace(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file, "--plan", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "PARALLEL" in out and "Phase 2" in out

    def test_parallelize_baseline_method(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file, "--method", "range"]) == 0
        out = capsys.readouterr().out
        # the baseline cannot parallelize the subscripted-subscript outer
        # loop (it may still pick up the affine inner loop)
        assert "private(j,j1)" not in out

    def test_analyze(self, fig9_file, capsys):
        assert main(["analyze", fig9_file, "--vars", "rowptr,count"]) == 0
        out = capsys.readouterr().out
        assert "Monotonic_inc" in out

    def test_figure10_command(self, capsys):
        assert main(["figure10"]) == 0
        out = capsys.readouterr().out
        assert "all paper shape checks hold" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_batch_over_file(self, fig9_file, capsys):
        assert main(["batch", fig9_file]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "L3" in out

    def test_batch_json_to_stdout(self, fig9_file, capsys):
        import json

        assert main(["batch", fig9_file, "--quiet", "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"][0]["parallel_loops"] == ["L3"]

    def test_batch_missing_file_is_an_error_row(self, fig9_file, tmp_path, capsys):
        import json

        from repro.service import corpus_requests

        missing = str(tmp_path / "missing.c")
        argv = ["batch", fig9_file, missing, "--corpus", "--quiet", "--json", "-"]
        assert main(argv) == 1
        rows = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert rows["missing"]["error"].startswith("FileNotFoundError")
        # the rest of the batch is still analyzed
        assert len(rows) == len(corpus_requests()) + 2
        assert rows["fig9"]["parallel_loops"] == ["L3"]
        assert all("error" not in v for name, v in rows.items() if name != "missing")
        assert main(["batch", missing]) == 1
        assert "ERROR: FileNotFoundError" in capsys.readouterr().out

    def test_strided_loop_gets_a_serial_verdict(self, tmp_path, capsys):
        import json

        src = tmp_path / "strided.c"
        src.write_text(
            "void strided(int b[], int n)"
            " { int i; for (i = n - 1; i > 0; i -= 3) { b[i] = 1; } }"
        )
        assert main(["parallelize", str(src), "--plan"]) == 0
        out = capsys.readouterr().out
        assert "L1: serial — non-unit stride (step -3): not analyzed" in out
        assert main(["batch", str(src)]) == 0
        assert "ERROR" not in capsys.readouterr().out
        assert main(["batch", str(src), "--quiet", "--json", "-"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert "error" not in row and row["parallel_loops"] == []
        assert row["loops"][0]["reason"] == "non-unit stride (step -3): not analyzed"

    def test_batch_duplicate_stems_get_unique_labels(self, tmp_path, capsys):
        # two files sharing a basename stem must not abort the batch
        one = tmp_path / "a" / "x.c"
        two = tmp_path / "b" / "x.c"
        for p, body in ((one, "int a[]"), (two, "int b[]")):
            p.parent.mkdir()
            p.write_text(
                "void f(%s, int n) { int i; for (i = 0; i < n; i++) { } }" % body
            )
        assert main(["batch", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "x " in out or "x|" in out.replace(" ", "")
        assert "x-2" in out

    def test_bench_analysis_json_and_check(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_analysis.json"
        assert (
            main(
                [
                    "bench",
                    "--analysis",
                    "--repeats",
                    "1",
                    "--quiet",
                    "--json",
                    str(out_path),
                    "--check",
                    # generous: this gate trips on order-of-magnitude
                    # regressions, not on a loaded CI runner
                    "--max-sweep-seconds",
                    "30",
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["verdicts_ok"]
        assert doc["corpus_sweep"]["kernels"] == len(doc["per_kernel"])
        assert doc["corpus_sweep"]["seconds_median"] > 0
        assert 0.0 <= doc["memo"]["hit_rate"] <= 1.0
        assert doc["baseline"]["corpus_sweep_seconds_median"] > 0
        assert set(doc["memo"]["tables"]) == {
            "expr.add",
            "expr.mul",
            "expr.minmax",
            "ranges.subst",
            "compare.prover",
            "planner.plans",
            "parallel.functions",
            "runtime.inspections",
        }

    def test_bench_analysis_check_catches_regression(self):
        from repro.analysis.bench import check_regression

        doc = {
            "corpus_sweep": {"seconds_median": 2.0},
            "summary": {"verdicts_ok": True},
        }
        assert check_regression(doc, max_sweep_seconds=1.0)
        doc["corpus_sweep"]["seconds_median"] = 0.5
        assert check_regression(doc, max_sweep_seconds=1.0) == []
        doc["summary"]["verdicts_ok"] = False
        assert check_regression(doc, max_sweep_seconds=1.0)

    def test_bench_runtime_check_floors_parallel_against_compiled(self):
        from repro.runtime.bench import MIN_PARALLEL_SPEEDUP, check_regression

        def doc(par: float) -> dict:
            kernel = {
                "name": "k",
                "oracle": {"speedup": 5.0},
                "execute": {"parallel_speedup": par},
                "engines_agree": True,
            }
            return {"kernels": [kernel], "fuzz_sweep": {"verdicts_agree": True}}

        assert check_regression(doc(MIN_PARALLEL_SPEEDUP)) == []
        (problem,) = check_regression(doc(0.34))
        assert problem.startswith("k: parallel runs at 0.34x compiled")

    def test_bench_runtime_check_gates_the_nest_vector_path(self):
        from repro.runtime.bench import CROSSOVER_TRIPS, NEST_GATE_TRIPS, check_regression

        def doc(vector_us: float) -> dict:
            times = [100.0] * len(CROSSOVER_TRIPS)
            nest = {"scalar_us": times, "vector_us": [50.0] * len(CROSSOVER_TRIPS)}
            nest["vector_us"][CROSSOVER_TRIPS.index(NEST_GATE_TRIPS)] = vector_us
            return {
                "kernels": [],
                "fuzz_sweep": {"verdicts_agree": True},
                "vector_crossover": {"trips": list(CROSSOVER_TRIPS), "shapes": {"nest": nest}},
            }

        assert check_regression(doc(99.0)) == []
        (problem,) = check_regression(doc(100.0))
        assert problem.startswith("vector crossover: the nest's vector path")

    def test_bench_runtime_vector_crossover_section(self):
        from repro.runtime.bench import CROSSOVER_TRIPS, measure_vector_crossover, render
        from repro.runtime.compiler import VEC_MIN_TRIPS

        # every vector activation it times must commit (it raises on a
        # fallback); the timings themselves are host-dependent
        cross = measure_vector_crossover(rounds=1, batch=1)
        assert cross["trips"] == list(CROSSOVER_TRIPS)
        assert cross["vec_min_trips"] == VEC_MIN_TRIPS
        assert set(cross["shapes"]) == {"copy_plus_one", "product", "gather", "nest"}
        for entry in cross["shapes"].values():
            assert set(entry) == {
                "scalar_us",
                "vector_us",
                "scalar_us_per_trip",
                "vector_us_per_activation",
                "vector_us_per_trip",
                "crossover_trips",
            }
            assert len(entry["scalar_us"]) == len(entry["vector_us"]) == len(CROSSOVER_TRIPS)
        doc = {
            "params": {"size": 1},
            "kernels": [],
            "fuzz_sweep": {
                "seeds": 0,
                "interp": {"seconds": 0.0},
                "compiled": {"seconds": 0.0},
                "speedup": 0.0,
                "verdicts_agree": True,
            },
            "summary": {"oracle_geomean_speedup": 0.0, "parallel_execute_best_speedup": 0.0},
            "host": {"parallel_workers": 2, "cpu_count": 2},
            "vector_crossover": cross,
        }
        assert f"(VEC_MIN_TRIPS = {VEC_MIN_TRIPS})" in render(doc)

    def test_bench_runtime_per_call_section(self):
        from repro.runtime.bench import PER_CALL_TRIPS, measure_per_call, render

        # report-only: the keys are pinned, the host-dependent timings not
        per_call = measure_per_call(rounds=1, batch=1)
        assert set(per_call) == {
            "trips",
            "rounds",
            "batch",
            "compiled_us",
            "parallel_us",
            "parallel_over_compiled",
        }
        assert per_call["trips"] == PER_CALL_TRIPS
        assert per_call["compiled_us"] > 0 and per_call["parallel_us"] > 0
        doc = {
            "params": {"size": 1},
            "kernels": [],
            "fuzz_sweep": {
                "seeds": 0,
                "interp": {"seconds": 0.0},
                "compiled": {"seconds": 0.0},
                "speedup": 0.0,
                "verdicts_agree": True,
            },
            "summary": {"oracle_geomean_speedup": 0.0, "parallel_execute_best_speedup": 0.0},
            "host": {"parallel_workers": 2, "cpu_count": 2},
            "per_call": per_call,
        }
        assert f"per call ({PER_CALL_TRIPS}-trip b[i] = a[i] + 1, warm)" in render(doc)

    def test_parallelize_execute_says_why_a_loop_ran_serial(self, tmp_path, capsys):
        import multiprocessing

        src = tmp_path / "mix.c"
        src.write_text(
            """
void mix(int a[], int b[], int out[], int n)
{
    int i, t;
    for (i = 0; i < n; i++) { b[i] = a[i] + 1; }
    for (i = 0; i < n; i++) {
        if (a[i] > 0) { t = a[i] * 3; } else { t = 1 - a[i]; }
        out[i] = t + i;
    }
}
"""
        )
        argv = ["parallelize", str(src), "--execute", "--size", "4096", "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "schedule: loop L1 over i step 1 writes[b]\n"
            "  cost class: vector (compiled vector path below 1048576 trips)\n"
            "schedule: loop L2 over i step 1 private(t) writes[out]\n"
            "  cost class: scalar (fabric from 256 trips)\n"
        ) in out
        fork = "fork" in multiprocessing.get_all_start_methods()
        kept = 1 if fork else 0  # without fork nothing reaches the cost class
        assert f"0 serial fallbacks, {kept} kept on the vector path\n" in out
        assert "engines agree: yes" in out

    def test_parallelize_execute_lowers_before_timing(self, tmp_path, monkeypatch):
        # the timed region holds the two runs and nothing else: both
        # engines are lowered, and each has run once untimed, before the
        # first clock read
        import time

        from repro.corpus.suites import PERM_ROW_SCATTER_SRC
        from repro.runtime import compiler, parallel

        events: list[str] = []
        real_init, real_clock = compiler._Compiler.__init__, time.perf_counter

        def lowering(self, *args, **kwargs):
            events.append("lower")
            real_init(self, *args, **kwargs)

        def clock():
            events.append("clock")
            return real_clock()

        def running(name, real):
            def run(self, *args, **kwargs):
                events.append(name)
                return real(self, *args, **kwargs)

            return run

        monkeypatch.setattr(compiler._Compiler, "__init__", lowering)
        monkeypatch.setattr(time, "perf_counter", clock)
        for name, cls in (
            ("compiled", compiler.CompiledFunction),
            ("parallel", parallel.ParallelFunction),
        ):
            monkeypatch.setattr(cls, "run", running(name, cls.run))
        src = tmp_path / "prs.c"
        src.write_text(PERM_ROW_SCATTER_SRC)
        assert main(["parallelize", str(src), "--execute", "--size", "64"]) == 0
        reads = [k for k, e in enumerate(events) if e == "clock"]
        assert len(reads) >= 4 and "lower" in events[: reads[0]]
        timed = events[reads[0] : reads[-1]]
        assert "lower" not in timed
        for name in ("compiled", "parallel"):
            assert events[: reads[0]].count(name) == 1
            assert timed.count(name) == 1

    def test_parallelize_execute_sized_dimension(self, tmp_path, capsys):
        # a literal dimension sizes the synthesized input: [n][4] here
        src = tmp_path / "fill.c"
        src.write_text(
            """
void fill(int grid[][4], int n)
{
    int i;
    for (i = 0; i < n; i++) { grid[i][3] = i; }
}
"""
        )
        assert main(["parallelize", str(src), "--execute", "--size", "64"]) == 0
        assert "engines agree: yes" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parallelize_execute_identical_nans_agree(self, tmp_path, capsys):
        # inf - inf: every engine writes the same NaN bytes, which an
        # elementwise == would call a divergence
        src = tmp_path / "nan.c"
        src.write_text(
            """
void nan_kernel(int n, double a[], double b[])
{
    int i;
    for (i = 0; i < n; i++) { b[i] = a[i] * 1e308 * 1e308 - a[i] * 1e308 * 1e308; }
}
"""
        )
        assert main(["parallelize", str(src), "--execute", "--size", "8"]) == 0
        assert "engines agree: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["missing", "malformed"])
    @pytest.mark.parametrize(
        "argv",
        [["parallelize"], ["analyze"], ["explain", "L1"], ["inspect", "L1"]],
        ids=lambda argv: argv[0],
    )
    def test_single_file_command_reports_bad_input(self, argv, bad, tmp_path, capsys):
        path = tmp_path / "k.c"
        if bad == "malformed":
            path.write_text("void f( {\n")
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("ParseError" if bad == "malformed" else "FileNotFoundError") in err
        assert "Traceback" not in err


class TestTables:
    def test_alignment(self):
        t = Table(["name", "value"], title="demo")
        t.add_row("a", 1)
        t.add_row("long-name", 2.5)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert all(len(l) == len(lines[1]) for l in lines[2:])

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row(3.14159)
        assert "3.142" in t.render()

    def test_wrong_arity_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_table_plain(self):
        text = format_table(["h"], [["v"]])
        assert "h" in text and "v" in text


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            LexError("x", 1, 2),
            ParseError("x", 1, 2),
            IRError("x"),
            SymbolicError("x"),
            AnalysisError("x"),
            InterpreterError("x"),
            WorkloadError("x"),
        ):
            assert isinstance(exc, ReproError)

    def test_locations_in_messages(self):
        assert "3:7" in str(LexError("bad", 3, 7))
        assert "2:1" in str(ParseError("bad", 2, 1))
