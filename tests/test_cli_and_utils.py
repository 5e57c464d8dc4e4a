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
from repro.utils import Table, format_table, indent_block, pluralize
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
            "framework.nest",
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

    def test_bench_runtime_vector_crossover_section(self):
        from repro.runtime.bench import CROSSOVER_TRIPS, measure_vector_crossover, render
        from repro.runtime.compiler import VEC_MIN_TRIPS

        # every vector activation it times must commit (it raises on a
        # fallback); the timings themselves are host-dependent
        cross = measure_vector_crossover(rounds=1, batch=1)
        assert cross["trips"] == list(CROSSOVER_TRIPS)
        assert cross["vec_min_trips"] == VEC_MIN_TRIPS
        assert set(cross["shapes"]) == {"copy_plus_one", "product", "gather"}
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
            "  cost class: scalar (fabric from the measured dispatch threshold)\n"
        ) in out
        fork = "fork" in multiprocessing.get_all_start_methods()
        kept = 1 if fork else 0  # without fork nothing reaches the cost class
        assert f"0 serial fallbacks, {kept} kept on the vector path\n" in out
        assert "engines agree: yes" in out


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


class TestTextHelpers:
    def test_indent_block(self):
        assert indent_block("a\n\nb", 2) == "  a\n\n  b"

    def test_pluralize(self):
        assert pluralize(1, "loop") == "1 loop"
        assert pluralize(2, "loop") == "2 loops"
        assert pluralize(2, "query", "queries") == "2 queries"


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
