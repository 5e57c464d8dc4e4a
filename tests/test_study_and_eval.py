"""Tests for the Figure 1 study and the Figure 10 evaluation harness."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.corpus import all_kernels
from repro.evaluation import run_figure10, shape_checks
from repro.ir import build_function
from repro.study import run_figure1, scan_function


class TestScanner:
    def test_finds_indirect_write(self):
        k = all_kernels()["fig2_ua_injective"]
        report = scan_function(build_function(k.source))
        assert any(s.shape == "indirect-point" for s in report.sites)
        assert any("mt_to_id" in s.subscript_arrays for s in report.sites)

    def test_finds_span_bound_pattern(self):
        k = all_kernels()["fig3_cg_monotonic"]
        report = scan_function(build_function(k.source))
        assert any(s.shape == "span-bound" for s in report.sites)
        assert any("rowstr" in s.subscript_arrays for s in report.sites)

    def test_finds_indirect_span(self):
        k = all_kernels()["fig6_csparse_simul"]
        report = scan_function(build_function(k.source))
        assert any(s.shape == "indirect-span" and "p" in s.subscript_arrays for s in report.sites)

    def test_affine_program_has_no_sites(self):
        f = build_function(
            "void f(int n, int a[], int b[]) { int i;"
            " for (i = 0; i < n; i++) { a[i] = b[i] + 1; } }"
        )
        assert scan_function(f).sites == []

    def test_histogram_counts_as_pattern_site(self):
        k = all_kernels()["histogram_serial"]
        report = scan_function(build_function(k.source))
        assert report.sites  # it *is* a subscripted subscript — just not parallel


class TestFigure1:
    @pytest.fixture(scope="class")
    def fig1(self):
        return run_figure1()

    def test_aggregate_counts(self, fig1):
        assert fig1.counts()["NPB"] == (6, 10)
        assert fig1.counts()["SuiteSparse"] == (4, 8)

    def test_all_flagged_programs_fully_parallelized(self, fig1):
        for row in fig1.rows:
            if row.has_patterns:
                n, m = row.parallelized.split("/")
                assert n == m and int(m) >= 1, row

    def test_render_contains_programs(self, fig1):
        text = fig1.render()
        for name in ("CG", "UA", "CSparse", "UMFPACK"):
            assert name in text
        assert "6/10" in text and "4/8" in text

    def test_provenance_marked(self, fig1):
        rows = {r.program: r for r in fig1.rows}
        assert rows["CG"].provenance == "paper text"
        assert rows["IS"].provenance == "reconstructed"


class TestFigure10:
    @pytest.fixture(scope="class")
    def fig10(self):
        return run_figure10()

    def test_shape_checks_pass(self, fig10):
        assert shape_checks(fig10) == []

    def test_extended_vs_baseline_headline(self, fig10):
        assert fig10.extended_parallel_loops == fig10.kernels_tested == 3
        assert fig10.baseline_parallel_loops == 0

    def test_render(self, fig10):
        text = fig10.render()
        assert "8 threads" in text and "sequential" in text

    def test_modeled_series_has_all_classes(self, fig10):
        assert set(fig10.modeled) == {"A", "B", "C"}
        for pts in fig10.modeled.values():
            assert [p.threads for p in pts] == [2, 4, 6, 8]


class TestMeasuredFigure10:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the measured series dispatches over the fork-based fabric",
    )
    def test_product_loop_crosses_the_fabric(self):
        """The measured series times the compiler's own output: the CG
        product loop must reach the fabric, and ``measure_figure10``
        itself raises if the parallel product differs from the compiled
        one."""
        from repro.evaluation import measure_figure10
        from repro.runtime import fabric_stats

        before = fabric_stats()["dispatches"]
        points = measure_figure10(workers=(2,), nrows=512, nnz_per_row=8, repeats=1)
        assert [p.workers for p in points] == [2]
        assert points[0].seconds > 0
        assert fabric_stats()["dispatches"] - before >= 1
