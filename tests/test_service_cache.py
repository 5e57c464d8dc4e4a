"""Correctness of the batch service: cache keys, storage tiers, and
byte-identical reports across cold / warm / parallel runs."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    analyzer_version,
    AnalysisRequest,
    BatchEngine,
    ResultCache,
    cache_key,
    corpus_requests,
    faults,
    requests_from_source,
)
from repro.service.engine import _request_key

SCATTER = """
void scatter(int p[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        out[p[i]] = i;
    }
}
"""

SCATTER_REFORMATTED = """
void scatter(int p[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) { out[p[i]] = i; }
}
"""

SCATTER_CHANGED = """
void scatter(int p[], int out[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        out[p[i]] = i + 1;
    }
}
"""


def _subset_requests(count: int = 6) -> list[AnalysisRequest]:
    return corpus_requests()[:count]


class TestCacheKey:
    def test_key_changes_when_ir_changes(self):
        a = _request_key(AnalysisRequest("k", SCATTER))
        b = _request_key(AnalysisRequest("k", SCATTER_CHANGED))
        assert a != b

    def test_key_ignores_formatting(self):
        a = _request_key(AnalysisRequest("k", SCATTER))
        b = _request_key(AnalysisRequest("k", SCATTER_REFORMATTED))
        assert a == b

    def test_key_depends_on_method(self):
        a = _request_key(AnalysisRequest("k", SCATTER, method="extended"))
        b = _request_key(AnalysisRequest("k", SCATTER, method="gcd"))
        assert a != b

    def test_key_depends_on_assertions(self):
        plain = _request_key(AnalysisRequest("k", SCATTER))
        # lu_pivot's registry assertions (injectivity of perm) must
        # change the key even for identical source text
        from repro.corpus import all_kernels

        src = all_kernels()["lu_pivot"].source
        with_assert = _request_key(AnalysisRequest("k", src, kernel="lu_pivot"))
        without = _request_key(AnalysisRequest("k", src))
        assert with_assert != without
        assert plain != with_assert

    def test_key_depends_on_analyzer_version(self):
        a = cache_key("ir", "extended", "", version="1.0+schema1")
        b = cache_key("ir", "extended", "", version="1.0+schema2")
        assert a != b

    def test_analyzer_version_fingerprints_source_tree(self):
        # the version string embeds a digest of the verdict-determining
        # sources and the pass-pipeline identity: an analysis refactor
        # (or a new derivation rule) invalidates the cache automatically
        from repro.service.cache import _analysis_tree_digest, analyzer_version

        assert f"tree.{_analysis_tree_digest()[:16]}" in analyzer_version()
        assert "passes[" in analyzer_version()

    def test_tree_digest_sensitive_to_content(self, tmp_path, monkeypatch):
        # a one-byte change in any analysis source flips the digest
        import shutil
        from pathlib import Path

        import repro
        from repro.service import cache as cache_mod

        src_root = Path(repro.__file__).resolve().parent
        clone = tmp_path / "repro"
        shutil.copytree(src_root, clone)
        real_file = repro.__file__
        monkeypatch.setattr(repro, "__file__", str(clone / "__init__.py"))
        base = cache_mod._analysis_tree_digest()
        target = clone / "analysis" / "properties.py"
        target.write_text(target.read_text() + "\n# changed\n")
        changed = cache_mod._analysis_tree_digest()
        monkeypatch.setattr(repro, "__file__", real_file)
        assert base != changed

    def test_key_does_not_depend_on_request_name(self):
        a = _request_key(AnalysisRequest("first", SCATTER))
        b = _request_key(AnalysisRequest("second", SCATTER))
        assert a == b


class TestResultCache:
    def test_memory_roundtrip(self):
        c = ResultCache()
        assert c.get("k" * 64) is None
        c.put("k" * 64, {"x": 1})
        assert c.get("k" * 64) == {"x": 1}
        assert c.stats.memory_hits == 1
        assert c.stats.misses == 1

    def test_lru_eviction(self):
        c = ResultCache(max_entries=2)
        c.put("a", {"v": 1})
        c.put("b", {"v": 2})
        assert c.get("a") == {"v": 1}  # refresh a
        c.put("c", {"v": 3})  # evicts b
        assert c.get("b") is None
        assert c.get("a") == {"v": 1}
        assert c.get("c") == {"v": 3}

    def test_disk_roundtrip(self, tmp_path):
        c1 = ResultCache(cache_dir=tmp_path)
        c1.put("deadbeef", {"verdict": "ok"})
        c2 = ResultCache(cache_dir=tmp_path)  # fresh memory tier
        assert c2.get("deadbeef") == {"verdict": "ok"}
        assert c2.stats.disk_hits == 1

    def test_corrupted_disk_entry_is_a_miss(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        (tmp_path / "badkey.json").write_text("{not json")
        assert c.get("badkey") is None
        assert not (tmp_path / "badkey.json").exists()  # dropped

    def test_clear_keeps_disk(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put("k1", {"v": 1})
        c.clear()
        assert len(c) == 0
        assert c.get("k1") == {"v": 1}  # re-served from disk


class TestCacheFailureAccounting:
    """Disk-tier failures must be counted and surfaced, never silent."""

    @staticmethod
    def _deny_writes(monkeypatch):
        # chmod cannot make a directory unwritable for root (CI runs as
        # root), so simulate the EACCES at the write call itself
        from pathlib import Path

        def deny(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", deny)

    def test_unwritable_dir_counts_write_errors(self, tmp_path, monkeypatch):
        c = ResultCache(cache_dir=tmp_path)
        self._deny_writes(monkeypatch)
        c.put("feedface", {"v": 1})
        c.put("deadbeef", {"v": 2})
        assert c.stats.write_errors == 2
        assert c.stats.stores == 2  # the batch itself still succeeded
        assert c.get("feedface") == {"v": 1}  # memory tier unaffected
        assert c.stats.to_dict()["write_errors"] == 2

    def test_unwritable_dir_warning_in_batch_summary(self, tmp_path, monkeypatch):
        cache = ResultCache(cache_dir=tmp_path)
        reqs = _subset_requests(2)
        self._deny_writes(monkeypatch)
        report = BatchEngine(cache=cache).run(reqs)
        assert cache.stats.write_errors == 2
        rendered = report.render()
        assert "cache write failure" in rendered
        assert "unwritable or full" in rendered

    def test_truncated_entry_counts_corrupt(self, tmp_path):
        c1 = ResultCache(cache_dir=tmp_path)
        c1.put("cafebabe", {"verdict": "ok"})
        path = tmp_path / "cafebabe.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        c2 = ResultCache(cache_dir=tmp_path)  # fresh memory tier
        assert c2.get("cafebabe") is None
        assert c2.stats.corrupt_entries == 1
        assert not path.exists()  # dropped, will be recomputed

    def test_non_dict_entry_counts_corrupt(self, tmp_path):
        (tmp_path / "abad1dea.json").write_text("[1, 2, 3]")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get("abad1dea") is None
        assert c.stats.corrupt_entries == 1
        assert not (tmp_path / "abad1dea.json").exists()

    def test_corrupt_entry_warning_in_batch_summary(self, tmp_path):
        reqs = _subset_requests(2)
        BatchEngine(cache=ResultCache(cache_dir=tmp_path)).run(reqs)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{truncated")
        cache = ResultCache(cache_dir=tmp_path)
        report = BatchEngine(cache=cache).run(reqs)
        assert cache.stats.corrupt_entries == 2
        rendered = report.render()
        assert "corrupt cache entr" in rendered
        assert "bitrot" in rendered
        # the entries were recomputed, not served
        assert all(not v.from_cache for v in report.verdicts)


class TestReportDeterminism:
    def test_cold_warm_parallel_byte_identical(self, tmp_path):
        reqs = corpus_requests()
        cold_engine = BatchEngine(jobs=1, cache=ResultCache(cache_dir=tmp_path))
        cold = cold_engine.run(reqs)
        warm = cold_engine.run(reqs)  # memory-warm
        disk = BatchEngine(jobs=1, cache=ResultCache(cache_dir=tmp_path)).run(reqs)
        parallel = BatchEngine(jobs=2, cache=ResultCache()).run(reqs)
        assert cold.canonical_json() == warm.canonical_json()
        assert cold.canonical_json() == disk.canonical_json()
        assert cold.canonical_json() == parallel.canonical_json()
        # and the cache tiers were actually exercised
        assert warm.verdict("lu_pivot").from_cache
        assert disk.verdict("lu_pivot").from_cache
        assert not cold.verdict("lu_pivot").from_cache

    def test_canonical_json_excludes_run_metadata(self):
        report = BatchEngine().run(_subset_requests(3))
        doc = json.loads(report.canonical_json())
        for verdict in doc["verdicts"]:
            assert "seconds" not in verdict
            assert "from_cache" not in verdict
        full = json.loads(report.to_json())
        assert all("seconds" in v for v in full["verdicts"])
        assert doc["analyzer_version"] == analyzer_version()

    def test_verdicts_sorted_by_name(self):
        report = BatchEngine().run(reversed(_subset_requests(5)))
        names = [v.name for v in report.verdicts]
        assert names == sorted(names)


class TestEngineBehaviour:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BatchEngine().run(
                [AnalysisRequest("k", SCATTER), AnalysisRequest("k", SCATTER_CHANGED)]
            )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchEngine(jobs=0)

    def test_error_payload_instead_of_crash(self):
        report = BatchEngine().run(
            [AnalysisRequest("broken", "void f( {")]
        )
        v = report.verdict("broken")
        assert not v.ok
        assert "error" in v.payload
        # errors are cached and deterministic too
        again = BatchEngine(cache=ResultCache()).run(
            [AnalysisRequest("broken", "void f( {")]
        )
        assert report.canonical_json() == again.canonical_json()

    def test_single_request_matches_batch(self):
        req = AnalysisRequest("scatter", SCATTER)
        # an injected worker fault must land in both as the same failure
        for plan in (None, "worker.error:scatter:*"):
            with faults.injected(plan):
                single = BatchEngine().analyze(req)
                batch = BatchEngine().run([req]).verdict("scatter")
            assert single.payload == batch.payload
            assert batch.payload.get("failure") == (plan and "unexpected")

    def test_unparsable_source_degrades_to_error_row(self):
        # `repro batch broken.c` must report one error verdict, not
        # traceback out of request enumeration (found by CLI probing)
        reqs = requests_from_source("void broken( {", label="broken")
        assert [r.name for r in reqs] == ["broken"]
        report = BatchEngine().run(reqs)
        v = report.verdict("broken")
        assert not v.ok
        assert "ParseError" in v.payload["error"]

    def test_requests_from_source_multi_function(self):
        two = SCATTER + "\nvoid other(int a[], int n) { int i; for (i = 0; i < n; i++) { a[i] = i; } }\n"
        reqs = requests_from_source(two, label="unit")
        assert [r.name for r in reqs] == ["unit:other", "unit:scatter"]
        report = BatchEngine().run(reqs)
        assert report.verdict("unit:other").parallel_loops == ["L1"]
        assert report.verdict("unit:scatter").parallel_loops == []

    def test_warm_run_faster_than_cold(self, tmp_path, monkeypatch):
        from repro.analysis.framework import PassManager
        from repro.symbolic.expr import clear_memo_tables

        analyses = []
        real_run = PassManager.run

        def counting_run(self, *args, **kwargs):
            analyses.append(args[0].name)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(PassManager, "run", counting_run)
        reqs = corpus_requests()
        engine = BatchEngine(jobs=1, cache=ResultCache(cache_dir=tmp_path))
        clear_memo_tables()  # a cold run starts from cold memo tables too
        cold = engine.run(reqs)
        cold_analyses = len(analyses)
        warm = engine.run(reqs)
        # why the warm run is faster: every verdict is a cache hit, and
        # it runs no analysis at all
        assert cold_analyses >= len(reqs)
        assert all(v.from_cache for v in warm.verdicts)
        assert len(analyses) == cold_analyses
        assert warm.total_seconds < cold.total_seconds


class TestVerdictValidation:
    """`validate_parallel_verdicts`: oracle spot-checks of batch verdicts."""

    def test_corpus_verdicts_all_hold(self):
        from repro.service import validate_parallel_verdicts

        report = BatchEngine().run(corpus_requests())
        problems = validate_parallel_verdicts(report, seeds=(0,))
        assert problems == {}
        # it actually exercised kernels (the corpus has parallel verdicts
        # with input generators)
        assert any(v.parallel_loops for v in report.verdicts)

    def test_engines_agree_on_validation(self):
        from repro.service import validate_parallel_verdicts

        report = BatchEngine().run(
            r for r in corpus_requests() if r.name == "fig9_csr_product"
        )
        for engine in ("interp", "compiled"):
            assert validate_parallel_verdicts(report, seeds=(0,), engine=engine) == {}

    def test_unsound_verdict_is_flagged(self):
        from repro.service import validate_parallel_verdicts
        from repro.service.engine import KernelVerdict

        # forge a payload claiming the histogram counting loop (a genuine
        # output dependence) is parallel: the oracle must object
        report = BatchEngine().run(
            r for r in corpus_requests() if r.name == "histogram_serial"
        )
        forged = BatchEngine().run(
            r for r in corpus_requests() if r.name == "histogram_serial"
        )
        v = forged.verdicts[0]
        forged.verdicts[0] = KernelVerdict(
            v.name, {**v.payload, "parallel_loops": ["L1"]}
        )
        assert validate_parallel_verdicts(report, seeds=(0,)) == {}
        problems = validate_parallel_verdicts(forged, seeds=(0,))
        assert "histogram_serial" in problems
        assert "conflicts" in problems["histogram_serial"][0]
