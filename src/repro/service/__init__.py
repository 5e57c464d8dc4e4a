"""Batch corpus-analysis service.

This package turns the one-kernel-at-a-time library pipeline
(:func:`repro.parallelize`) into a **batch engine** that analyzes whole
corpora — the built-in figure/suite kernels plus user-supplied C sources
— with result caching and parallel workers.

Batch API
---------

::

    from repro.service import BatchEngine, ResultCache, corpus_requests

    engine = BatchEngine(jobs=4, cache=ResultCache(cache_dir=".repro-cache"))
    report = engine.run(corpus_requests())
    print(report.render())            # human-readable table
    print(report.canonical_json())    # deterministic machine-readable verdicts

:class:`BatchEngine.run` takes any iterable of
:class:`AnalysisRequest` (build them directly, or via
:func:`corpus_requests` / :func:`requests_from_source`) and returns a
:class:`BatchReport` whose ``canonical_json()`` is byte-identical across
cold, warm, and ``jobs=N`` runs — timings and cache metadata live only
in ``to_json()`` / ``render()``.

Cache-key scheme
----------------

Results are content-addressed (see :mod:`repro.service.cache`): the key
is ``sha256(analyzer_version ‖ method ‖ function_key)``, where
:func:`~repro.analysis.framework.function_key` is the content key every
whole-function table shares (function name, IR text, loop labels,
declarations, assertions).  Reformatting a source therefore hits the
cache; any semantic change, a different dependence method, different
assertions, or a change to the analyzer's sources misses it.  Storage
is an in-memory LRU plus an optional on-disk JSON store (one atomic,
schema-versioned file per key) shareable between processes and sessions.

Fault tolerance
---------------

Batches degrade **per kernel, never per batch**: per-kernel wall-clock
budgets (``BatchEngine(timeout=...)``) with an in-worker SIGALRM alarm
and a parent watchdog, retry-with-backoff for transient failures,
automatic pool respawn + requeue when a worker process dies, and
quarantine (a structured ``timeout``/``failed`` record) after
``max_failures`` infrastructure failures.  Every event lands in the
report's ``health`` section.  :mod:`repro.service.faults` is the seeded,
deterministic fault-injection harness (``repro batch --faults`` or
``faults.injected(...)``) that the chaos suite uses to prove all of the
above, plus the degradation ladder's fallback note channel
(``faults.note_fallback`` / ``faults.drain_fallback_notes``).

Command line
------------

``repro batch`` exposes the engine::

    repro batch                         # analyze the built-in corpus
    repro batch file1.c file2.c         # user-supplied sources
    repro batch --jobs 4 --cache-dir .repro-cache --json report.json
    repro batch --validate              # + oracle spot-check of PARALLEL verdicts

``--json -`` writes the full machine-readable report (verdicts +
timings + cache statistics) to stdout.  ``--validate`` re-checks every
PARALLEL verdict of a corpus kernel against the dynamic independence
oracle (:func:`validate_parallel_verdicts`, compiled runtime engine by
default) and fails the command on any soundness violation.
"""

from repro.service import faults
from repro.service.cache import CacheStats, ResultCache, analyzer_version, cache_key
from repro.service.engine import (
    AnalysisRequest,
    BatchEngine,
    BatchReport,
    KernelVerdict,
    corpus_requests,
    requests_from_source,
    validate_parallel_verdicts,
)

__all__ = [
    "AnalysisRequest",
    "BatchEngine",
    "BatchReport",
    "CacheStats",
    "KernelVerdict",
    "ResultCache",
    "analyzer_version",
    "cache_key",
    "corpus_requests",
    "faults",
    "requests_from_source",
    "validate_parallel_verdicts",
]
