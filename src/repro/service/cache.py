"""Content-addressed result cache for the batch analysis engine.

Cache keys are SHA-256 digests over everything that determines a
verdict:

* the **content key** of the function: the plan memo's
  :func:`~repro.analysis.framework.function_key` (function name, IR
  text, loop labels, declarations and the assertion environment's
  fingerprint) over the freshly built IR, whose text keeps the source's
  own loop pragmas because the payload's annotated C does — whitespace
  and comment changes in the original source therefore do not
  invalidate entries, while any semantic change does; a source the
  frontend rejects is keyed on its raw text instead;
* the **dependence method** (``gcd`` / ``banerjee`` / ``range`` /
  ``extended``);
* the **analyzer version** (:func:`analyzer_version`): the package
  version, :data:`CACHE_SCHEMA` and a **digest of the analysis source
  tree** (every ``.py`` file whose semantics feed a verdict: frontend,
  IR, symbolic, analysis, dependence, parallelizer, corpus, service).
  A change to any analysis layer, a new derivation rule included,
  therefore can never serve stale verdicts, and nothing has to be
  bumped by hand.

Storage is two-level: a bounded in-memory LRU (always on) and an
optional on-disk JSON store (one ``<key>.json`` file per entry).  Disk
entries are crash-safe: each is serialized into an *envelope*
``{"schema": CACHE_SCHEMA, "payload": ...}``, written to a temp file,
fsynced, and atomically renamed into place, so concurrent workers can
share a directory and a crash mid-write can never leave a half-entry
under a live key.  On read, corrupted or unreadable entries count as
``corrupt_entries`` misses and are removed; well-formed entries whose
schema header does not match count as ``schema_mismatches`` misses (an
old-layout cache directory quietly rebuilds itself).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.service import faults

#: Schema of the on-disk entry envelope + verdict payload layout (the
#: analysis semantics themselves are covered by the tree digest).
#: Bumped to 3 when entries gained the schema-header envelope, to 4
#: when payloads lost their ``pipeline`` field.
CACHE_SCHEMA = 4

#: Package subtrees whose sources determine analysis verdicts.  The
#: runtime engines, benchmarks and evaluation tables are deliberately
#: excluded — they consume verdicts, they do not produce them.
_VERDICT_SUBTREES = (
    "analysis",
    "corpus",
    "dependence",
    "frontend",
    "ir",
    "parallelizer",
    "service",
    "symbolic",
)


def _analysis_tree_digest() -> str:
    """SHA-256 over the verdict-determining source files of the package
    (sorted relative path + content per file)."""
    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    files: list[Path] = [p for sub in _VERDICT_SUBTREES for p in (root / sub).rglob("*.py")]
    files += [root / "__init__.py", root / "errors.py"]
    for path in sorted(files):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\x00")
        try:
            h.update(path.read_bytes())
        except OSError:
            continue
        h.update(b"\x00")
    return h.hexdigest()


_VERSION: "str | None" = None  # sources cannot change within a process


def analyzer_version() -> str:
    """The full analyzer fingerprint: package version, payload schema
    and source tree digest, computed once per process."""
    global _VERSION
    if _VERSION is None:
        _VERSION = (
            f"{repro.__version__}+schema{CACHE_SCHEMA}"
            f"+tree.{_analysis_tree_digest()[:16]}"
        )
    return _VERSION


def cache_key(
    content: str, method: str = "extended", version: "str | None" = None
) -> str:
    """Stable content hash of one analysis task: ``content`` is the
    function's content key, ``version`` defaults to the live
    :func:`analyzer_version` fingerprint."""
    h = hashlib.sha256()
    for part in (version if version is not None else analyzer_version(), method, content):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class CacheStats:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Disk writes that failed (read-only/full cache dir): the batch
    #: still succeeds but silently degrades to recompute-every-time, so
    #: the count is surfaced in ``repro batch`` summaries.
    write_errors: int = 0
    #: Disk entries dropped because they were unreadable or not valid
    #: JSON — lets fleet-shared cache directories detect bitrot.
    corrupt_entries: int = 0
    #: Well-formed disk entries dropped because their schema header did
    #: not match :data:`CACHE_SCHEMA` (e.g. a cache dir written by an
    #: older layout) — recomputed, not an error.
    schema_mismatches: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def to_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "write_errors": self.write_errors,
            "corrupt_entries": self.corrupt_entries,
            "schema_mismatches": self.schema_mismatches,
        }


@dataclass
class ResultCache:
    """In-memory LRU plus optional on-disk JSON store."""

    cache_dir: "str | Path | None" = None
    max_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- lookup -------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return hit
        payload = self._disk_get(key)
        if payload is not None:
            self.stats.disk_hits += 1
            self._memory_put(key, payload)
            return payload
        self.stats.misses += 1
        return None

    def put(self, key: str, payload: dict) -> None:
        self.stats.stores += 1
        self._memory_put(key, payload)
        self._disk_put(key, payload)

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop memory entries (disk entries, if any, are kept)."""
        self._memory.clear()

    # -- memory LRU -----------------------------------------------------------
    def _memory_put(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    # -- disk store -----------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert isinstance(self.cache_dir, Path)
        return self.cache_dir / f"{key}.json"

    def _disk_get(self, key: str) -> dict | None:
        if self.cache_dir is None:
            return None
        path = self._path(key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # corrupted entry: drop it, count it, and recompute
            self.stats.corrupt_entries += 1
            self._drop(path)
            return None
        if not isinstance(doc, dict):
            self.stats.corrupt_entries += 1
            self._drop(path)
            return None
        if doc.get("schema") != CACHE_SCHEMA or not isinstance(doc.get("payload"), dict):
            # a well-formed entry from another layout: rebuild, don't alarm
            self.stats.schema_mismatches += 1
            self._drop(path)
            return None
        return doc["payload"]

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _disk_put(self, key: str, payload: dict) -> None:
        if self.cache_dir is None:
            return
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        serialized = json.dumps(
            {"schema": CACHE_SCHEMA, "payload": payload}, sort_keys=True, indent=1
        )
        if faults.fires("cache.corrupt", key):
            serialized = serialized[: len(serialized) // 2]
        try:
            faults.maybe_fail("cache.write", key)
            tmp.write_text(serialized)
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            tmp.replace(path)
        except OSError:
            # A read-only or full cache dir must not fail the batch, but
            # it must not be silent either: every future run recomputes.
            self.stats.write_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
