"""The property-inference pass framework.

The analysis is organized as a set of **abstract domains** run by a
single :class:`PassManager` traversal of the IR.  A domain owns one
slice of the program state (scalar value ranges, array property records,
…) and reacts to the traversal's events through the classic dataflow
trio:

* ``transfer_*`` — advance the state over a straight-line statement;
* ``join``       — weaken the state at a control-flow merge (both paths
  may execute: keep only what every path guarantees);
* ``widen_loop`` — collapse a summarized loop (Phase 1 + Phase 2) into
  the state as if it were one compound assignment.

Loop summarization itself (the paper's two phases) is shared machinery
the manager runs once per loop; domains consume the resulting
:class:`~repro.analysis.phase2.LoopSummary` and may *refine* it through
``refine_summary`` — the extension point where new derivation rules
(permutation scatter, guarded counters, …) live without touching the
traversal.

Every fact-changing event is recorded in a
:class:`~repro.analysis.provenance.ProvenanceLog`, so each verdict can
be traced back to the statements that established it and the merge
points that weakened it (``repro explain``).

The combined state of all domains is a
:class:`~repro.analysis.env.PropertyEnv`, kept identical in content to
the frozen legacy walker (:mod:`repro.analysis.legacy`) — the CI
equivalence gate holds the two engines verdict-equal modulo the
framework-only derivation rules.
"""

from __future__ import annotations

import abc
import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.env import PropertyEnv
from repro.analysis.phase1 import (
    IterationEffect,
    Phase1Analyzer,
    _modified_scalars,
    _written_arrays,
)
from repro.analysis.phase2 import LoopSummary, aggregate
from repro.analysis.provenance import ProvenanceLog
from repro.errors import AnalysisError
from repro.frontend.c_ast import IntLit
from repro.frontend.printer import expr_to_c
from repro.ir.nodes import (
    IRFunction,
    IVar,
    SAssign,
    SBreak,
    SCall,
    SContinue,
    SIf,
    SLoop,
    SReturn,
    SWhile,
    Stmt,
)
from repro.symbolic.ranges import SymRange


@dataclass
class PassContext:
    """Shared state the manager threads through every domain hook."""

    func: IRFunction
    env: PropertyEnv
    result: "object"  # AnalysisResult (import cycle: driver imports us)
    log: ProvenanceLog


class AbstractDomain(abc.ABC):
    """One composable analysis domain.

    Subclasses own a slice of the :class:`PropertyEnv` and must keep
    their hands off the other domains' slices; the manager guarantees
    the event order matches the legacy walker's program-order semantics.
    ``version`` feeds the pass-pipeline identity used in cache keys —
    bump it whenever the domain's semantics change.
    """

    name: str = "abstract"
    version: int = 1

    def setup(self, ctx: PassContext) -> None:
        """Called once before the walk (seed provenance for assertions)."""

    @abc.abstractmethod
    def transfer_assign(self, stmt: SAssign, value: SymRange, ctx: PassContext) -> None:
        """Advance over a straight-line assignment (``value`` is the
        statically evaluated RHS range)."""

    def transfer_call(self, killed_arrays: Sequence[str], site: str, ctx: PassContext) -> None:
        """Advance over an opaque call that may write ``killed_arrays``."""
        self.join((), killed_arrays, site, ctx)

    @abc.abstractmethod
    def join(
        self,
        modified_scalars: Iterable[str],
        written_arrays: Iterable[str],
        site: str,
        ctx: PassContext,
    ) -> None:
        """Control-flow merge: weaken to what every path guarantees
        (kill everything a branch may write)."""

    @abc.abstractmethod
    def widen_loop(self, loop: SLoop, summary: LoopSummary, ctx: PassContext) -> None:
        """Collapse a summarized loop into the state."""

    def refine_summary(
        self,
        loop: SLoop,
        effect: IterationEffect,
        summary: LoopSummary,
        env_here: PropertyEnv,
        ctx: PassContext,
    ) -> None:
        """Optional: strengthen a freshly aggregated summary (derivation
        rules that need the per-iteration effect)."""


def pipeline_identity(
    domains: Sequence[AbstractDomain | type[AbstractDomain]],
) -> str:
    """Stable name of a domain pipeline (part of the cache fingerprint);
    ``domains`` may be instances or their classes."""
    return "passes[" + ",".join([f"{d.name}@{d.version}" for d in domains]) + "]"


# --------------------------------------------------------------------------
# incremental nest cache
# --------------------------------------------------------------------------
#
# Summarizing a loop nest is a pure function of (pipeline identity, the
# nest's IR text + labels, the function's declarations, the property
# environment at the nest's entry).  The text is printed without loop
# pragmas: the planner writes those, so re-analyzing an annotated
# function must still hit.  The manager fingerprints that tuple
# per nest and replays the recorded outcome on a hit, so re-analyzing a
# function re-runs Phase 1/2 only for the nests whose fingerprint
# changed — an edit to one loop leaves its siblings' summaries cached.
# The cache is per-process and never serialized; the on-disk
# ResultCache (service layer) sits underneath it at whole-request
# granularity.  Opt out with REPRO_INCREMENTAL=0, which also turns off
# the planner's whole-function plan memo (AnalysisResult.key stays None).


@dataclass
class _NestEntry:
    """Everything one ``_summarize_nest`` call wrote, keyed for replay."""

    env_before: list[tuple[str, PropertyEnv]] = field(default_factory=list)
    effects: list = field(default_factory=list)  # (label, IterationEffect)
    summaries: list = field(default_factory=list)  # (label, LoopSummary)
    phase_order: list[tuple[int, str]] = field(default_factory=list)
    provenance: list[tuple[str, str, str, str, str]] = field(default_factory=list)
    root_summary: "LoopSummary | None" = None


_NEST_CACHE: dict[bytes, _NestEntry] = {}
_NEST_CACHE_LIMIT = 4096
_nest_stats = {"hits": 0, "misses": 0}


def nest_cache_stats() -> dict[str, int]:
    return {**_nest_stats, "entries": len(_NEST_CACHE)}


def clear_nest_cache() -> None:
    _NEST_CACHE.clear()
    _nest_stats["hits"] = 0
    _nest_stats["misses"] = 0


# Cold-run accounting: the nest cache participates in the central memo
# registry so clear_memo_tables()/memo_stats() see it like any other.
from repro.symbolic.expr import register_memo_table as _register_memo_table

_register_memo_table("framework.nest", _NEST_CACHE.__len__, clear_nest_cache)


def incremental_enabled() -> bool:
    """Nest-level incremental re-analysis (on unless REPRO_INCREMENTAL=0)."""
    return os.environ.get("REPRO_INCREMENTAL", "1") != "0"


def _nest_labels(loop: SLoop) -> list[str]:
    """Labels of every normalized loop in the nest, pre-order."""
    labels: list[str] = []

    def visit(s: Stmt) -> None:
        if isinstance(s, SLoop):
            labels.append(s.label)
        for b in s.blocks():
            for st in b:
                visit(st)

    visit(loop)
    return labels


def _dim_key(dim: object) -> str:
    """A declared dimension as analysis reads it: ``[16]`` for a literal
    size, the printed C of a size expression, ``[]`` when unsized —
    never the source position the parser attached to it."""
    if dim is None:
        return "[]"
    if isinstance(dim, IntLit):
        return f"[{dim.value}]"
    return f"[{expr_to_c(dim)}]"


def _symtab_fingerprint(func: IRFunction) -> str:
    """Every declaration in scope, by what analysis reads of it: name,
    element type, the param/global flags and the dimensions."""
    infos: dict[str, str] = {}
    tab = func.symtab
    while tab is not None:
        for name, info in tab.vars.items():
            if name not in infos:  # innermost declaration wins
                infos[name] = (
                    f"{info.elem_type.value}{'p' if info.is_param else ''}"
                    f"{'g' if info.is_global else ''}"
                    + "".join(_dim_key(d) for d in info.dims)
                )
        tab = tab.parent
    return ";".join(f"{n}={infos[n]}" for n in sorted(infos))


def assumed_fingerprint(env: PropertyEnv | None) -> str:
    """Fingerprint of the asserted facts an analysis starts from
    (``""`` for none) — the ``assumed`` part of :func:`function_key`."""
    return env.fingerprint() if env is not None else ""


def function_key(
    func: IRFunction, pipeline: str, assumed: str, text: str | None = None
) -> str:
    """Content key of a whole-function computation: everything an
    analysis of ``func`` reads, and so everything a plan or lowered form
    derived from it reads besides the caller's own options.

    The parts: the pass-pipeline identity (a domain version bump
    invalidates), the function name, the IR text printed *without* loop
    pragmas (pragmas are planner output, never input — annotating a
    function leaves its key alone), the loop labels (not part of the
    printed text), the symbol table, and ``assumed``, the
    :func:`assumed_fingerprint` of the initial environment.  ``text`` is
    ``function_to_c(func, pragmas=False)`` when the caller already
    printed it.  Shared by the plan memo
    (:mod:`repro.parallelizer.planner`), :class:`AnalysisResult.key
    <repro.analysis.driver.AnalysisResult>` and the parallel engine's
    schedule cache."""
    from repro.ir.printer import function_to_c

    if text is None:
        text = function_to_c(func, pragmas=False)
    h = hashlib.sha256()
    for part in (
        pipeline,
        func.name,
        text,
        ",".join(l.label for l in func.loops()),
        _symtab_fingerprint(func),
        assumed,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# --------------------------------------------------------------------------
# the manager
# --------------------------------------------------------------------------


def _site_of(s: Stmt) -> str:
    from repro.ir.printer import expr_to_c, stmt_to_c

    if isinstance(s, SAssign):
        return stmt_to_c(s).strip()
    if isinstance(s, SIf):
        return f"if ({expr_to_c(s.cond)})"
    if isinstance(s, SWhile):
        return f"while ({expr_to_c(s.cond)})"
    if isinstance(s, SLoop):
        return f"loop {s.label}"
    return stmt_to_c(s).strip()


class PassManager:
    """Runs a pipeline of abstract domains over a function in one
    program-order traversal (loops summarized inside-out and collapsed,
    exactly like the legacy walker)."""

    def __init__(
        self, domains: Sequence[AbstractDomain], incremental: bool | None = None
    ) -> None:
        if not domains:
            raise AnalysisError("PassManager needs at least one domain")
        self.domains = list(domains)
        self.incremental = (
            incremental_enabled() if incremental is None else incremental
        )

    @property
    def identity(self) -> str:
        return pipeline_identity(self.domains)

    # -- entry ----------------------------------------------------------------
    def run(self, func: IRFunction, initial_env: PropertyEnv | None = None):
        from repro.analysis.driver import AnalysisResult

        env = initial_env.snapshot() if initial_env is not None else PropertyEnv()
        result = AnalysisResult(func=func, engine="passes")
        if self.incremental:
            result.assumed = assumed_fingerprint(initial_env)
            result.key = function_key(func, self.identity, result.assumed)
        ctx = PassContext(func=func, env=env, result=result, log=result.provenance)
        for d in self.domains:
            d.setup(ctx)
        self._walk(func.body, ctx)
        result.final_env = env
        result.pipeline = self.identity
        return result

    # -- traversal ------------------------------------------------------------
    def _walk(self, stmts: list[Stmt], ctx: PassContext) -> None:
        for s in stmts:
            self._step(s, ctx)

    def _step(self, s: Stmt, ctx: PassContext) -> None:
        from repro.analysis.collapse import eval_static

        if isinstance(s, SAssign):
            value = eval_static(s.value, ctx.env)
            for d in self.domains:
                d.transfer_assign(s, value, ctx)
        elif isinstance(s, SIf):
            # flow-insensitive at statement level: both branches may
            # execute; merge = kill what either writes, keep the rest
            site = _site_of(s)
            for block in (s.then, s.other):
                self._merge_block(block, site, ctx, analyze_loops=True)
        elif isinstance(s, SLoop):
            self._loop(s, ctx)
        elif isinstance(s, SWhile):
            self._merge_block(s.body, _site_of(s), ctx, analyze_loops=False)
        elif isinstance(s, SCall):
            killed = [
                a.name
                for a in s.call.args
                if isinstance(a, IVar) and ctx.func.symtab.is_array(a.name)
            ]
            site = _site_of(s)
            for d in self.domains:
                d.transfer_call(killed, site, ctx)
        elif isinstance(s, (SBreak, SContinue, SReturn)):
            pass
        else:
            raise AnalysisError(f"pass manager cannot handle {s!r}")

    def _merge_block(
        self, stmts: list[Stmt], site: str, ctx: PassContext, analyze_loops: bool
    ) -> None:
        mods = _modified_scalars(stmts, {})
        arrays = _written_arrays(stmts)
        for d in self.domains:
            d.join(mods, arrays, site, ctx)
        if analyze_loops:
            # still summarize nested loops so they can be dependence-
            # tested (the post-kill environment is sound at their entry)
            def visit(ss: list[Stmt]) -> None:
                for st in ss:
                    if isinstance(st, SLoop):
                        self._summarize_nest(st, ctx.env.snapshot(), ctx)
                    for b in st.blocks():
                        visit(b)

            visit(stmts)

    # -- loops ------------------------------------------------------------------
    def _loop(self, loop: SLoop, ctx: PassContext) -> None:
        summary = self._summarize_nest(loop, ctx.env.snapshot(), ctx)
        for d in self.domains:
            d.widen_loop(loop, summary, ctx)

    def _summarize_nest(
        self, loop: SLoop, env_here: PropertyEnv, ctx: PassContext
    ) -> LoopSummary:
        if not self.incremental:
            return self._summarize_impl(loop, env_here, ctx)
        key = self._nest_fingerprint(loop, env_here, ctx.func)
        entry = _NEST_CACHE.get(key)
        result = ctx.result
        if entry is not None:
            _nest_stats["hits"] += 1
            for label, env in entry.env_before:
                result.env_before[label] = env.snapshot()
            for label, eff in entry.effects:
                result.effects[label] = eff
            for label, summ in entry.summaries:
                result.summaries[label] = summ
            result.phase_order.extend(entry.phase_order)
            for subject, action, site, rule, detail in entry.provenance:
                # re-record() so seq numbers renumber into this run's log
                ctx.log.record(subject, action, site, rule, detail)
            return entry.root_summary
        _nest_stats["misses"] += 1
        po_start = len(result.phase_order)
        log_start = len(ctx.log.steps)
        summary = self._summarize_impl(loop, env_here, ctx)
        labels = _nest_labels(loop)
        if len(_NEST_CACHE) >= _NEST_CACHE_LIMIT:
            _NEST_CACHE.clear()
        _NEST_CACHE[key] = _NestEntry(
            env_before=[(l, result.env_before[l].snapshot()) for l in labels],
            effects=[(l, result.effects[l]) for l in labels],
            summaries=[(l, result.summaries[l]) for l in labels],
            phase_order=list(result.phase_order[po_start:]),
            provenance=[
                (s.subject, s.action, s.site, s.rule, s.detail)
                for s in ctx.log.steps[log_start:]
            ],
            root_summary=summary,
        )
        return summary

    def _nest_fingerprint(
        self, loop: SLoop, env_here: PropertyEnv, func: IRFunction
    ) -> bytes:
        from repro.ir.printer import stmt_to_c

        h = hashlib.sha256()
        # Labels are not part of the printed text, and effects/summaries
        # key on them — so two textually identical nests at different
        # positions must not share an entry.
        for part in (
            self.identity,
            _symtab_fingerprint(func),
            ",".join(_nest_labels(loop)),
            stmt_to_c(loop, pragmas=False),  # pragmas are planner output
            env_here.fingerprint(),
        ):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.digest()

    def _summarize_impl(
        self, loop: SLoop, env_here: PropertyEnv, ctx: PassContext
    ) -> LoopSummary:
        result = ctx.result
        result.env_before[loop.label] = env_here.snapshot()
        # inner loops see the entry environment minus anything the outer
        # body writes (sound w.r.t. re-entry on later outer iterations)
        inner_env = env_here.snapshot()
        for name in _modified_scalars(loop.body, {}):
            inner_env.kill_scalar(name)
        for arr in _written_arrays(loop.body):
            inner_env.kill_array(arr)
        collapsed: dict[int, LoopSummary] = {}

        def summarize_inner(stmts: list[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, SLoop):
                    collapsed[id(s)] = self._summarize_nest(s, inner_env.snapshot(), ctx)
                elif isinstance(s, SWhile):
                    continue  # opaque; Phase 1 havocs it
                else:
                    for b in s.blocks():
                        summarize_inner(b)

        summarize_inner(loop.body)
        effect = Phase1Analyzer(ctx.func, env_here, collapsed).run(loop)
        result.effects[loop.label] = effect
        result.phase_order.append((1, loop.label))
        summary = aggregate(loop, effect, env_here)
        for d in self.domains:
            d.refine_summary(loop, effect, summary, env_here, ctx)
        result.summaries[loop.label] = summary
        result.phase_order.append((2, loop.label))
        return summary
