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

Everything derived from a whole function (the analysis result's key,
the plan memo, the parallel engine's schedule cache, the batch result
cache) keys on :func:`function_key`: what the analysis reads of the
function and its initial facts, and nothing kept by hand.

The combined state of all domains is a
:class:`~repro.analysis.env.PropertyEnv`.  The CI gate
``benchmarks/analysis_equivalence.py`` holds it, the Section 3.5 trace
and every verdict equal to a recorded snapshot of the corpus and the
fuzz seeds.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
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
from repro.ir.nodes import (
    IExpr,
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
    walk_stmts,
)
from repro.ir.printer import expr_to_c, function_to_c, stmt_to_c
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
    their hands off the other domains' slices; the manager delivers the
    events in program order.
    """

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


def nest_cache_stats() -> dict[str, int]:
    """Constant zeros: analysis keeps no per-nest cache.  The one reader
    is perfbench's traced snapshot (``analysis.nest_hit_rate``)."""
    return {"hits": 0, "misses": 0, "entries": 0}


def _dim_key(dim: IExpr | None) -> str:
    """A declared dimension as analysis reads it: the printed size, or
    ``[]`` when unsized (IR nodes carry no source position)."""
    return "[]" if dim is None else f"[{expr_to_c(dim)}]"


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


def function_key(func: IRFunction, assumed: str, text: str | None = None) -> str:
    """Content key of a whole-function computation: everything an
    analysis of ``func`` reads, and so everything a plan or lowered form
    derived from it reads besides the caller's own options.

    The parts: the function name, the IR text printed *without* loop
    pragmas (pragmas are planner output, never input — annotating a
    function leaves its key alone), the loop labels (not part of the
    printed text), the symbol table, and ``assumed``, the
    :func:`assumed_fingerprint` of the initial environment.  The
    analyzer's own code is no part of it: it changes only between
    processes, and every in-memory table starts empty in a new one (the
    batch service's disk cache adds a digest of the analysis sources,
    see :func:`repro.service.cache.analyzer_version`).  ``text`` is
    ``function_to_c(func, pragmas=False)`` when the caller already
    printed it.  Shared by the plan memo
    (:mod:`repro.parallelizer.planner`), :class:`AnalysisResult.key
    <repro.analysis.driver.AnalysisResult>`, the parallel engine's
    schedule cache and the batch service's result cache, which passes
    the print *with* the source's own pragmas because its payload (the
    annotated C) keeps them."""
    if text is None:
        text = function_to_c(func, pragmas=False)
    h = hashlib.sha256()
    for part in (
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
    program-order traversal (loops summarized inside-out and collapsed)."""

    def __init__(self, domains: Sequence[AbstractDomain]) -> None:
        if not domains:
            raise AnalysisError("PassManager needs at least one domain")
        self.domains = list(domains)

    # -- entry ----------------------------------------------------------------
    def run(self, func: IRFunction, initial_env: PropertyEnv | None = None):
        from repro.analysis.driver import AnalysisResult

        env = initial_env.snapshot() if initial_env is not None else PropertyEnv()
        result = AnalysisResult(func=func)
        result.assumed = assumed_fingerprint(initial_env)
        result.key = function_key(func, result.assumed)
        ctx = PassContext(func=func, env=env, result=result, log=result.provenance)
        for d in self.domains:
            d.setup(ctx)
        self._walk(func.body, ctx)
        result.final_env = env
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
            for st in walk_stmts(stmts):
                if isinstance(st, SLoop):
                    self._summarize_nest(st, ctx.env.snapshot(), ctx)

    # -- loops ------------------------------------------------------------------
    def _loop(self, loop: SLoop, ctx: PassContext) -> None:
        summary = self._summarize_nest(loop, ctx.env.snapshot(), ctx)
        for d in self.domains:
            d.widen_loop(loop, summary, ctx)

    def _summarize_nest(
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
        self._summarize_inner(loop.body, inner_env, collapsed, ctx)
        effect = Phase1Analyzer(ctx.func, env_here, collapsed).run(loop)
        result.effects[loop.label] = effect
        result.phase_order.append((1, loop.label))
        summary = aggregate(loop, effect, env_here)
        for d in self.domains:
            d.refine_summary(loop, effect, summary, env_here, ctx)
        result.summaries[loop.label] = summary
        result.phase_order.append((2, loop.label))
        return summary

    def _summarize_inner(
        self,
        stmts: list[Stmt],
        inner_env: PropertyEnv,
        collapsed: dict[int, LoopSummary],
        ctx: PassContext,
    ) -> None:
        """Summarize the outermost loops inside ``stmts`` (a nest's
        body) into ``collapsed``, each from a copy of ``inner_env``."""
        for s in stmts:
            if isinstance(s, SLoop):
                collapsed[id(s)] = self._summarize_nest(s, inner_env.snapshot(), ctx)
            elif isinstance(s, SWhile):
                continue  # opaque; Phase 1 havocs it
            else:
                for b in s.blocks():
                    self._summarize_inner(b, inner_env, collapsed, ctx)
