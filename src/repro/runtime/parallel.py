"""The ``"parallel"`` engine: execute PARALLEL-verdict loops for real.

Where the compiled engine turns a plan into a pragma, this engine turns
it into work distribution.  At compile time each loop the planner marks
PARALLEL is paired with a validated :class:`ParallelSchedule` (see
:mod:`repro.parallelizer.schedule`) and a static *cost class*: does the
compiled serial closure have a whole-array fast path (``vector``) or
not (``scalar``)?  The outer loop of a perfect nest whose inner loop
has a few constant trips is ``vector`` class too: the fast path runs
the whole nest as one vector activation (one ``vec_activations``).

The dispatch decision is folded into the loop's own closure: a
scheduled loop lowers to the compiled engine's loop closure plus a
dispatch hook (:meth:`_ScheduledLoop.dispatch`).  Each activation
evaluates its bounds once and computes its trip count ``m``; only when
``m`` reaches the run's ``rt.dispatch_min`` does the closure call the
hook, which may still hand the activation back (it answers
:data:`~repro.runtime.compiler._SERIAL`).  Otherwise the closure
iterates it on the spot.  The run state (worker
count, thresholds, counters, leased segments) lives on the run's
:class:`~repro.runtime.compiler._Rt`, not in the environment, and is
built only by the first activation that reaches the hook (see
:meth:`ParallelFunction.run`).

Every path threshold is a constant (:data:`MP_MIN_TRIPS`,
:data:`VECTOR_MIN_TRIPS`, :data:`INSPECT_MIN_TRIPS`), each next to the
measurement it came from, so which path an activation takes depends on
the loop and its trip count alone, never on what ran earlier in the
process.  An explicit ``mp_min_trips`` replaces all three.  An
activation takes one of three paths:

* **the compiled serial closure** — when the activation cannot reach
  the fabric (``workers < 2``, no ``fork`` start method, a traced run,
  or fewer than ``mp_min_trips`` trips) it runs exactly as the compiled
  engine runs it.  No rollback point, no chunk split, no reduction
  replay, and on the hybrid tier no inspection: a serial run needs no
  proof of independence.  Below the fabric threshold the parallel
  engine therefore costs what ``compiled`` costs.
* **the compiled vector path** — a ``vector``-class activation with
  fewer than :data:`VECTOR_MIN_TRIPS` trips stays on the serial
  closure's NumPy fast path even past :data:`MP_MIN_TRIPS`: a 2-way
  split of whole-array work cannot pay for the dispatch and the
  shared-memory copies below that constant.
  ``counters["vector_kept"]`` counts these activations.  An explicit
  ``mp_min_trips`` sends every class to the fabric.
* **multiprocessing over the persistent fabric** — for long
  activations with ``workers >= 2``, the arrays the function's
  scheduled loops reference move into shared-memory segments *leased
  from the process-wide arena* (other arrays stay put) and chunks are
  dispatched to the process-wide worker pool
  (:mod:`repro.runtime.fabric`).  The warm path pays neither fork nor
  segment allocation: the pool survives across ``execute()`` calls and
  the arena recycles its segments, so a steady-state workload only
  pays copy-in/copy-out plus task pickling.  Workers rebuild chunk
  closures from the task's shipped source text + schedule summary and
  cache them by content fingerprint (inheriting closures through fork
  only works for a pool created after the arrays moved — i.e. a pool
  per call, which is exactly the overhead this design removes).  The
  equivalence suite forces this path on every fuzz seed and corpus
  kernel (``workers=2, mp_min_trips=1``), so chunking, privatization,
  and the reduction replay stay pinned to the interpreter.

Sequential semantics are preserved *byte-identically*:

* **privates** are written-before-read on every iteration (the
  privatization criterion), so the final value after the loop is
  whatever the last chunk computed — identical to sequential.
* **reductions** come back as one pack per slot per chunk, never as one
  tuple per iteration.  The chunk compiler rewrites every update
  ``x = x ⊕ e`` into an append of ``e`` to its slot's ordered list; the
  worker packs that list (see :func:`_pack`) as an exact ``min``/``max``
  partial, as a float64 array the parent replays with
  ``ufunc.accumulate``, or, for everything else (integer ⊕, mixed
  types, NaN events), as the ordered list itself.  The parent folds the
  packs in chunk order (:func:`_replay`) to the value *and type* the
  sequential loop computes; a pack it cannot fold exactly replays the
  activation serially.
* **aliasing** steps aside: an activation whose arrays may share memory
  (two names bound to one array, or overlapping views) stays off the
  fabric, and so does every activation of a run whose arrays overlap
  (separate segments would split one memory in two).
* **failures roll back**: each fabric dispatch first takes the
  runtime's one :func:`~repro.runtime.compiler.rollback_point` — a copy
  of each array object the schedule writes, every binding, and the
  step counters; any error during parallel execution restores all
  three and replays the loop serially, reproducing the sequential
  error (and its partial effects) exactly.  The hook hands the replay
  back to the loop closure, so it never re-enters the dispatch hook.
  Program errors replay silently, like the compiled engine's
  vectorized-path fallback; *infrastructure* failures (worker crash,
  shared-memory setup, an injected fault) additionally record an
  ``engine:compiled`` fallback note for batch health sections.

Fault sites: ``engine.parallel.worker`` fires at chunk dispatch (keyed
by function name), ``engine.parallel.shm`` fires during shared-memory
setup, ``engine.parallel.arena`` fires at segment lease time, and
``engine.parallel.pool_reuse`` fires when a *warm* pool is about to be
reused (the injected failure also invalidates the pool, so recovery
exercises respawn-on-death) — all land on the compiled serial rung of
the ladder.

**Dispatch tiers.**  The default ``"static"`` tier executes exactly the
loops the planner *proves* parallel.  The ``"hybrid"`` tier adds the
static → inspector → executor pipeline of ROADMAP direction 3: loops
whose verdict is *unknown* (the dependence was not refuted — never
loops rejected for loop-carried scalars) additionally carry an
:class:`~repro.runtime.inspector.InspectorPlan` lowered from the
access set the planner's dependence test collected.  Only an
activation bound for the fabric is inspected (so a ``vector``-class
activation the cost class keeps serial is not): it must first reach
:data:`INSPECT_MIN_TRIPS` trips (or the explicit ``mp_min_trips``), and
then pass the content-addressed inspection itself; only a *passing*
inspection lets the activation onto the fabric, through the same
validated schedule machinery as the static tier.  A refusing,
unevaluable, or faulted inspection (sites ``engine.inspector.cache`` /
``engine.inspector.predicate``) runs the loop serially — a wrong
parallel dispatch is impossible by construction, only a slow serial
one.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.framework import assumed_fingerprint, function_key
from repro.errors import InfrastructureError, InterpreterError, ReproError
from repro.ir.nodes import IArrayRef, IRFunction, IVar, SAssign, SLoop, Stmt
from repro.ir.printer import function_to_c
from repro.parallelizer.planner import plan_function
from repro.parallelizer.privatization import reduction_update
from repro.parallelizer.schedule import ParallelSchedule, derive_schedule
from repro.runtime import fabric as _fabric
from repro.runtime import inspector as _inspector
from repro.runtime.compiler import (
    _NEVER,
    _SERIAL,
    RunStats,
    TraceBuffer,
    _Compiler,
    _overlap,
    _Rt,
    _Space,
    rollback_point,
)

# --------------------------------------------------------------------------
# path thresholds
# --------------------------------------------------------------------------
#
# Constants, not measurements: the path an activation takes depends on
# the loop and its trip count alone.  An explicit ``mp_min_trips``
# replaces all three.  The costs below were measured on a 2-vCPU x86-64
# host (NumPy 2.4).

#: Below this many trips an activation runs on the compiled serial
#: closure (a run raises it to 4 trips per worker where that is more).
#: A warm fabric dispatch costs 0.5–4.4 ms (535 µs over the dispatches
#: of 60 ``exec_large`` benchmark ops, 4383 µs in ``repro bench``'s
#: dispatch-overhead probe).  On ``par_private_branch``, whose compiled
#: closure runs 1.5 µs per trip, a warm 2-way dispatch breaks even at
#: about 700 trips; at 256 it takes 825 µs against the closure's 372.
#: The constant sits below that break-even; the equivalence, chaos and
#: benchmark shapes are sized around it.
MP_MIN_TRIPS = 256

#: On the hybrid tier an activation bound for the fabric is inspected
#: only from this many trips; a shorter one runs serially, uninspected
#: (``counters["inspection_skips"]``).  A cold inspection costs
#: 126–821 µs over forced inspections of every corpus kernel (440 µs on
#: ``exec_large``), on top of the dispatch: the body time of another
#: 80–550 trips at the per-trip cost above.
INSPECT_MIN_TRIPS = 512

#: The static cost class of a loop with a whole-array fast path: below
#: this trip count it stays on the compiled vector path.  Per trip:
#:
#: * the vector path costs 29–69 ns on a gather and 16–21 ns on a
#:   scatter;
#: * copying the loop's arrays into and out of shared memory costs
#:   5–9 ns;
#: * a warm dispatch costs about 1.1 ms.
#:
#: A 2-way split of ``m`` trips saves ``m × (vector/2 − copy)``, which
#: exceeds the dispatch cost from about 10^5 trips for a gather and
#: 4×10^5 for a scatter.  The constant sits above both.
VECTOR_MIN_TRIPS = 2**20

#: dispatch tiers of this engine: ``"static"`` executes proven-parallel
#: loops only; ``"hybrid"`` adds runtime-inspected unknown-verdict loops
TIERS = ("static", "hybrid")

#: reserved keys of a chunk's environment (never valid mini-C identifiers)
_CLB = "__par.chunk.lb__"
_CUB = "__par.chunk.ub__"


def _events_key(slot: int) -> str:
    """Reserved key of one reduction slot's event list in a chunk env."""
    return f"__par.events.{slot}__"


_WORKERS_ENV_VAR = "REPRO_WORKERS"

#: both fixed for the life of the process, so read once
_CPU_COUNT = os.cpu_count() or 1
_HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count: ``$REPRO_WORKERS`` if set, else ``os.cpu_count()``."""
    raw = os.environ.get(_WORKERS_ENV_VAR)
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n >= 1:
            return n
    return _CPU_COUNT


def _is_program_error(exc: BaseException) -> bool:
    """A verdict about the *program* (OOB access, step budget, …) — the
    serial replay reproduces it exactly, no degradation involved."""
    return isinstance(exc, ReproError) and not isinstance(exc, InfrastructureError)


class _ChunkError(Exception):
    """Internal: one chunk failed; ``program`` says which ladder rung."""

    def __init__(self, program: bool, kind: str, msg: str) -> None:
        super().__init__(f"{kind}: {msg}")
        self.program = program
        self.kind = kind


# --------------------------------------------------------------------------
# reductions: what a chunk ships, and the parent's exact replay
# --------------------------------------------------------------------------
#
# Sequential execution performs ``x = x ⊕ e`` once per iteration, in
# iteration order.  A chunk cannot touch ``x``; it records its ``e``
# values per slot (in order) and ships them in the smallest form the
# parent can fold back into ``x`` with the same value and type:
#
# * ``min``/``max`` over one comparison family ("best"): the chunk's
#   partial is its first strict winner among its non-NaN events.  A NaN
#   event never wins (``min(acc, nan)`` keeps ``acc``), a NaN accumulator
#   never loses, and ties keep the earlier operand, so folding the
#   partials in chunk order by Python's own ``min``/``max`` picks the
#   same object the sequential fold picks.  That needs ``<`` to be exact
#   across every value involved, which holds within one family (IEEE
#   doubles, or integers) but not across them (NumPy compares
#   ``np.float64`` with an int by rounding the int).
# * ``+ - *`` with a double accumulator and non-NaN double events
#   ("accumulate"): a float64 array, replayed by the matching
#   ``ufunc.accumulate`` over ``[x, events...]`` — the same IEEE
#   operations in the same order.  The result is an ``np.float64`` as
#   soon as the accumulator or any event is one, as in sequential
#   Python, else a float.  A NaN event is excluded because when both
#   operands are NaN, which one's sign and payload survive differs
#   between NumPy's scalar arithmetic and its ufunc loops.
# * anything else ("list", e.g. integer ⊕ or mixed types): the ordered
#   values, replayed one by one with the Python operator.

_FAMILY = {float: "float", np.float64: "float", int: "int", np.int64: "int"}
_ACCUMULATE = {"+": np.add, "-": np.subtract, "*": np.multiply}
#: ``x ⊕ e`` written as the compiled engine writes it (a lambda around
#: the operator, so CPython runs the same specialized instruction)
_APPLY: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda x, e: x + e,
    "-": lambda x, e: x - e,
    "*": lambda x, e: x * e,
    "min": lambda x, e: min(x, e),
    "max": lambda x, e: max(x, e),
}


def _pack(op: str, acc: Any, events: list) -> tuple:
    """One chunk's events for one reduction slot, packed for
    :func:`_replay`; ``acc`` is the accumulator's value at dispatch."""
    kinds = set(map(type, events))
    family = _FAMILY.get(type(acc))
    if op in ("min", "max"):
        if family is not None and all(_FAMILY.get(k) == family for k in kinds):
            live = [e for e in events if e == e]  # NaN events never win
            return ("best", (min if op == "min" else max)(live) if live else None)
    elif family == "float" and kinds <= {float, np.float64}:
        values = np.array(events, dtype=np.float64)
        if not np.isnan(values).any():
            return ("accumulate", values, np.float64 in kinds)
    return ("list", events)


def _replay(op: str, acc: Any, packs: list) -> Any:
    """Fold one slot's chunk packs into ``acc`` in chunk order: the value
    and type of the sequential ``acc = acc ⊕ e`` over every event.  A
    pack that cannot be folded exactly from the accumulator it meets
    raises, and the activation replays serially."""
    apply = _APPLY[op]
    for pack in packs:
        kind = pack[0]
        if kind == "list":
            for e in pack[1]:
                acc = apply(acc, e)
        elif kind == "best":
            best = pack[1]
            if best is not None:
                if _FAMILY.get(type(acc)) != _FAMILY.get(type(best)):
                    raise _ChunkError(True, "ReductionReplay", f"{op} across types")
                acc = apply(acc, best)
        elif len(pack[1]):
            # the accumulator stays a double: the pack was made from a
            # double, and double ⊕ number is a double
            seq = np.empty(len(pack[1]) + 1)
            seq[0] = acc
            seq[1:] = pack[1]
            last = _ACCUMULATE[op].accumulate(seq)[-1]
            acc = last if pack[2] or type(acc) is np.float64 else float(last)
    return acc


# --------------------------------------------------------------------------
# chunk compilation
# --------------------------------------------------------------------------


class _ChunkCompiler(_Compiler):
    """Compiles one scheduled loop body for chunk execution: every
    recognized reduction update becomes an append to its slot's ordered
    event list instead of a read-modify-write of the shared scalar
    (which workers must not touch).  Everything else — including the
    vectorized fast path for straight-line array bodies — is inherited
    from the compiled engine.
    """

    def __init__(self, func: IRFunction, sched: ParallelSchedule) -> None:
        super().__init__(func)
        self._red_ops = {s.name: s.op for s in sched.reductions}
        self._red_key = {s.name: _events_key(k) for k, s in enumerate(sched.reductions)}

    def _assign(self, s: SAssign) -> Callable[[dict, _Rt], Any]:
        if self._red_ops and isinstance(s.target, IVar) and s.target.name in self._red_ops:
            red = reduction_update(s)
            if red is not None and red[1] == self._red_ops[red[0]]:
                key = self._red_key[red[0]]
                tf = self.expr(red[2])

                def emit(env: dict, rt: _Rt) -> Any:
                    env[key].append(tf(env, rt))
                    return None

                return emit
            # schedule validation guarantees this cannot happen; if it
            # does, fail loudly rather than race on the shared scalar
            raise InterpreterError(
                f"unvalidated write to reduction scalar {s.target.name!r}"
            )
        return super()._assign(s)


def _loop_names(s: SLoop) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Every array name and every scalar name a loop references (bounds
    and body, nested statements included)."""
    arrays: set[str] = set()
    scalars: set[str] = set()
    stack: list[Stmt] = [s]
    while stack:
        st = stack.pop()
        for e in st.exprs():
            for n in e.walk():
                if isinstance(n, IArrayRef):
                    arrays.add(n.array)
                elif isinstance(n, IVar):
                    scalars.add(n.name)
        for b in st.blocks():
            stack.extend(b)
    return tuple(sorted(arrays)), tuple(sorted(scalars))


def _aliased(arrays: list) -> bool:
    """May any two of ``arrays`` share memory?"""
    return any(
        _overlap(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1 :]
    )


class _ScheduledLoop:
    """Everything one scheduled loop needs at dispatch time, and its
    dispatch hook."""

    __slots__ = (
        "label", "sched", "space", "inspector", "vector", "arrays", "scalars", "red_names"
    )

    def __init__(
        self,
        label: str,
        sched: ParallelSchedule,
        space: _Space,
        inspector: "_inspector.InspectorPlan | None" = None,
        vector: bool = False,
        names: tuple[tuple[str, ...], tuple[str, ...]] = ((), ()),
    ) -> None:
        self.label = label
        self.sched = sched
        #: the loop's iteration space: its step, its step cost, its exit
        self.space = space
        self.inspector = inspector
        #: the static cost class: the serial closure has a whole-array
        #: fast path, so the fabric pays only from VECTOR_MIN_TRIPS
        self.vector = vector
        #: the array and the scalar names the loop references
        self.arrays, self.scalars = names
        self.red_names = tuple(r.name for r in sched.reductions)

    def dispatch(self, env: dict, rt: _Rt, lb: int, m: int) -> Any:
        """The hook the loop's closure calls for an activation of ``m >=
        rt.dispatch_min`` trips: dispatch it over the fabric, or answer
        :data:`_SERIAL` (the closure iterates it) where a dispatch
        cannot pay or could not be exact."""
        run = _run_state(rt)
        if run.mp_disabled or m < run.mp_min_trips:
            return _SERIAL  # too short to pay for a dispatch
        if self.vector and m < run.vector_min_trips:
            run.counters["vector_kept"] += 1
            return _SERIAL  # the vector path beats a 2-way split
        if rt.steps + m * self.space.cost > rt.max_steps:
            return _SERIAL  # budget trips mid-loop: serial raises exactly
        if any(name not in env for name in self.red_names):
            return _SERIAL  # unbound reduction scalar: exact serial error
        if _aliased([env.get(name) for name in self.arrays]):
            return _SERIAL  # chunks would race through shared memory
        if any(isinstance(env.get(name), np.ndarray) for name in self.scalars):
            return _SERIAL  # a worker's scalars cannot carry an array
        if self.inspector is not None and not _inspect_gate(self, run, env, lb, m):
            return _SERIAL  # hybrid tier: not proven safe at runtime
        return _run_scheduled(self, run, env, rt, lb, m)


class _ParCompiler(_Compiler):
    """The compiled engine, with a dispatch hook folded into the closure
    of every loop that carries a validated schedule."""

    def __init__(
        self,
        func: IRFunction,
        schedules: dict[str, ParallelSchedule],
        inspectors: "dict[str, _inspector.InspectorPlan] | None" = None,
    ) -> None:
        super().__init__(func)
        self.schedules = schedules
        self.inspectors = inspectors or {}
        self.scheduled: dict[str, _ScheduledLoop] = {}

    def _loop(self, s: SLoop) -> Callable[[dict, _Rt], Any]:
        space = self._space(s)
        vec = self._vector_plan(s, space)
        sched = self.schedules.get(s.label)
        if sched is None:
            return self._counted_loop(s, space, vec)
        sl = _ScheduledLoop(
            s.label,
            sched,
            space,
            inspector=self.inspectors.get(s.label),
            vector=vec is not None,
            names=_loop_names(s),
        )
        self.scheduled[s.label] = sl
        return self._counted_loop(s, space, vec, sl.dispatch)


def _inspect_gate(
    sl: _ScheduledLoop, run: "_ParRun", env: dict, lb: int, m: int
) -> bool:
    """Hybrid-tier dispatch gate: the activation must be long enough to
    amortize an inspection (:data:`INSPECT_MIN_TRIPS`, or the explicit
    ``mp_min_trips``), and the inspection must *pass*.  A refusal, an
    unevaluable predicate, or a fault at one of the inspector sites all
    answer False — the loop runs serially, never wrongly in parallel."""
    from repro.service import faults

    if m < run.inspection_min_trips:
        run.counters["inspection_skips"] += 1
        return False
    run.counters["inspections"] += 1
    try:
        res = _inspector.inspect(sl.inspector, env, run.pf.fingerprint, lb, m)
    except Exception as exc:  # noqa: BLE001 — inspector fault/bug: serial
        faults.note_fallback(
            "inspector:serial",
            f"{run.func_name}:{sl.label}: {type(exc).__name__}: {exc}",
        )
        run.counters["inspection_fallbacks"] += 1
        return False
    run.pf.last_inspections[sl.label] = res
    if res.parallel:
        run.counters["inspection_passes"] += 1
        return True
    run.counters["inspection_refusals"] += 1
    return False


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------


def _run_scheduled(
    sl: _ScheduledLoop, run: "_ParRun", env: dict, rt: _Rt, lb: int, m: int
) -> Any:
    """Dispatch one activation over the fabric; on any failure roll
    back and hand it back to the loop closure (:data:`_SERIAL`), which
    replays it serially without re-entering the dispatch hook."""
    from repro.service import faults

    restore = None
    try:
        faults.maybe_fail("engine.parallel.worker", run.func_name)
        run.share_arrays(env)  # before the rollback point: rebinds arrays to shm views
        restore = rollback_point(env, sl.sched.arrays_written, rt)
        packs, last_priv, steps = run.dispatch(sl, env, rt, lb, m)
        rt.steps += steps
        sl.space.exit(env, lb, m)
        # then the last chunk's privates: what sequential execution
        # leaves in them, a nest's inner variable included
        env.update(last_priv)
        for k, slot in enumerate(sl.sched.reductions):
            env[slot.name] = _replay(slot.op, env[slot.name], [p[k] for p in packs])
        run.counters["parallel_activations"] += 1
        return None
    except Exception as exc:  # noqa: BLE001 — every rung replays serially
        program = exc.program if isinstance(exc, _ChunkError) else _is_program_error(exc)
        if program:
            # the program's own error: the replay raises it where
            # sequential execution does (counted, so a fault that only
            # a worker's closure has cannot pass unseen)
            run.counters["program_replays"] += 1
        else:
            faults.note_fallback(
                "engine:compiled",
                f"{run.func_name}:{sl.label}: {type(exc).__name__}: {exc}",
            )
            run.counters["serial_fallbacks"] += 1
        if restore is not None:
            restore()
        # ground truth: the serial replay reproduces sequential
        # semantics exactly, including any error and partial effects
        # (the bounds were evaluated before the rollback point)
        return _SERIAL


# --------------------------------------------------------------------------
# the multiprocessing strategy (persistent fabric)
# --------------------------------------------------------------------------


def _build_chunk_runner(
    source: str, fn_name: str, label: str, summary: dict
) -> Callable[[dict, _Rt], tuple]:
    """Rebuild one loop's chunk runner from its shipped form.

    Fabric workers call this (once per content fingerprint, cached) to
    turn ``(function source text, schedule summary)`` into
    ``run_chunk(env, rt) -> (packs, privates)``: it runs the chunk
    (bounds in ``env[_CLB]``/``env[_CUB]``) and returns one
    :func:`_pack` per reduction slot plus the final private values.  The
    IR round-trips through the printer/parser deterministically, so the
    rebuilt closures compute byte-identical results."""
    from repro.ir import build_function

    func = build_function(source, fn_name)
    sched = ParallelSchedule.from_summary(summary).validate()
    loop = next((l for l in func.loops() if l.label == label), None)
    if loop is None or loop.var != sched.var:
        raise InterpreterError(
            f"shipped schedule for loop {label!r} does not match the "
            f"rebuilt function {fn_name!r}"
        )
    cc = _ChunkCompiler(func, sched)
    chunk = cc._loop(
        SLoop(
            var=loop.var,
            lb=IVar(_CLB),
            ub=IVar(_CUB),
            step=loop.step,
            body=loop.body,
            label=label + "@chunk",
        )
    )
    slots = tuple((_events_key(k), r.name, r.op) for k, r in enumerate(sched.reductions))
    privates = sched.private

    def run_chunk(env: dict, rt: _Rt) -> tuple:
        for key, _, _ in slots:
            env[key] = []
        chunk(env, rt)
        packs = tuple(_pack(op, env[name], env[key]) for key, name, op in slots)
        return packs, {p: env[p] for p in privates if p in env}

    return run_chunk


#: what :attr:`ParallelFunction.last_counters` reports (perfbench reads
#: ``parallel_activations``, ``inproc_chunks`` and ``mp_chunks``)
_COUNTERS = (
    "parallel_activations",
    # always 0 since the in-process strategy went; perfbench reads it
    "inproc_chunks",
    "mp_chunks",
    "serial_fallbacks",
    # activations a program error ended on the fabric, replayed serially
    "program_replays",
    # activations past the fabric threshold that the vector cost class
    # kept on the compiled vector path
    "vector_kept",
    "pool_spawns",
    "inspections",
    "inspection_skips",
    "inspection_passes",
    "inspection_refusals",
    "inspection_fallbacks",
)

#: the counters of a run that built no run state
_IDLE_COUNTERS: Mapping[str, int] = MappingProxyType(dict.fromkeys(_COUNTERS, 0))


def _run_state(rt: _Rt) -> "_ParRun":
    """The run state of ``rt``'s call.  The first activation that
    reaches ``rt.dispatch_min`` builds it from the request
    :meth:`ParallelFunction.run` left in ``rt.par``, then raises
    ``rt.dispatch_min`` to the run's fabric threshold (or to never,
    where the fabric is out of reach)."""
    run = rt.par
    if type(run) is tuple:
        run = rt.par = _ParRun(*run)
        rt.dispatch_min = _NEVER if run.mp_disabled else run.mp_min_trips
    return run


class _ParRun:
    """The run state of one :meth:`ParallelFunction.run` call that
    reached the fabric threshold: worker count, path thresholds, leased
    shared-memory segments and dispatch counters.  The worker
    pool itself is *not* per-run — it lives in :mod:`repro.runtime.
    fabric` and survives across runs."""

    def __init__(
        self,
        pf: "ParallelFunction",
        workers: "int | None" = None,
        mp_min_trips: "int | None" = None,
    ) -> None:
        self.pf = pf
        self.func_name = pf.func.name
        self.workers = workers if workers and workers >= 1 else default_workers()
        if mp_min_trips is not None:
            # an explicit threshold replaces every gate's: fabric, vector
            # cost class and inspection
            self.mp_min_trips = max(1, mp_min_trips)
            self.vector_min_trips = self.inspection_min_trips = self.mp_min_trips
        else:
            self.mp_min_trips = max(MP_MIN_TRIPS, 4 * self.workers)
            self.vector_min_trips = VECTOR_MIN_TRIPS
            self.inspection_min_trips = INSPECT_MIN_TRIPS
        self.mp_disabled = self.workers < 2 or not _HAVE_FORK
        self._moved = False
        self._shm: list = []  # (original_array, shm_view, segment)
        self._orig_of: dict[int, np.ndarray] = {}
        self._array_spec: dict[str, tuple] = {}  # name -> (seg name, shape, dtype)
        self.counters = dict.fromkeys(_COUNTERS, 0)

    def share_arrays(self, env: dict) -> None:
        """Lease arena segments for the arrays the function's scheduled
        loops reference (:attr:`ParallelFunction.shared_arrays`), once
        per run, and rebind the environment to the shared views; on any
        failure, undo the moves and disable mp for this run."""
        if self._moved:
            return
        from repro.service import faults

        faults.maybe_fail("engine.parallel.shm", self.func_name)
        distinct = {id(v): v for v in env.values() if isinstance(v, np.ndarray)}
        if _aliased(list(distinct.values())):
            # separate segments would split one memory into two copies
            self.mp_disabled = True
            raise _ChunkError(True, "Aliasing", "arrays of the run share memory")
        arena = _fabric.arena()
        try:
            moved: dict[int, tuple] = {}
            for name in self.pf.shared_arrays:
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    continue
                hit = moved.get(id(arr))
                if hit is None:
                    faults.maybe_fail("engine.parallel.arena", self.func_name)
                    seg = arena.lease(arr.nbytes)
                    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                    view[...] = arr
                    hit = (view, seg)
                    moved[id(arr)] = hit
                    self._shm.append((arr, view, seg))
                    self._orig_of[id(view)] = arr
                view, seg = hit
                self._array_spec[name] = (seg.name, view.shape, str(view.dtype))
            # every binding of a moved array follows it, referenced or
            # not: a name left on the original would split one memory
            for name, val in list(env.items()):
                hit = moved.get(id(val))
                if hit is not None:
                    env[name] = hit[0]
        except Exception:
            self.mp_disabled = True
            self.release(env)
            raise
        self._moved = True

    def dispatch(
        self, sl: _ScheduledLoop, env: dict, rt: _Rt, lb: int, m: int
    ) -> tuple[list, dict, int]:
        """Fan the chunks out over the fabric and collect, in chunk
        order, each chunk's reduction packs, the last chunk's privates,
        and the step total.  The first chunk error (in sequential order)
        wins; the caller rolls back and replays serially either way."""
        from repro.service import faults

        fab = _fabric.get_fabric(self.workers)
        if fab.warm and faults.fires("engine.parallel.pool_reuse", self.func_name):
            # simulate discovering a dead pool at reuse time: drop it
            # (the next dispatch respawns) and fail this activation
            fab.invalidate()
            raise faults.FaultInjected(
                f"injected fault at engine.parallel.pool_reuse for "
                f"{self.func_name!r}"
            )
        chunks = ParallelSchedule.chunks(m, self.workers)
        scalars = {k: v for k, v in env.items() if not isinstance(v, np.ndarray)}
        budget = rt.max_steps - rt.steps
        header = self.pf.task_headers[sl.label]
        spawned_before = fab.stats["pool_spawns"]
        try:
            results = fab.dispatch(
                [
                    header
                    + (
                        lb + first * sl.space.step,
                        lb + (first + count) * sl.space.step,
                        scalars,
                        self._array_spec,
                        budget,
                    )
                    for first, count in chunks
                ]
            )
        except BrokenProcessPool as exc:
            self.mp_disabled = True
            raise _ChunkError(False, "BrokenProcessPool", str(exc)) from exc
        self.counters["pool_spawns"] += fab.stats["pool_spawns"] - spawned_before
        packs: list = []
        last_priv: dict = {}
        steps = 0
        for res in results:
            if res[0] == "err":
                raise _ChunkError(res[3], res[1], res[2])
            _, chunk_packs, priv, st, _secs = res
            packs.append(chunk_packs)
            last_priv = priv
            steps += st
        if steps > budget:
            # each chunk stayed inside the budget, their sum did not: the
            # serial replay raises where sequential execution does
            raise _ChunkError(True, "InterpreterError", f"step budget exceeded ({rt.max_steps})")
        self.counters["mp_chunks"] += len(chunks)
        return packs, last_priv, steps

    def release(self, env: dict) -> None:
        """Copy shared-memory contents back into the original arrays,
        restore the environment bindings, and return the segments to
        the arena (recycled, not unlinked — the fabric's ``atexit``
        teardown unlinks)."""
        self._moved = False
        if not self._shm:
            return
        for name, val in list(env.items()):
            orig = self._orig_of.get(id(val))
            if orig is not None:
                env[name] = orig
        arena = _fabric.arena()
        moved = self._shm
        self._shm = []
        self._orig_of.clear()
        self._array_spec.clear()
        for orig, view, seg in moved:
            orig[...] = view
            del view
            arena.release(seg)


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


def _function_fingerprint(
    func: IRFunction, assertions=None, text: "str | None" = None
) -> str:
    """Content fingerprint of everything that determines the lowered
    parallel form: :func:`~repro.analysis.framework.function_key` under
    the planner's initial assertions — the same key the plan memo uses,
    so lowering a function the pipeline just planned reuses its plan.
    ``text`` is the pragma-free IR print when the caller has it."""
    return function_key(func, assumed_fingerprint(assertions), text)


class ParallelFunction:
    """One IR function planned, scheduled, and lowered for the parallel
    engine; reusable across runs (like :class:`CompiledFunction`)."""

    def __init__(
        self,
        func: IRFunction,
        assertions=None,
        fingerprint: "str | None" = None,
        tier: str = "static",
        source_text: "str | None" = None,
    ) -> None:
        self.func = func
        self.tier = tier
        if source_text is None:
            source_text = function_to_c(func, pragmas=False)
        self.fingerprint = fingerprint or _function_fingerprint(
            func, assertions, source_text
        )
        plan = plan_function(
            func,
            method="extended",
            initial_env=assertions,
            annotate=False,
            key=self.fingerprint,
        )
        loops_by_label = {l.label: l for l in func.loops()}
        #: every derived schedule, executable or not — invalid ones keep
        #: their ``problems`` for provenance/service payloads
        self.schedules: dict[str, ParallelSchedule] = {}
        for label, lp in plan.loops.items():
            if not lp.parallel:
                continue
            node = loops_by_label.get(label)
            if node is None:
                continue
            self.schedules[label] = derive_schedule(node, lp, func.symtab)
        #: hybrid tier: inspector plans by loop label — each paired with
        #: a validator-approved schedule that only dispatches after the
        #: runtime inspection passes
        self.inspectors: dict[str, _inspector.InspectorPlan] = {}
        #: most recent run's inspection results by loop label
        self.last_inspections: dict[str, _inspector.InspectionResult] = {}
        hybrid_labels: set[str] = set()
        if tier == "hybrid":
            chosen = [lbl for lbl, s in self.schedules.items() if s.ok]
            for label, lp in plan.loops.items():
                # candidates: the static verdict is *unknown* — a real
                # dependence test ran and came back inconclusive (scalar
                # analysis clean, dependence summary present but not
                # proven) — never a loop with a proven/structural refusal
                if lp.parallel or lp.dependence is None:
                    continue
                if lp.scalars is None or not lp.scalars.ok:
                    continue
                node = loops_by_label.get(label)
                if node is None:
                    continue
                if any(label.startswith(anc + ".") for anc in chosen):
                    continue  # an ancestor already dispatches this loop
                hlp = dataclasses.replace(
                    lp, parallel=True, reason="hybrid: pending runtime inspection"
                )
                sched = derive_schedule(node, hlp, func.symtab)
                self.schedules[label] = sched
                hybrid_labels.add(label)
                if not sched.ok:
                    continue  # invalid ⇒ serial, problems kept for provenance
                insp = _inspector.lower_inspector(func, node, lp.dependence.accesses)
                if not insp.supported:
                    continue
                self.inspectors[label] = insp
                chosen.append(label)
        # a hybrid schedule is executable only with its inspector gate
        # in front — an unsupported lowering stays serial (never an
        # uninspected parallel dispatch)
        executable = {
            lbl: s
            for lbl, s in self.schedules.items()
            if s.ok and (lbl not in hybrid_labels or lbl in self.inspectors)
        }
        c = _ParCompiler(func, executable, self.inspectors)
        self._body = c.block(func.body)
        self.scheduled = c.scheduled
        #: the arrays a fabric dispatch moves into shared memory: every
        #: array some scheduled loop references
        self.shared_arrays: tuple[str, ...] = tuple(
            sorted({name for sl in self.scheduled.values() for name in sl.arrays})
        )
        self.array_names: list[str] = [
            n for n, _ in sorted(c.array_ids.items(), key=lambda kv: kv[1])
        ]
        #: what a fabric worker needs to rebuild (and cache) each
        #: scheduled loop's chunk closure: content key + source text +
        #: schedule summary, prepended to every task tuple
        self.task_headers: dict[str, tuple] = {
            lbl: (
                (self.fingerprint, lbl),
                source_text,
                func.name,
                lbl,
                sl.sched.summary(),
            )
            for lbl, sl in self.scheduled.items()
        }
        self.last_stats: RunStats | None = None
        self.last_counters: Mapping[str, int] | None = None

    def new_trace(self, capacity: int = 4096) -> TraceBuffer:
        return TraceBuffer(self.array_names, capacity)

    def cost_class(self, label: str) -> str:
        """Why an activation of loop ``label`` may run serial: its
        static cost class, with the trip count it needs for the fabric."""
        sl = self.scheduled.get(label)
        if sl is None:
            return "serial (no executable schedule)"
        if sl.vector:
            return f"vector (compiled vector path below {VECTOR_MIN_TRIPS} trips)"
        return f"scalar (fabric from {MP_MIN_TRIPS} trips)"

    def run(
        self,
        env: dict[str, Any],
        trace: TraceBuffer | None = None,
        observe_label: str | None = None,
        max_steps: int = 50_000_000,
        workers: "int | None" = None,
        mp_min_trips: "int | None" = None,
    ) -> dict[str, Any]:
        """Execute over ``env`` (arrays modified in place), scheduled
        loops distributed over ``workers`` (default
        :func:`default_workers`).  ``mp_min_trips`` replaces every path
        threshold (:data:`MP_MIN_TRIPS`, :data:`VECTOR_MIN_TRIPS`,
        :data:`INSPECT_MIN_TRIPS`) — validation harnesses lower it to
        push even small kernels and whole-array loops through the
        fabric and, on the hybrid tier, the inspector.

        A run that may reach the fabric (untraced, ``workers != 1``,
        ``fork`` available) calls the dispatch hooks from
        :data:`MP_MIN_TRIPS` trips (or the explicit ``mp_min_trips``); a
        run whose activations all stay below builds no run state and
        reads no environment variable."""
        rt = _Rt(trace, observe_label, max_steps)
        if observe_label is None and workers != 1 and _HAVE_FORK:
            rt.par = (self, workers, mp_min_trips)
            rt.dispatch_min = (
                MP_MIN_TRIPS if mp_min_trips is None else max(1, mp_min_trips)
            )
        if self.last_inspections:
            self.last_inspections = {}
        try:
            self._body(env, rt)
        finally:
            run = rt.par
            if type(run) is _ParRun:
                run.release(env)
                self.last_counters = run.counters
            else:
                self.last_counters = _IDLE_COUNTERS
        self.last_stats = RunStats(rt)
        return env


# Content-addressed schedule + closure cache: keyed by the shared,
# pragma-free content key (function_key, which the plan memo also uses)
# plus the dispatch tier.  An edited function, a different symbol table,
# different planner assertions, or a tier switch each miss.  The same
# source re-parsed into a *new* IR object hits, so service traffic does
# not re-lower on every ``execute``, and so does the function after the
# planner annotated it: pragmas are planner output, never part of a
# content key.
_PF_CACHE: dict[tuple[str, str], ParallelFunction] = {}
_PF_CACHE_LIMIT = 256

# Identity front of _PF_CACHE, so a warm lookup on the same IR object
# does not re-print the IR to fingerprint it (the idiom of
# ``compiler.compile_function``): (id(func), tier) -> (func, assertions'
# fingerprint, ParallelFunction).  An entry holds its function strongly
# and answers only when ``entry[0] is func`` (a recycled id() can never
# alias it) and the assertions' fingerprint still matches (different
# assertions miss).  Re-parsed sources miss here and hit the content
# table.  Both tables are bounded by _PF_CACHE_LIMIT and registered
# together as one memo table, so cold benchmarks stay honest.
_PF_FRONT: dict[tuple[int, str], tuple] = {}


def _clear_pf_cache() -> None:
    _PF_CACHE.clear()
    _PF_FRONT.clear()


def _register_pf_cache() -> None:
    from repro.symbolic.expr import register_memo_table

    register_memo_table("parallel.functions", _PF_CACHE.__len__, _clear_pf_cache)


_register_pf_cache()


def compile_parallel(
    func: IRFunction, assertions=None, tier: str = "static"
) -> ParallelFunction:
    """Plan + schedule + lower ``func`` for the given dispatch ``tier``
    (memoized by content fingerprint × tier — see
    :func:`_function_fingerprint` — behind an identity front)."""
    if tier not in TIERS:
        raise ValueError(f"unknown dispatch tier {tier!r}; expected one of {TIERS}")
    guard = assumed_fingerprint(assertions)
    front_key = (id(func), tier)
    entry = _PF_FRONT.get(front_key)
    if entry is not None and entry[0] is func and entry[1] == guard:
        return entry[2]
    text = function_to_c(func, pragmas=False)
    fp = _function_fingerprint(func, assertions, text)
    key = (fp, tier)
    pf = _PF_CACHE.get(key)
    if pf is None:
        pf = ParallelFunction(
            func, assertions, fingerprint=fp, tier=tier, source_text=text
        )
        if len(_PF_CACHE) >= _PF_CACHE_LIMIT:
            _PF_CACHE.clear()
        _PF_CACHE[key] = pf
    if len(_PF_FRONT) >= _PF_CACHE_LIMIT:
        _PF_FRONT.clear()
    _PF_FRONT[front_key] = (func, guard, pf)
    return pf


def schedules_for(func: IRFunction, assertions=None) -> dict[str, ParallelSchedule]:
    """Every derived :class:`ParallelSchedule` by loop label (including
    ones that failed validation) — for provenance and service payloads."""
    return compile_parallel(func, assertions).schedules


def run_parallel(
    func: IRFunction,
    env: dict[str, Any],
    max_steps: int = 50_000_000,
    workers: "int | None" = None,
    mp_min_trips: "int | None" = None,
    tier: "str | None" = None,
) -> dict[str, Any]:
    """Convenience wrapper: compile for parallel execution (cached) and
    run.  Identical observable semantics to :func:`run_compiled` — the
    engine-equivalence suite pins this against the interpreter, for
    both the ``static`` and ``hybrid`` tiers."""
    return compile_parallel(func, tier=tier or "static").run(
        env, max_steps=max_steps, workers=workers, mp_min_trips=mp_min_trips
    )


__all__ = [
    "INSPECT_MIN_TRIPS",
    "MP_MIN_TRIPS",
    "TIERS",
    "VECTOR_MIN_TRIPS",
    "ParallelFunction",
    "compile_parallel",
    "default_workers",
    "run_parallel",
    "schedules_for",
]
