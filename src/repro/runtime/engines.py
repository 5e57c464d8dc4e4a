"""Runtime engine registry: one switch for every dynamic-execution path.

Three engines execute the mini-C IR:

* ``"interp"`` — the tree-walking :mod:`repro.runtime.interpreter`; the
  *reference semantics*.  Slow, simple, and the yardstick every other
  engine is differentially tested against
  (``tests/test_engine_equivalence.py``).
* ``"compiled"`` — the closure-lowered :mod:`repro.runtime.compiler`
  with batched NumPy tracing and a vectorized inner-loop fast path; the
  *production path* for the oracle, the differential fuzz suite, and the
  figure benchmarks.
* ``"parallel"`` — :mod:`repro.runtime.parallel`: the compiled engine
  plus real parallel execution of every loop the planner proves
  PARALLEL, through a validated :class:`~repro.parallelizer.schedule.
  ParallelSchedule` dispatched to the persistent worker fabric over
  recycled shared-memory segments (see :mod:`repro.runtime.fabric`;
  warm calls pay neither fork nor segment allocation).  Serial loops,
  unvalidated schedules, activations that cannot reach the fabric
  (``workers < 2``, no ``fork``, or fewer trips than the constant
  fabric threshold), and whole-array loops too short to beat their
  NumPy fast path run on the compiled closures, so where it cannot
  win the engine costs what ``"compiled"`` costs; results are
  byte-identical to sequential execution by construction.  The dispatch decision sits in each
  scheduled loop's own closure, which calls its dispatch hook only for
  an activation long enough to reach the fabric; the run state that
  hook needs rides on the run's ``_Rt`` and is built by the first such
  activation, so a call whose loops all stay short builds none.

Every call site that passes no ``engine=`` runs ``"compiled"``
(:data:`DEFAULT_ENGINE`); the others are picked by name, never by the
environment (``REPRO_WORKERS`` only sizes the parallel engine's pool).
To add a new engine, implement ``run(func, env, max_steps)`` plus a
trace-producing oracle hook (see ``check_loop_independence``), derive
and *validate* a schedule for anything executed out of sequential order
(see ``parallelizer/schedule.py``), register it here, and add it to the
equivalence suite — the suite, not the registry, is what makes an
engine trustworthy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.ir.nodes import IRFunction

ENGINES = ("interp", "compiled", "parallel")

#: production default; "interp" stays available as the reference.
DEFAULT_ENGINE = "compiled"


def resolve_engine(engine: "str | None") -> str:
    """Validate an explicit choice; ``None`` is :data:`DEFAULT_ENGINE`."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    return engine


def execute(
    func: IRFunction,
    env: dict[str, Any],
    engine: "str | None" = None,
    max_steps: int = 50_000_000,
    workers: "int | None" = None,
    mp_min_trips: "int | None" = None,
    tier: "str | None" = None,
) -> dict[str, Any]:
    """Run ``func`` over ``env`` (arrays modified in place) on the
    selected engine.  Results are engine-independent by construction —
    the equivalence suite pins this.  ``workers`` / ``mp_min_trips`` /
    ``tier`` tune the parallel engine only: pool width; one trip count
    that replaces every path threshold (the fabric's, the vector cost
    class's and the hybrid tier's inspection gate, constants by
    default, see :data:`~repro.runtime.parallel.MP_MIN_TRIPS`); and the
    static-vs-hybrid dispatch tier.  The serial engines ignore all
    three, which is safe precisely because results are
    engine-independent; a ``tier`` outside
    :data:`~repro.runtime.parallel.TIERS` raises :class:`ValueError`
    on every engine, as an unknown ``engine`` does.

    Degradation ladder: an *internal* failure of the parallel engine
    (any exception that is not a :class:`~repro.errors.ReproError`)
    rolls the environment back and re-runs on the compiled engine,
    recording an ``engine:compiled`` fallback note; an internal failure
    of the compiled engine degrades the same way onto the reference
    interpreter (``engine:interp``).  Both roll back through one
    :func:`~repro.runtime.compiler.rollback_point` over every array
    binding: arrays are restored in place, so the caller's own objects
    hold the result, and every binding as it was, so no scalar the
    failed rung changed leaks into the rerun.  Notes are drained into
    batch health sections; a suite that must see engine bugs asserts
    that :func:`~repro.service.faults.drain_fallback_notes` comes back
    empty.  (The parallel engine additionally degrades *per loop* inside
    :func:`~repro.runtime.parallel.run_parallel` — a failed chunk
    dispatch rolls back and replays that one loop serially.)"""
    interpreter, compiler, parallel, faults = _RUNGS or _resolve_rungs()
    eng = resolve_engine(engine)
    if tier is not None and tier not in parallel.TIERS:
        # the caller's typo, not an engine bug: never a ladder fallback
        raise ValueError(f"unknown dispatch tier {tier!r} (choose from {parallel.TIERS})")
    if eng == "interp":
        return interpreter.run_function(func, env, max_steps=max_steps)

    # every array binding, not just the written ones: a buggy engine
    # may write an array the program only reads
    restore = compiler.rollback_point(env, env)
    if eng == "parallel":
        try:
            return parallel.run_parallel(
                func,
                env,
                max_steps=max_steps,
                workers=workers,
                mp_min_trips=mp_min_trips,
                tier=tier,
            )
        except ReproError:
            raise  # a verdict about the program, not an engine bug
        except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
            faults.note_fallback(
                "engine:compiled", f"{func.name}: {type(exc).__name__}: {exc}"
            )
            restore()
            # fall through to the compiled rung
    try:
        faults.maybe_fail("engine.compiled", func.name)
        return compiler.run_compiled(func, env, max_steps=max_steps)
    except ReproError:
        raise  # a verdict about the program, not an engine bug
    except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
        faults.note_fallback(
            "engine:interp", f"{func.name}: {type(exc).__name__}: {exc}"
        )
        restore()
        return interpreter.run_function(func, env, max_steps=max_steps)


def first_divergence(want: dict[str, Any], got: dict[str, Any]) -> "str | None":
    """The first binding of ``want`` that ``got`` does not reproduce, or
    ``None`` when every one matches — the byte-exact agreement every
    engine comparison checks.  Arrays agree by dtype, shape and bytes
    (identical NaNs agree, a dtype change does not); scalars by value,
    with NaN equal to NaN."""
    for name, a in want.items():
        b = got.get(name)
        if isinstance(a, np.ndarray):
            same = (
                isinstance(b, np.ndarray)
                and a.dtype == b.dtype
                and a.shape == b.shape
                and a.tobytes() == b.tobytes()
            )
        else:
            same = (
                name in got
                and not isinstance(b, np.ndarray)
                and (a == b or (a != a and b != b))
            )
        if not same:
            return name
    return None


#: the modules the ladder's rungs live in, resolved by the first
#: :func:`execute`; calls go through their attributes, so a rung patched
#: on its module (as the chaos suite does) still takes effect
_RUNGS: "tuple[Any, ...] | None" = None


def _resolve_rungs() -> "tuple[Any, ...]":
    global _RUNGS
    from repro.runtime import compiler, interpreter, parallel
    from repro.service import faults

    _RUNGS = (interpreter, compiler, parallel, faults)
    return _RUNGS


__all__ = ["DEFAULT_ENGINE", "ENGINES", "execute", "first_divergence", "resolve_engine"]
