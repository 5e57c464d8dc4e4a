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
  (``workers < 2``, no ``fork``, or fewer trips than ``mp_min_trips``),
  and whole-array loops too short to beat their NumPy fast path run on
  the compiled closures, so where it cannot win the engine costs what
  ``"compiled"`` costs; results are byte-identical to sequential
  execution by construction.

The default is ``"compiled"``; set the environment variable
``REPRO_ENGINE=interp`` (or ``=parallel``) to switch globally (every
call site that does not pass an explicit ``engine=`` honours it, and
``REPRO_WORKERS`` sizes the parallel engine's pool).  To add a new
engine, implement ``run(func, env, max_steps)`` plus a trace-producing
oracle hook (see ``check_loop_independence``), derive and *validate* a
schedule for anything executed out of sequential order (see
``parallelizer/schedule.py``), register it here, and add it to the
equivalence suite — the suite, not the registry, is what makes an
engine trustworthy.
"""

from __future__ import annotations

import os
from typing import Any

from repro.ir.nodes import IRFunction

ENGINES = ("interp", "compiled", "parallel")

#: production default; "interp" stays available as the reference.
DEFAULT_ENGINE = "compiled"

_ENV_VAR = "REPRO_ENGINE"


def default_engine() -> str:
    """The session-wide engine: ``$REPRO_ENGINE`` or the built-in default."""
    name = os.environ.get(_ENV_VAR, DEFAULT_ENGINE)
    return name if name in ENGINES else DEFAULT_ENGINE


def resolve_engine(engine: "str | None") -> str:
    """Validate an explicit choice, or fall back to :func:`default_engine`."""
    if engine is None:
        return default_engine()
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
    inspect_min_trips: "int | None" = None,
) -> dict[str, Any]:
    """Run ``func`` over ``env`` (arrays modified in place) on the
    selected engine.  Results are engine-independent by construction —
    the equivalence suite pins this.  ``workers`` / ``mp_min_trips`` /
    ``tier`` / ``inspect_min_trips`` tune the parallel engine only
    (pool width, the trip-count threshold for a fabric dispatch, the
    static-vs-hybrid dispatch tier, and the hybrid tier's
    inspection-amortization threshold; all are ignored by the serial
    engines, which is safe precisely because results are
    engine-independent).

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
    batch health sections.  ``REPRO_FALLBACKS=0`` turns the ladder off.
    (The parallel engine additionally degrades *per loop* inside
    :func:`~repro.runtime.parallel.run_parallel` — a failed chunk
    dispatch rolls back and replays that one loop serially.)"""
    from repro.runtime.interpreter import run_function

    eng = resolve_engine(engine)
    if eng == "interp":
        return run_function(func, env, max_steps=max_steps)

    from repro.errors import ReproError
    from repro.runtime.compiler import rollback_point, run_compiled
    from repro.service import faults

    # every array binding, not just the written ones: a buggy engine
    # may write an array the program only reads
    restore = rollback_point(env, env)
    if eng == "parallel":
        from repro.runtime.parallel import run_parallel

        try:
            return run_parallel(
                func,
                env,
                max_steps=max_steps,
                workers=workers,
                mp_min_trips=mp_min_trips,
                tier=tier,
                inspect_min_trips=inspect_min_trips,
            )
        except ReproError:
            raise  # a verdict about the program, not an engine bug
        except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
            if not faults.fallbacks_enabled():
                raise
            faults.note_fallback(
                "engine:compiled", f"{func.name}: {type(exc).__name__}: {exc}"
            )
            restore()
            # fall through to the compiled rung
    try:
        faults.maybe_fail("engine.compiled", func.name)
        return run_compiled(func, env, max_steps=max_steps)
    except ReproError:
        raise  # a verdict about the program, not an engine bug
    except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
        if not faults.fallbacks_enabled():
            raise
        faults.note_fallback(
            "engine:interp", f"{func.name}: {type(exc).__name__}: {exc}"
        )
        restore()
        return run_function(func, env, max_steps=max_steps)


__all__ = ["DEFAULT_ENGINE", "ENGINES", "default_engine", "execute", "resolve_engine"]
