"""Dynamic independence oracle.

Executes a kernel while recording, per iteration of one designated loop,
which array elements are read and written.  A loop's iterations are
dynamically independent (for this input) iff no element is written in one
iteration and accessed (read or written) in another *iteration of the
same activation*.  A nested loop is activated once per enclosing
iteration; ``omp parallel for`` on it only runs the iterations of one
activation concurrently, so accesses made by different activations may
legitimately overlap (the differential fuzzer caught exactly this: a
segment walk whose per-row segments overlap is still parallel per row).

The oracle is the ground truth for the compiler's soundness: every loop
the analysis marks PARALLEL must be oracle-independent on every generated
input (a property-based test), while the converse need not hold (the
compiler is conservative).

Two execution engines back the oracle (see :mod:`repro.runtime.engines`):

* ``"interp"`` — the reference path: the tree-walking interpreter feeds
  a per-access Python callback that maintains conflict dictionaries.
* ``"compiled"`` — the production path: the closure-compiled runtime
  appends ``(array_id, flat, is_write, activation, iteration)`` rows
  into a :class:`~repro.runtime.compiler.TraceBuffer`, and the conflict
  join below replaces millions of callbacks with a handful of
  ``np.lexsort``/``np.unique`` passes over the columns.

Both paths produce the same :class:`OracleReport` — same ``independent``
verdict, same per-activation conflict *set*, same ``iterations`` and
``accesses_recorded`` counts (pinned by the engine-equivalence suite).
Only the *order* of reported conflicts may differ, because the compiled
engine's vectorized loops commit statement-at-a-time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ir.nodes import IRFunction
from repro.runtime.engines import resolve_engine
from repro.runtime.interpreter import run_function


@dataclass(frozen=True)
class Conflict:
    array: str
    index: int
    writer_iteration: int
    other_iteration: int
    other_is_write: bool

    def describe(self) -> str:
        kind = "write-write" if self.other_is_write else "write-read"
        return (
            f"{kind} conflict on {self.array}[{self.index}]: "
            f"iterations {self.writer_iteration} and {self.other_iteration}"
        )


@dataclass
class OracleReport:
    loop_label: str
    iterations: int
    conflicts: list[Conflict] = field(default_factory=list)
    accesses_recorded: int = 0

    @property
    def independent(self) -> bool:
        return not self.conflicts

    def describe(self) -> str:
        head = (
            f"oracle[{self.loop_label}]: {self.iterations} iterations, "
            f"{self.accesses_recorded} accesses — "
            + ("INDEPENDENT" if self.independent else f"{len(self.conflicts)} conflicts")
        )
        return "\n".join([head] + ["  " + c.describe() for c in self.conflicts[:10]])


def check_loop_independence(
    func: IRFunction,
    env: dict[str, Any],
    loop_label: str,
    max_conflicts: int = 100,
    max_steps: int = 50_000_000,
    engine: "str | None" = None,
) -> OracleReport:
    """Run ``func`` on ``env`` and report cross-iteration conflicts of the
    loop labeled ``loop_label``.  ``env`` is modified in place (pass a
    fresh copy if you need the inputs afterwards).  ``engine`` selects
    the execution backend (default: :data:`repro.runtime.engines.DEFAULT_ENGINE`).

    Degradation ladder: an internal (non-:class:`~repro.errors.ReproError`)
    failure of the compiled trace path rolls the environment back and
    re-checks on the reference interpreter, recording an
    ``oracle:interp`` fallback note.  The rollback is the one
    :func:`~repro.runtime.compiler.rollback_point` over every array
    binding that :func:`~repro.runtime.engines.execute` takes too.
    ``REPRO_FALLBACKS=0`` disables it.

    ``engine="parallel"`` routes through the compiled trace path: the
    oracle's subject is the *program's* cross-iteration independence,
    which is observed sequentially by construction — the parallel
    engine consumes these verdicts, it does not produce them."""
    if resolve_engine(engine) == "interp":
        return _check_interp(func, env, loop_label, max_conflicts, max_steps)

    from repro.errors import ReproError
    from repro.runtime.compiler import rollback_point
    from repro.service import faults

    restore = rollback_point(env, env)
    try:
        faults.maybe_fail("engine.compiled", f"oracle:{func.name}")
        return _check_compiled(func, env, loop_label, max_conflicts, max_steps)
    except ReproError:
        raise  # step budgets / bad program state are genuine verdicts
    except Exception as exc:  # noqa: BLE001 — engine bug: degrade, don't die
        if not faults.fallbacks_enabled():
            raise
        faults.note_fallback(
            "oracle:interp", f"{func.name}:{loop_label}: {type(exc).__name__}: {exc}"
        )
        restore()
        return _check_interp(func, env, loop_label, max_conflicts, max_steps)


# --------------------------------------------------------------------------
# reference path: interpreter + per-access callback
# --------------------------------------------------------------------------


def _check_interp(
    func: IRFunction,
    env: dict[str, Any],
    loop_label: str,
    max_conflicts: int,
    max_steps: int,
) -> OracleReport:
    # (array, flat, activation) -> iteration indices within that activation
    writers: dict[tuple[str, int, int], set[int]] = {}
    readers: dict[tuple[str, int, int], set[int]] = {}
    count = [0]
    iters: set[tuple[int, int]] = set()

    def recorder(
        array: str, flat: int, is_write: bool, iteration: "tuple[int, int] | None"
    ) -> None:
        if iteration is None:
            return
        count[0] += 1
        iters.add(iteration)
        activation, index = iteration
        key = (array, flat, activation)
        (writers if is_write else readers).setdefault(key, set()).add(index)

    run_function(func, env, recorder=recorder, observe_label=loop_label, max_steps=max_steps)
    return OracleReport(
        loop_label=loop_label,
        iterations=len(iters),
        conflicts=_conflicts(writers, readers, max_conflicts),
        accesses_recorded=count[0],
    )


def _conflicts(
    writers: dict[tuple[str, int, int], set[int]],
    readers: dict[tuple[str, int, int], set[int]],
    max_conflicts: int,
) -> list[Conflict]:
    """The reference conflict rule over ``(array, flat, activation) ->
    iterations`` dicts: writer keys in first-write order, each
    contributing at most one conflict (write-write: the two smallest
    write iterations; write-read: the single write iteration and the
    smallest differing read)."""
    conflicts: list[Conflict] = []
    for key, wset in writers.items():
        if len(conflicts) >= max_conflicts:
            break
        array, index, _activation = key
        ws = sorted(wset)
        if len(ws) > 1:
            conflicts.append(Conflict(array, index, ws[0], ws[1], True))
            continue
        w = ws[0]
        for r in sorted(readers.get(key, ())):
            if r != w:
                conflicts.append(Conflict(array, index, w, r, False))
                break
    return conflicts


# --------------------------------------------------------------------------
# production path: compiled runtime + vectorized conflict join
# --------------------------------------------------------------------------


def _check_compiled(
    func: IRFunction,
    env: dict[str, Any],
    loop_label: str,
    max_conflicts: int,
    max_steps: int,
) -> OracleReport:
    from repro.runtime.compiler import compile_function

    compiled = compile_function(func)
    trace = compiled.new_trace()
    compiled.run(env, trace=trace, observe_label=loop_label, max_steps=max_steps)
    return _report_from_trace(loop_label, trace, max_conflicts)


def _report_from_trace(
    loop_label: str, trace: "Any", max_conflicts: int
) -> OracleReport:
    """Vectorized conflict join over a :class:`TraceBuffer`'s columns,
    replicating the reference rule of :func:`_conflicts` exactly."""
    aid, flat, wr, act, idx = trace.columns()
    n = int(aid.shape[0])
    if n == 0:
        return OracleReport(loop_label, 0, [], 0)
    if n < 4096:
        # tiny traces: the ~20 fixed-cost NumPy passes below cost more
        # than a plain python sweep over bulk-converted lists
        return _report_from_trace_dict(loop_label, trace, max_conflicts)
    names = trace.names

    max_flat = int(flat.max())
    max_act = int(act.max())
    max_idx = int(idx.max())
    n_arr = int(aid.max()) + 1
    # single-int64 keys; fall back to the dict path on (absurd) overflow
    if (
        n_arr * (max_flat + 1) * (max_act + 1) >= 2**62
        or (max_act + 1) * (max_idx + 1) >= 2**62
    ):
        return _report_from_trace_dict(loop_label, trace, max_conflicts)

    iterations = int(np.unique(act * (max_idx + 1) + idx).size)
    key = (aid.astype(np.int64) * (max_flat + 1) + flat) * (max_act + 1) + act

    wkey = key[wr]
    widx = idx[wr]
    if wkey.size == 0:
        return OracleReport(loop_label, iterations, [], n)

    # writer groups: unique keys (sorted) + first-occurrence trace position
    ukeys, first_pos = np.unique(wkey, return_index=True)
    order = np.argsort(first_pos, kind="stable")  # groups in first-write order
    # distinct write iterations per group
    perm = np.lexsort((widx, wkey))
    sk, si = wkey[perm], widx[perm]
    keep = np.ones(sk.size, dtype=bool)
    keep[1:] = (sk[1:] != sk[:-1]) | (si[1:] != si[:-1])
    sk, si = sk[keep], si[keep]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    counts = np.diff(np.r_[starts, sk.size])
    w0 = si[starts]  # smallest write iteration per group

    # reader groups: unique (key, iteration) pairs, sorted
    rkey = key[~wr]
    ridx = idx[~wr]
    if rkey.size:
        rperm = np.lexsort((ridx, rkey))
        rk, ri = rkey[rperm], ridx[rperm]
        rkeep = np.ones(rk.size, dtype=bool)
        rkeep[1:] = (rk[1:] != rk[:-1]) | (ri[1:] != ri[:-1])
        rk, ri = rk[rkeep], ri[rkeep]
        rstarts = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
        rcounts = np.diff(np.r_[rstarts, rk.size])
        ruk = rk[rstarts]
    else:
        ri = ridx
        rstarts = rcounts = np.empty(0, dtype=np.int64)
        ruk = np.empty(0, dtype=np.int64)

    # candidate groups, computed without a python loop over all writers
    ww = counts > 1
    if ruk.size:
        j = np.minimum(np.searchsorted(ruk, ukeys), ruk.size - 1)
        has_reader = ruk[j] == ukeys
        r_first = ri[rstarts[j]]
        r_count = rcounts[j]
        wr_conf = (~ww) & has_reader & ((r_first != w0) | (r_count > 1))
    else:
        wr_conf = np.zeros(ukeys.size, dtype=bool)
    candidate = ww | wr_conf

    conflicts: list[Conflict] = []
    span = max_act + 1
    span2 = max_flat + 1
    for pos in order:
        if not candidate[pos]:
            continue
        if len(conflicts) >= max_conflicts:
            break
        k = int(ukeys[pos])
        a_id = k // (span2 * span)
        flat_i = (k // span) % span2
        name = names[a_id]
        st = int(starts[pos])
        if ww[pos]:
            conflicts.append(Conflict(name, flat_i, int(si[st]), int(si[st + 1]), True))
            continue
        w = int(w0[pos])
        rs = int(rstarts[int(np.searchsorted(ruk, k))])
        r0 = int(ri[rs])
        if r0 != w:
            conflicts.append(Conflict(name, flat_i, w, r0, False))
        else:
            conflicts.append(Conflict(name, flat_i, w, int(ri[rs + 1]), False))
    return OracleReport(loop_label, iterations, conflicts, n)


def _report_from_trace_dict(loop_label: str, trace: "Any", max_conflicts: int) -> OracleReport:
    """Python-dict path (exactly the reference algorithm, fed from
    trace columns): used for tiny traces, where it beats the fixed cost
    of the vectorized join, and as the fallback for key-encoding
    overflow."""
    aid, flat, wr, act, idx = trace.columns()
    names = trace.names
    writers: dict[tuple[str, int, int], set[int]] = {}
    readers: dict[tuple[str, int, int], set[int]] = {}
    iters: set[tuple[int, int]] = set()
    rows = zip(aid.tolist(), flat.tolist(), wr.tolist(), act.tolist(), idx.tolist())
    for a, f, w, ac, ix in rows:
        iters.add((ac, ix))
        key = (names[a], f, ac)
        (writers if w else readers).setdefault(key, set()).add(ix)
    conflicts = _conflicts(writers, readers, max_conflicts)
    return OracleReport(loop_label, len(iters), conflicts, int(aid.shape[0]))
