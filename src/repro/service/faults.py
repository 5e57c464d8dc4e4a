"""Deterministic fault injection for the analyze/execute pipeline.

Every failure path the batch service defends against — worker crashes,
kernel hangs, transient I/O errors, corrupted cache bytes, internal
engine bugs — has a named **site** here, so the chaos suite (and a
curious operator) can trigger it on demand and assert the recovery
behaviour, instead of waiting for production to do it first.

A *fault plan* is a list of rules ``site:glob[:times]``:

* ``site`` — one of :data:`SITES` (``worker.crash``, ``worker.hang``,
  ``worker.transient``, ``worker.error``, ``analysis.passes``,
  ``engine.compiled``, ``engine.parallel.worker``,
  ``engine.parallel.shm``, ``engine.parallel.pool_reuse``,
  ``engine.parallel.arena``, ``engine.inspector.predicate``,
  ``engine.inspector.cache``, ``oracle.timeout``, ``cache.write``,
  ``cache.corrupt``);
* ``glob`` — an ``fnmatch`` pattern over the site's key (a kernel or
  cache-key name); defaults to ``*``;
* ``times`` — how many times the rule fires (default ``1``; ``*`` means
  every time).

Plans come from ``repro batch --faults "worker.crash:fuzz17:1;
cache.corrupt:*"`` or programmatically::

    from repro.service import faults
    with faults.injected("worker.hang:fuzz42"):
        report = engine.run(requests)

Either way the plan is installed in this process (:func:`install`), and
batch and fabric workers receive it through their pool initializer
(:func:`pool_worker_init`).

Injection is **deterministic**: a rule with ``times=N`` fires on the
first N qualifying attempts (attempt counts are threaded in by the batch
scheduler, so a retried kernel sails past a consumed rule no matter
which worker process it lands on).  With no plan installed every hook is
a cheap no-op.

The module also hosts the resilience primitives the rest of the package
shares: :func:`time_budget` (SIGALRM wall-clock watchdog) and the
fallback note channel that lets runtime ladders report into batch
health sections.  Every runtime rung files a note when it absorbs an
engine failure, so a suite that must see engine bugs drains
:func:`drain_fallback_notes` and asserts it comes back empty.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.errors import (
    KernelTimeoutError,
    TransientWorkerError,
    WorkerCrashError,
)

#: Every injectable failure site and what firing it does.
SITES = {
    "worker.crash": "kill the worker process (raise WorkerCrashError in-process)",
    "worker.hang": "stall the worker until the wall-clock watchdog fires",
    "worker.transient": "raise a retryable TransientWorkerError",
    "worker.error": "raise an unexpected (non-Repro) RuntimeError",
    "analysis.passes": "fail the pass-framework analysis (batch: the request's unexpected failure record; execute's parallel rung: degrade to compiled)",
    "engine.compiled": "fail the compiled runtime engine (ladder: interp)",
    "engine.parallel.worker": "fail a parallel-engine chunk dispatch (ladder: compiled serial replay)",
    "engine.parallel.shm": "fail parallel-engine shared-memory setup (ladder: compiled serial replay)",
    "engine.parallel.pool_reuse": "fail reuse of a warm fabric pool (ladder: serial replay, pool respawns on next dispatch)",
    "engine.parallel.arena": "fail a shared-memory arena segment lease (ladder: compiled serial replay)",
    "engine.inspector.predicate": "fail a hybrid-tier runtime inspection predicate (ladder: serial, never a wrong parallel dispatch)",
    "engine.inspector.cache": "fail the inspector's content-addressed memo lookup (ladder: serial, never a wrong parallel dispatch)",
    "oracle.timeout": "time out an oracle check (verdict downgrades to unknown)",
    "cache.write": "raise OSError while writing a disk-cache entry",
    "cache.corrupt": "truncate the bytes written for a disk-cache entry",
}

#: An un-budgeted injected hang still terminates: the stall is capped so
#: a chaos run without a watchdog cannot wedge the suite.
HANG_CAP_SECONDS = 6.0


class FaultInjected(RuntimeError):
    """An injected internal failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    engine bugs must escape the ``except ReproError`` handlers that turn
    genuine analysis errors into verdicts, exactly like a real bug
    would, so they exercise the degradation ladders."""


@dataclass(frozen=True)
class FaultRule:
    site: str
    match: str = "*"
    times: "int | None" = 1  # None: fires every time

    def spec(self) -> str:
        times = "*" if self.times is None else str(self.times)
        return f"{self.site}:{self.match}:{times}"


@dataclass(frozen=True)
class FaultPlan:
    rules: "tuple[FaultRule, ...]"

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse ``"site[:glob[:times]]; ..."`` (';'-separated rules)."""
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [p.strip() for p in chunk.split(":")]
            if len(parts) > 3:
                raise ValueError(f"fault rule {chunk!r}: want site[:glob[:times]]")
            site = parts[0]
            if site not in SITES:
                known = ", ".join(sorted(SITES))
                raise ValueError(f"unknown fault site {site!r}; sites: {known}")
            match = parts[1] if len(parts) > 1 and parts[1] else "*"
            times: "int | None" = 1
            if len(parts) > 2 and parts[2]:
                times = None if parts[2] == "*" else int(parts[2])
                if times is not None and times < 1:
                    raise ValueError(f"fault rule {chunk!r}: times must be >= 1")
            rules.append(FaultRule(site, match, times))
        return FaultPlan(tuple(rules))

    def spec(self) -> str:
        return "; ".join(r.spec() for r in self.rules)

    def rule_for(self, site: str, key: str) -> "FaultRule | None":
        for r in self.rules:
            if r.site == site and fnmatchcase(key, r.match):
                return r
        return None


# -- installed-plan state (per process) --------------------------------------

_installed: "FaultPlan | None" = None
_fire_counts: "dict[tuple[str, str], int]" = {}
_notes: "list[tuple[str, str]]" = []
_in_pool_worker = False


def install(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Install ``plan`` (a :class:`FaultPlan`, a spec string, or ``None``
    to clear), resetting fire counters.  Returns the previous plan."""
    global _installed
    prev = _installed
    _installed = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    _fire_counts.clear()
    return prev


@contextmanager
def injected(spec: "FaultPlan | str"):
    """Scope a fault plan: ``with faults.injected("worker.hang:fuzz42"):``."""
    prev = install(spec)
    try:
        yield
    finally:
        install(prev)


def active_plan() -> "FaultPlan | None":
    """The installed plan, or ``None``."""
    return _installed


def fires(site: str, key: str, attempt: "int | None" = None) -> bool:
    """Should the fault at ``site`` fire for ``key``?

    With ``attempt`` given (the batch scheduler's per-kind failure count
    for this work item), a ``times=N`` rule fires iff ``attempt < N`` —
    deterministic across retries and worker respawns.  Without it the
    rule consumes one firing from a per-process counter (used for
    attempt-less sites like cache writes)."""
    plan = _installed
    if plan is None:
        return False
    rule = plan.rule_for(site, key)
    if rule is None:
        return False
    if rule.times is None:
        return True
    if attempt is not None:
        return attempt < rule.times
    counter = (site, rule.match)
    fired = _fire_counts.get(counter, 0)
    if fired >= rule.times:
        return False
    _fire_counts[counter] = fired + 1
    return True


def maybe_fail(site: str, key: str, attempt: "int | None" = None) -> None:
    """Fault hook: a no-op unless the active plan has a firing rule for
    ``(site, key)`` — then perform the site's failure action."""
    if not fires(site, key, attempt):
        return
    if site == "worker.crash":
        if _in_pool_worker:
            os._exit(13)  # an honest-to-goodness dead worker, no cleanup
        raise WorkerCrashError(f"injected worker crash for {key!r}")
    if site == "worker.hang":
        _hang(key)
        return
    if site == "worker.transient":
        raise TransientWorkerError(f"injected transient fault for {key!r}")
    if site == "oracle.timeout":
        raise KernelTimeoutError(f"injected oracle timeout for {key!r}")
    if site == "cache.write":
        raise OSError(f"injected cache write failure for {key!r}")
    # worker.error / analysis.passes / engine.compiled /
    # engine.parallel.* / engine.inspector.*: an "unexpected" internal
    # bug (cache.corrupt is handled at the write site itself)
    raise FaultInjected(f"injected fault at {site} for {key!r}")


def _hang(key: str) -> None:
    """Stall in small sleeps so a SIGALRM watchdog can interrupt; give up
    with a timeout of our own after :data:`HANG_CAP_SECONDS`."""
    deadline = time.monotonic() + HANG_CAP_SECONDS
    while time.monotonic() < deadline:
        time.sleep(0.05)
    raise KernelTimeoutError(
        f"injected hang for {key!r} exceeded the {HANG_CAP_SECONDS:g}s cap"
    )


# -- wall-clock watchdog ------------------------------------------------------


@contextmanager
def time_budget(seconds: "float | None", label: str = ""):
    """Raise :class:`KernelTimeoutError` if the body runs longer than
    ``seconds`` wall-clock.  SIGALRM-based, so it interrupts pure-Python
    hangs; a no-op when ``seconds`` is None, off the main thread, or on
    platforms without SIGALRM."""
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ANN001
        raise KernelTimeoutError(
            f"{label or 'task'}: wall-clock budget of {seconds:g}s exceeded"
        )

    prev = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev)


# -- graceful-degradation plumbing -------------------------------------------

_MAX_NOTES = 1000


def note_fallback(kind: str, detail: str) -> None:
    """Record one taken fallback (``kind`` like ``"engine:interp"``) for
    the current process; drained into batch health sections."""
    if len(_notes) < _MAX_NOTES:
        _notes.append((kind, detail))


def drain_fallback_notes() -> "list[tuple[str, str]]":
    out = list(_notes)
    _notes.clear()
    return out


# -- process-pool integration -------------------------------------------------


def pool_worker_init(spec: "str | None") -> None:
    """Initializer for batch worker processes: marks the process as a
    pool worker (so an injected crash may genuinely ``os._exit``) and
    installs the parent's fault plan, which otherwise would not survive
    a spawn-start or a pool respawn."""
    global _in_pool_worker
    _in_pool_worker = True
    install(spec)
