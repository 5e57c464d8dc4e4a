"""Measurement machinery shared by the workloads: host-speed calibration,
in-memory spans for the traced run, and summary statistics.

Nothing here imports ``repro``: the calibration kernel must measure the
host, not the program under test.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

#: 1 MiB of float64 — past the L1/L2 caches, small enough that one
#: calibration sample costs a few milliseconds
_CALIB_WORDS = 131072
_CALIB_PY_ITERS = 25000
#: small objects built into a tree, walked and indexed per sample
_CALIB_NODES = 2000


class _Node:
    __slots__ = ("key", "val", "kids")

    def __init__(self, key: int, val: int) -> None:
        self.key = key
        self.val = val
        self.kids: list = []


def _calibration_kernel(bufs: tuple, parents: list) -> int:
    """Fixed work with no ``repro`` code: a pure-Python integer loop (the
    interpreter speed every workload depends on); a tree of small
    objects built, walked with type checks, keyed into a dict and sorted
    (allocation and pointer chasing over fresh objects, which is what
    the program's compiler and engines do per op, and which neighbours
    sharing the caches and memory slow down more than the integer loop);
    and NumPy arithmetic plus a copy over a 1 MiB array.  The arrays are
    preallocated: a fresh 1 MiB array is mapped and page-faulted on
    every call, and that cost varies with the process's memory state
    far more than with the host's speed."""
    acc = 0
    for i in range(_CALIB_PY_ITERS):
        acc = (acc * 31 + i) & 0xFFFFF
    nodes = [_Node(i, (i * 7919) % 1009) for i in range(len(parents))]
    for child in range(1, len(parents)):
        nodes[parents[child]].kids.append(nodes[child])
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        acc += node.val
        if isinstance(node, _Node):
            stack.extend(node.kids)
    index = {(n.val, n.key & 7): n for n in nodes}
    acc += len(sorted(index))
    src, tmp, dst = bufs
    np.multiply(src, 1.0001, out=tmp)
    np.add(tmp, 0.5, out=tmp)
    np.copyto(dst, tmp)
    return acc


#: an op's time is scaled by the median of this many calibration samples
#: around it (about a second of ops on every workload)
LOCAL_SAMPLES = 9


class Calibrator:
    """Samples the calibration kernel between ops.  Timings are reported
    at reference host speed: multiplied by ``ref_ms / median(samples)``
    over the samples taken around them, which cancels the host's own
    drift (a 2-vCPU VM whose neighbours come and go) within and between
    runs."""

    def __init__(self, ref_ms: float) -> None:
        self.ref_ms = ref_ms
        self.samples_ms: list[float] = []
        self._bufs = tuple(np.linspace(0.0, 1.0, _CALIB_WORDS) for _ in range(3))
        rng = random.Random(0)
        #: a random recursive tree: node i hangs under an earlier node
        self._parents = [0] + [rng.randrange(i) for i in range(1, _CALIB_NODES)]

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_kernel(self._bufs, self._parents)
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def median_ms(self, first: int = 0) -> float:
        return statistics.median(self.samples_ms[first:])

    def scale(self, first: int = 0) -> float:
        """Factor that converts a raw time on this run's host into a time
        at reference host speed, from the samples since ``first``."""
        return self.ref_ms / self.median_ms(first)

    def local_scales(self, first: int) -> list[float]:
        """One scale per sample since ``first``: from the median of the
        LOCAL_SAMPLES samples centred on it."""
        samples = self.samples_ms[first:]
        half = LOCAL_SAMPLES // 2
        return [
            self.ref_ms / statistics.median(samples[max(0, j - half) : j + half + 1])
            for j in range(len(samples))
        ]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    op: int
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """Spans around the harness's own calls into the program's layers.

    Spans stay in memory until the run ends.  A disabled tracer hands out
    one shared no-op context, so the untraced run pays a method call per
    layer and nothing else."""

    enabled: bool
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, self.op, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def self_times_ns(self) -> dict[str, int]:
        """Total self time by span name: each span's duration minus the
        part its child spans cover."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, int] = {}
        for s, covered in zip(self.spans, child_ns):
            out[s.name] = out.get(s.name, 0) + (s.end_ns - s.start_ns - covered)
        return out

    def totals_ns(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + (s.end_ns - s.start_ns)
        return out

    def child_coverage(self, root: str) -> float:
        """Smallest share, over the ``root`` spans, of a span's time that
        its direct children cover."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
        shares = [
            child_ns.get(i, 0) / max(1, s.end_ns - s.start_ns)
            for i, s in enumerate(self.spans)
            if s.name == root
        ]
        return min(shares) if shares else 0.0


_NO_SPAN = nullcontext()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
