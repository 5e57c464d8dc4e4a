"""NPB CG workload (the paper's evaluation benchmark), reimplemented.

Provides the class table (S/W/A/B/C with the official na/nonzer/niter/
shift parameters), a ``makea``-equivalent sparse-matrix generator, the
CSR assembly written exactly in the paper's Figure-9 loop shape (so the
compiler pipeline, the interpreter and the oracle can all run it), and
the NPB-style CG driver (outer iterations computing ``zeta``, inner
25-step conjugate-gradient solves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import WorkloadError


@dataclass(frozen=True)
class CGClass:
    """One NPB problem class."""

    name: str
    na: int
    nonzer: int
    niter: int
    shift: float

    def estimated_nnz(self) -> int:
        """Nonzero estimate used by the performance model (the official
        generator produces ≈ na·(nonzer+1)² entries)."""
        return self.na * (self.nonzer + 1) ** 2


CG_CLASSES: dict[str, CGClass] = {
    "S": CGClass("S", 1400, 7, 15, 10.0),
    "W": CGClass("W", 7000, 8, 15, 12.0),
    "A": CGClass("A", 14000, 11, 15, 20.0),
    "B": CGClass("B", 75000, 13, 75, 60.0),
    "C": CGClass("C", 150000, 15, 75, 110.0),
}


# --------------------------------------------------------------------------
# Matrix generation (makea equivalent)
# --------------------------------------------------------------------------


def make_sparse_rows(
    na: int, nonzer: int, seed: int = 314159265
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generate, per row, sorted column indices and values of a sparse
    symmetric positive-definite-ish matrix in the spirit of NPB ``makea``
    (random sparse outer-product structure; diagonal added separately by
    :func:`assemble_csr`)."""
    if na <= 0 or nonzer <= 0:
        raise WorkloadError(f"invalid matrix parameters na={na} nonzer={nonzer}")
    rng = np.random.default_rng(seed)
    cols_per_row: list[set[int]] = [set() for _ in range(na)]
    vals_per_row: list[dict[int, float]] = [dict() for _ in range(na)]
    for _ in range(nonzer):
        r = rng.integers(0, na, size=na)
        c = rng.integers(0, na, size=na)
        v = rng.random(na) * 2.0 - 1.0
        for i in range(na):
            ri, ci, vi = int(r[i]), int(c[i]), float(v[i])
            for a, b in ((ri, ci), (ci, ri)):  # keep it symmetric
                if b not in cols_per_row[a]:
                    cols_per_row[a].add(b)
                    vals_per_row[a][b] = vi * 0.1
    rows_cols: list[np.ndarray] = []
    rows_vals: list[np.ndarray] = []
    for i in range(na):
        cols = np.array(sorted(cols_per_row[i]), dtype=np.int64)
        vals = np.array([vals_per_row[i][c] for c in cols], dtype=np.float64)
        rows_cols.append(cols)
        rows_vals.append(vals)
    return rows_cols, rows_vals


def assemble_csr(
    rows_cols: list[np.ndarray],
    rows_vals: list[np.ndarray],
    shift: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble CSR arrays **with the paper's Figure-9 loop structure**:
    count nonzeros per row, prefix-sum ``rowptr`` via the recurrence
    ``rowptr[i] = rowptr[i-1] + rowsize[i-1]``, then scatter.

    Returns ``(rowptr, colidx, values)`` with the ``shift`` added on the
    diagonal (making the system well conditioned, as NPB does with the
    identity shift).
    """
    n = len(rows_cols)
    rowsize = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cols = rows_cols[i]
        has_diag = bool(np.any(cols == i))
        rowsize[i] = len(cols) + (0 if has_diag else 1)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    rowptr[0] = 0
    for i in range(1, n + 1):
        rowptr[i] = rowptr[i - 1] + rowsize[i - 1]
    nnz = int(rowptr[n])
    colidx = np.zeros(nnz, dtype=np.int64)
    values = np.zeros(nnz, dtype=np.float64)
    for i in range(n):
        k = int(rowptr[i])
        cols = rows_cols[i]
        vals = rows_vals[i]
        wrote_diag = False
        for j in range(len(cols)):
            c = int(cols[j])
            v = float(vals[j])
            if c == i:
                v += shift
                wrote_diag = True
            colidx[k] = c
            values[k] = v
            k += 1
        if not wrote_diag:
            colidx[k] = i
            values[k] = shift
            k += 1
            # keep the row sorted: single out-of-place diagonal insertion
            order = np.argsort(colidx[int(rowptr[i]) : k], kind="stable")
            seg = slice(int(rowptr[i]), k)
            colidx[seg] = colidx[seg][order]
            values[seg] = values[seg][order]
    return rowptr, colidx, values


def build_matrix(cls: CGClass, seed: int = 314159265) -> sp.csr_matrix:
    """Full pipeline: generate rows, assemble CSR, wrap in SciPy."""
    rows_cols, rows_vals = make_sparse_rows(cls.na, cls.nonzer, seed)
    rowptr, colidx, values = assemble_csr(rows_cols, rows_vals, cls.shift)
    return sp.csr_matrix((values, colidx, rowptr), shape=(cls.na, cls.na))


def scaled_class(name: str, scale: float, niter: int | None = None) -> CGClass:
    """A size-scaled variant of an official class (Python-speed runs)."""
    base = CG_CLASSES[name]
    return CGClass(
        name=f"{name}/×{scale:g}",
        na=max(8, int(base.na * scale)),
        nonzer=max(2, int(base.nonzer * max(scale, 0.25))),
        niter=niter if niter is not None else base.niter,
        shift=base.shift,
    )


# --------------------------------------------------------------------------
# CG driver (NPB structure)
# --------------------------------------------------------------------------


@dataclass
class CGResult:
    zeta: float
    zeta_history: list[float]
    residual: float


def conj_grad(A: sp.csr_matrix, x: np.ndarray, cgitmax: int = 25) -> tuple[np.ndarray, float]:
    """One NPB ``conj_grad`` call: approximately solve ``A z = x``."""
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(cgitmax):
        q = A @ p
        alpha = rho / float(p @ q)
        z += alpha * p
        r -= alpha * q
        rho0 = rho
        rho = float(r @ r)
        beta = rho / rho0
        p = r + beta * p
    rnorm = float(np.linalg.norm(x - A @ z))
    return z, rnorm


def cg_benchmark(A: sp.csr_matrix, niter: int, shift: float) -> CGResult:
    """The NPB CG outer loop: power-method style zeta estimation."""
    n = A.shape[0]
    x = np.ones(n, dtype=np.float64)
    zeta = 0.0
    history: list[float] = []
    rnorm = 0.0
    for _ in range(niter):
        z, rnorm = conj_grad(A, x)
        zeta = shift + 1.0 / float(x @ z)
        history.append(zeta)
        x = z / np.linalg.norm(z)
    return CGResult(zeta=zeta, zeta_history=history, residual=rnorm)


# --------------------------------------------------------------------------
# The paper's kernels as runnable Python (oracle / executor reference)
# --------------------------------------------------------------------------


def product_loop_serial(
    rowptr: np.ndarray, value: np.ndarray, vector: np.ndarray
) -> np.ndarray:
    """Figure 9 lines 17–28: the to-be-parallelized product loop,
    executed sequentially (the baseline)."""
    n = len(rowptr) - 1
    out = np.zeros(int(rowptr[n]), dtype=np.float64)
    for i in range(n + 1):
        j1 = i if i == 0 else int(rowptr[i - 1])
        for j in range(j1, int(rowptr[i])):
            out[j] = value[j] * vector[j]
    return out
