"""CSR utilities mirroring the paper's loop shapes.

These are the Python twins of the mini-C corpus kernels: same loop
structure, NumPy storage.  Tests cross-validate the interpreter running
the C kernels against these implementations, and the property-based
suite checks the structural invariants (monotone ``rowptr``, injective
permutations, ...) that the compiler derives symbolically.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def csr_from_dense(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Figure 9 lines 1–15 verbatim: compress a dense matrix.

    Returns ``(rowsize, rowptr, column_number, value)``.
    """
    if a.ndim != 2:
        raise WorkloadError("csr_from_dense expects a 2-D array")
    rowlen, columnlen = a.shape
    rowsize = np.zeros(rowlen, dtype=np.int64)
    column_number = np.zeros(a.size, dtype=np.int64)
    value = np.zeros(a.size, dtype=a.dtype)
    index = 0
    ind = 0
    for i in range(rowlen):
        count = 0
        for j in range(columnlen):
            if a[i, j] != 0:
                count += 1
                column_number[index] = j
                index += 1
                value[ind] = a[i, j]
                ind += 1
        rowsize[i] = count
    rowptr = np.zeros(rowlen + 1, dtype=np.int64)
    rowptr[0] = 0
    for i in range(1, rowlen + 1):
        rowptr[i] = rowptr[i - 1] + rowsize[i - 1]
    return rowsize, rowptr, column_number[: int(rowptr[-1])], value[: int(rowptr[-1])]


def spmv(rowptr: np.ndarray, colidx: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """CSR sparse mat-vec with the classic subscripted-subscript gather
    ``x[colidx[k]]`` (Figure 3's access pattern)."""
    n = len(rowptr) - 1
    y = np.zeros(n, dtype=np.float64)
    for i in range(n):
        acc = 0.0
        for k in range(int(rowptr[i]), int(rowptr[i + 1])):
            acc += values[k] * x[colidx[k]]
        y[i] = acc
    return y


def spmv_numpy(rowptr: np.ndarray, colidx: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized reference for :func:`spmv`."""
    import scipy.sparse as sp

    n = len(rowptr) - 1
    A = sp.csr_matrix((values, colidx, rowptr), shape=(n, int(x.shape[0])))
    return A @ x


def is_monotonic(arr: np.ndarray, strict: bool = False) -> bool:
    """Dynamic check of the paper's monotonicity property."""
    if len(arr) < 2:
        return True
    d = np.diff(arr)
    return bool(np.all(d > 0)) if strict else bool(np.all(d >= 0))


def is_injective(arr: np.ndarray) -> bool:
    """Dynamic check of the paper's injectivity property."""
    return len(np.unique(arr)) == len(arr)


def shift_columns(rowptr: np.ndarray, colidx: np.ndarray, firstcol: int) -> np.ndarray:
    """Figure 3 verbatim: rebase column indices row by row."""
    out = colidx.copy()
    n = len(rowptr) - 1
    for j in range(n):
        for k in range(int(rowptr[j]), int(rowptr[j + 1])):
            out[k] = out[k] - firstcol
    return out


def scatter_rows(
    rowstr: np.ndarray,
    nzloc: np.ndarray,
    v: np.ndarray,
    iv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 4 verbatim: compact rows after eliminating zero entries.

    The difference ``rowstr − nzloc`` must be monotonic for the outer
    loop to be parallel; inputs from :mod:`repro.workloads.generators`
    guarantee it the way CG's ``sparse()`` routine does.
    """
    nrows = len(rowstr) - 1
    total = int(rowstr[nrows] - nzloc[nrows - 1])
    a = np.zeros(total, dtype=np.float64)
    colidx = np.zeros(total, dtype=np.int64)
    for j in range(nrows):
        j1 = int(rowstr[j] - nzloc[j - 1]) if j > 0 else 0
        j2 = int(rowstr[j + 1] - nzloc[j])
        nza = int(rowstr[j])
        for k in range(j1, j2):
            a[k] = v[nza]
            colidx[k] = iv[nza]
            nza += 1
    return a, colidx
