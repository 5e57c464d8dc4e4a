"""The paper's figure kernels as a machine-checkable corpus.

Each :class:`CorpusKernel` carries

* the mini-C source, printed in the paper (Figures 2–9) or reconstructed
  from its description;
* the label of the loop the paper claims parallelizable and the pattern
  class (P1–P6, DESIGN.md Section 4);
* the **assertions** seeding index-array properties whose filling code
  is *not* part of the excerpt (the paper verified these by inspecting
  the applications; Figure 9 needs none — its properties are derived);
* an input generator and a NumPy reference implementation, used by the
  interpreter-equivalence and oracle soundness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.env import ELEM, ArrayRecord, PropertyEnv
from repro.analysis.properties import Prop
from repro.ir.symx import CondAtom
from repro.symbolic.expr import array_term, const
from repro.symbolic.facts import CompositeMonoFact, MonoDir
from repro.workloads import csparse_kernels, generators, npb_ua, sparse


@dataclass
class CorpusKernel:
    name: str
    figure: str
    pattern: str  # P1..P6 (DESIGN.md Section 4)
    property_needed: str
    source: str
    target_loop: str
    expect_parallel: bool = True
    derives_properties: bool = False  # True: no assertions needed (Fig 9 class)
    assertions: Callable[[], PropertyEnv] | None = None
    make_inputs: Callable[[int], dict[str, Any]] | None = None
    reference: Callable[[dict[str, Any]], dict[str, np.ndarray]] | None = None
    notes: str = ""

    def assertion_env(self) -> PropertyEnv | None:
        return self.assertions() if self.assertions is not None else None


# --------------------------------------------------------------------------
# Figure 2 — injectivity (UA)
# --------------------------------------------------------------------------

FIG2_SRC = """
void fig2(int mt_to_id[], int id_to_mt[], int nelt)
{
    int miel, iel;
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id[miel];
        id_to_mt[iel] = miel;
    }
}
"""


def _fig2_assert() -> PropertyEnv:
    env = PropertyEnv()
    env.set_record(
        ArrayRecord("mt_to_id", props=frozenset({Prop.INJECTIVE}), source="asserted")
    )
    return env


def _fig2_inputs(seed: int) -> dict[str, Any]:
    n = 32
    return {
        "mt_to_id": generators.injective_map(n, seed),
        "id_to_mt": np.full(n, -1, dtype=np.int64),
        "nelt": n,
    }


def _fig2_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    return {"id_to_mt": npb_ua.invert_map(env["mt_to_id"], env["nelt"])}


# --------------------------------------------------------------------------
# Figure 3 — non-strict monotonicity (CG)
# --------------------------------------------------------------------------

FIG3_SRC = """
void fig3(int colidx[], int rowstr[], int lastrow, int firstrow, int firstcol)
{
    int j, k;
    for (j = 0; j < lastrow - firstrow + 1; j++) {
        for (k = rowstr[j]; k < rowstr[j+1]; k++) {
            colidx[k] = colidx[k] - firstcol;
        }
    }
}
"""


def _fig3_assert() -> PropertyEnv:
    env = PropertyEnv()
    env.set_record(
        ArrayRecord("rowstr", props=frozenset({Prop.MONO_INC}), source="asserted")
    )
    return env


def _fig3_inputs(seed: int) -> dict[str, Any]:
    n_rows = 24
    rowstr = generators.monotonic_rowptr(n_rows, seed=seed)
    nnz = int(rowstr[-1])
    rng = generators.rng_of(seed + 1)
    return {
        "colidx": rng.integers(5, 50, size=max(nnz, 1)).astype(np.int64),
        "rowstr": rowstr,
        "lastrow": n_rows - 1,
        "firstrow": 0,
        "firstcol": 5,
    }


def _fig3_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    return {
        "colidx": sparse.shift_columns(env["rowstr"], env["colidx"], env["firstcol"])
    }


# --------------------------------------------------------------------------
# Figure 4 — monotonic difference between arrays (CG)
# --------------------------------------------------------------------------

FIG4_SRC = """
void fig4(double a[], int colidx[], int rowstr[], int nzloc[],
          double v[], int iv[], int nrows)
{
    int j, j1, j2, k, nza;
    for (j = 0; j < nrows; j++) {
        if (j > 0) {
            j1 = rowstr[j] - nzloc[j-1];
        } else {
            j1 = 0;
        }
        j2 = rowstr[j+1] - nzloc[j];
        nza = rowstr[j];
        for (k = j1; k < j2; k++) {
            a[k] = v[nza];
            colidx[k] = iv[nza];
            nza = nza + 1;
        }
    }
}
"""


def _fig4_assert() -> PropertyEnv:
    env = PropertyEnv()
    # e(j) = rowstr[j] - nzloc[j-1] is monotonically increasing
    env.composites.append(
        CompositeMonoFact(
            terms=((1, "rowstr", 0), (-1, "nzloc", -1)),
            direction=MonoDir.INC,
        )
    )
    env.set_record(
        ArrayRecord("rowstr", props=frozenset({Prop.MONO_INC}), source="asserted")
    )
    env.set_record(
        ArrayRecord("nzloc", props=frozenset({Prop.MONO_INC}), source="asserted")
    )
    return env


def _fig4_inputs(seed: int) -> dict[str, Any]:
    n_rows = 16
    rowstr, nzloc = generators.rowstr_nzloc(n_rows, seed=seed)
    nnz = int(rowstr[-1])
    rng = generators.rng_of(seed + 1)
    total = max(int(rowstr[n_rows] - nzloc[n_rows - 1]), 1)
    return {
        "a": np.zeros(total, dtype=np.float64),
        "colidx": np.zeros(total, dtype=np.int64),
        "rowstr": rowstr,
        "nzloc": np.concatenate([nzloc, [nzloc[-1]]]),  # nzloc[j] for j in 0..n
        "v": rng.random(max(nnz, 1)),
        "iv": rng.integers(0, 100, size=max(nnz, 1)).astype(np.int64),
        "nrows": n_rows,
    }


def _fig4_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    a, colidx = sparse.scatter_rows(
        env["rowstr"], env["nzloc"], env["v"], env["iv"]
    )
    return {"a": a, "colidx": colidx}


# --------------------------------------------------------------------------
# Figure 5 — injective subset (CSparse)
# --------------------------------------------------------------------------

FIG5_SRC = """
void fig5(int jmatch[], int imatch[], int m)
{
    int i;
    for (i = 0; i < m; i++) {
        if (jmatch[i] >= 0) {
            imatch[jmatch[i]] = i;
        }
    }
}
"""


def _fig5_assert() -> PropertyEnv:
    env = PropertyEnv()
    env.set_record(
        ArrayRecord(
            "jmatch",
            props=frozenset({Prop.INJECTIVE}),
            subset_guards=(CondAtom(">=", array_term("jmatch", ELEM), const(0)),),
            source="asserted",
        )
    )
    return env


def _fig5_inputs(seed: int) -> dict[str, Any]:
    m = 40
    jmatch = generators.jmatch_partial(m, seed=seed)
    return {
        "jmatch": jmatch,
        "imatch": np.full(m, -1, dtype=np.int64),
        "m": m,
    }


def _fig5_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    return {
        "imatch": csparse_kernels.invert_matching(env["jmatch"], len(env["imatch"]))
    }


# --------------------------------------------------------------------------
# Figure 6 — simultaneous monotonicity and injectivity (CSparse)
# --------------------------------------------------------------------------

FIG6_SRC = """
void fig6(int r[], int p[], int Blk[], int nb)
{
    int b, k;
    for (b = 0; b < nb; b++) {
        for (k = r[b]; k < r[b+1]; k++) {
            Blk[p[k]] = b;
        }
    }
}
"""


def _fig6_assert() -> PropertyEnv:
    env = PropertyEnv()
    env.set_record(
        ArrayRecord("r", props=frozenset({Prop.MONO_INC}), source="asserted")
    )
    env.set_record(
        ArrayRecord("p", props=frozenset({Prop.INJECTIVE}), source="asserted")
    )
    return env


def _fig6_inputs(seed: int) -> dict[str, Any]:
    n, nb = 48, 6
    r, p = generators.blocks_r_p(n, nb, seed)
    return {
        "r": r,
        "p": p,
        "Blk": np.full(n, -1, dtype=np.int64),
        "nb": nb,
    }


def _fig6_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    return {"Blk": csparse_kernels.scatter_block_ids(env["r"], env["p"], len(env["Blk"]))}


# --------------------------------------------------------------------------
# Figure 7 — simultaneous injectivity via expressions (UA)
# --------------------------------------------------------------------------

FIG7_SRC = """
void fig7(int action[], int mt_to_id_old[], int front[], int tree[],
          int num_refine, int nelttemp, int ntemp)
{
    int index, miel, iel, nelt, i;
    for (index = 0; index < num_refine; index++) {
        miel = action[index];
        iel = mt_to_id_old[miel];
        nelt = nelttemp + (front[miel] - 1) * 7;
        for (i = 0; i < 7; i++) {
            tree[nelt + i] = ntemp + ((i + 1) % 8);
        }
    }
}
"""


def _fig7_assert() -> PropertyEnv:
    env = PropertyEnv()
    # UA's refinement lists are sorted, so action is strictly increasing
    # (hence injective); front counts cumulative refinements — strictly
    # increasing; the composed expression is then injective with 7-wide
    # disjoint blocks (the paper's "expressions must be injective too").
    env.set_record(
        ArrayRecord("action", props=frozenset({Prop.STRICT_INC}), source="asserted")
    )
    env.set_record(
        ArrayRecord("front", props=frozenset({Prop.STRICT_INC}), source="asserted")
    )
    env.set_record(
        ArrayRecord("mt_to_id_old", props=frozenset({Prop.INJECTIVE}), source="asserted")
    )
    return env


def _fig7_inputs(seed: int) -> dict[str, Any]:
    nelt, num_refine = 24, 8
    data = generators.ua_refinement(nelt, num_refine, seed)
    action = np.sort(data["action"])
    front = data["front"]
    tree_size = 7 * (int(front.max()) + 1) + 8
    return {
        "action": action,
        "mt_to_id_old": data["mt_to_id_old"],
        "front": front,
        "tree": np.zeros(tree_size, dtype=np.int64),
        "num_refine": num_refine,
        "nelttemp": 7,
        "ntemp": 3,
    }


def _fig7_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    return {
        "tree": npb_ua.transfer_tree(
            env["action"],
            env["mt_to_id_old"],
            env["front"],
            env["nelttemp"],
            env["ntemp"],
            len(env["tree"]),
        )
    }


# --------------------------------------------------------------------------
# Figure 8 — disjoint injective expressions (UA)
# --------------------------------------------------------------------------

FIG8_SRC = """
void fig8(int mt_to_id_old[], int mt_to_id[], int front[], int ich[],
          int ref_front_id[], int nelt)
{
    int miel, iel, ntemp, mielnew;
    for (miel = 0; miel < nelt; miel++) {
        iel = mt_to_id_old[miel];
        if (ich[iel] == 4) {
            ntemp = (front[miel] - 1) * 7;
            mielnew = miel + ntemp;
        } else {
            ntemp = front[miel] * 7;
            mielnew = miel + ntemp;
        }
        mt_to_id[mielnew] = iel;
        ref_front_id[iel] = nelt + ntemp;
    }
}
"""


def _fig8_assert() -> PropertyEnv:
    env = PropertyEnv()
    env.set_record(
        ArrayRecord("front", props=frozenset({Prop.STRICT_INC}), source="asserted")
    )
    env.set_record(
        ArrayRecord("mt_to_id_old", props=frozenset({Prop.INJECTIVE}), source="asserted")
    )
    return env


def _fig8_inputs(seed: int) -> dict[str, Any]:
    nelt = 20
    data = generators.ua_refinement(nelt, nelt // 2, seed)
    front = data["front"]
    size = nelt + 7 * (int(front.max()) + 1)
    return {
        "mt_to_id_old": data["mt_to_id_old"],
        "mt_to_id": np.full(size, -1, dtype=np.int64),
        "front": front,
        "ich": data["ich"],
        "ref_front_id": np.full(nelt, -1, dtype=np.int64),
        "nelt": nelt,
    }


def _fig8_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    mt, ref = npb_ua.remap_elements(
        env["mt_to_id_old"], env["front"], env["ich"], env["nelt"]
    )
    out_mt = np.full(len(env["mt_to_id"]), -1, dtype=np.int64)
    out_mt[: len(mt)] = mt[: len(out_mt)]
    return {"mt_to_id": out_mt, "ref_front_id": ref}


# --------------------------------------------------------------------------
# Figure 9 — the derivable class: CSR fill + product loop
# --------------------------------------------------------------------------

FIG9_SRC = """
void fig9(int a[ROWLEN][COLUMNLEN], int ROWLEN, int COLUMNLEN,
          int rowsize[], int rowptr[], int column_number[], int value[],
          int vector[], int product_array[])
{
    int i, j, j1, count, index, ind;
    index = 0;
    ind = 0;
    for (i = 0; i < ROWLEN; i++) {
        count = 0;
        for (j = 0; j < COLUMNLEN; j++) {
            if (a[i][j] != 0) {
                count++;
                column_number[index++] = j;
                value[ind++] = a[i][j];
            }
        }
        rowsize[i] = count;
    }
    rowptr[0] = 0;
    for (i = 1; i < ROWLEN + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowsize[i-1];
    }
    for (i = 0; i < ROWLEN + 1; i++) {
        if (i == 0) {
            j1 = i;
        } else {
            j1 = rowptr[i-1];
        }
        for (j = j1; j < rowptr[i]; j++) {
            product_array[j] = value[j] * vector[j];
        }
    }
}
"""


def _fig9_inputs(seed: int) -> dict[str, Any]:
    rows, cols = 10, 14
    a = generators.sparse_dense_matrix(rows, cols, density=0.35, seed=seed)
    size = a.size
    return {
        "a": a,
        "ROWLEN": rows,
        "COLUMNLEN": cols,
        "rowsize": np.zeros(rows, dtype=np.int64),
        "rowptr": np.zeros(rows + 1, dtype=np.int64),
        "column_number": np.zeros(size, dtype=np.int64),
        "value": np.zeros(size, dtype=np.int64),
        "vector": generators.rng_of(seed + 2).integers(1, 9, size=size).astype(np.int64),
        "product_array": np.zeros(size, dtype=np.int64),
    }


def _fig9_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    rowsize, rowptr, column_number, value = sparse.csr_from_dense(env["a"])
    nnz = int(rowptr[-1])
    product = np.zeros(len(env["product_array"]), dtype=np.int64)
    product[:nnz] = value * env["vector"][:nnz]
    out_cn = np.zeros(len(env["column_number"]), dtype=np.int64)
    out_cn[:nnz] = column_number
    out_val = np.zeros(len(env["value"]), dtype=np.int64)
    out_val[:nnz] = value
    return {
        "rowsize": rowsize,
        "rowptr": rowptr,
        "column_number": out_cn,
        "value": out_val,
        "product_array": product,
    }


# --------------------------------------------------------------------------
# Negative control — genuinely sequential histogram (IS ranking)
# --------------------------------------------------------------------------

HISTOGRAM_SRC = """
void histogram(int key[], int counts[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        counts[key[i]] = counts[key[i]] + 1;
    }
}
"""


def _histogram_inputs(seed: int) -> dict[str, Any]:
    n = 50
    rng = generators.rng_of(seed)
    return {
        "key": rng.integers(0, 8, size=n).astype(np.int64),
        "counts": np.zeros(8, dtype=np.int64),
        "n": n,
    }


def _histogram_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    counts = np.bincount(env["key"], minlength=len(env["counts"])).astype(np.int64)
    return {"counts": counts}


# --------------------------------------------------------------------------
# Strict-monotonicity kernel (pattern P2b, described in Section 2 text)
# --------------------------------------------------------------------------

STRICT_SRC = """
void strict_mono(int offsets[], int data[], int n)
{
    int i;
    for (i = 0; i < n; i++) {
        offsets[i] = i * 3 + 3;
    }
    for (i = 0; i < n; i++) {
        data[offsets[i]] = i;
    }
}
"""


def _strict_inputs(seed: int) -> dict[str, Any]:
    n = 20
    return {
        "offsets": np.zeros(n, dtype=np.int64),
        "data": np.zeros(n * 3 + 4, dtype=np.int64),
        "n": n,
    }


def _strict_ref(env: dict[str, Any]) -> dict[str, np.ndarray]:
    n = env["n"]
    offsets = np.arange(n, dtype=np.int64) * 3 + 3
    data = np.zeros(len(env["data"]), dtype=np.int64)
    data[offsets] = np.arange(n)
    return {"offsets": offsets, "data": data}


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

FIGURE_KERNELS: dict[str, CorpusKernel] = {
    k.name: k
    for k in [
        CorpusKernel(
            name="fig2_ua_injective",
            figure="Figure 2",
            pattern="P1",
            property_needed="Injectivity of mt_to_id",
            source=FIG2_SRC,
            target_loop="L1",
            assertions=_fig2_assert,
            make_inputs=_fig2_inputs,
            reference=_fig2_ref,
        ),
        CorpusKernel(
            name="fig3_cg_monotonic",
            figure="Figure 3",
            pattern="P2a",
            property_needed="Non-strict monotonicity of rowstr",
            source=FIG3_SRC,
            target_loop="L1",
            assertions=_fig3_assert,
            make_inputs=_fig3_inputs,
            reference=_fig3_ref,
        ),
        CorpusKernel(
            name="fig4_cg_monodiff",
            figure="Figure 4",
            pattern="P2c",
            property_needed="Monotonicity of rowstr[j] - nzloc[j-1]",
            source=FIG4_SRC,
            target_loop="L1",
            assertions=_fig4_assert,
            make_inputs=_fig4_inputs,
            reference=_fig4_ref,
        ),
        CorpusKernel(
            name="fig5_csparse_subset",
            figure="Figure 5",
            pattern="P3",
            property_needed="Injectivity of the non-negative subset of jmatch",
            source=FIG5_SRC,
            target_loop="L1",
            assertions=_fig5_assert,
            make_inputs=_fig5_inputs,
            reference=_fig5_ref,
        ),
        CorpusKernel(
            name="fig6_csparse_simul",
            figure="Figure 6",
            pattern="P4a",
            property_needed="Monotonicity of r + injectivity of p",
            source=FIG6_SRC,
            target_loop="L1",
            assertions=_fig6_assert,
            make_inputs=_fig6_inputs,
            reference=_fig6_ref,
        ),
        CorpusKernel(
            name="fig7_ua_simul_inj",
            figure="Figure 7",
            pattern="P4b",
            property_needed="Injectivity of action/front and of the block expression",
            source=FIG7_SRC,
            target_loop="L1",
            assertions=_fig7_assert,
            make_inputs=_fig7_inputs,
            reference=_fig7_ref,
            notes="action/front asserted strictly monotonic (UA builds them sorted)",
        ),
        CorpusKernel(
            name="fig8_ua_disjoint",
            figure="Figure 8",
            pattern="P5",
            property_needed="Disjoint strictly-monotonic expressions over front",
            source=FIG8_SRC,
            target_loop="L1",
            assertions=_fig8_assert,
            make_inputs=_fig8_inputs,
            reference=_fig8_ref,
        ),
        CorpusKernel(
            name="fig9_csr_product",
            figure="Figure 9",
            pattern="P6",
            property_needed="Monotonicity of rowptr, derived from the filling code",
            source=FIG9_SRC,
            target_loop="L3",
            derives_properties=True,
            make_inputs=_fig9_inputs,
            reference=_fig9_ref,
        ),
        CorpusKernel(
            name="strict_mono_kernel",
            figure="Section 2 (2b)",
            pattern="P2b",
            property_needed="Strict monotonicity (⟹ injectivity) of offsets",
            source=STRICT_SRC,
            target_loop="L2",
            derives_properties=True,
            make_inputs=_strict_inputs,
            reference=_strict_ref,
        ),
        CorpusKernel(
            name="histogram_serial",
            figure="(negative control)",
            pattern="-",
            property_needed="none — genuine output dependence",
            source=HISTOGRAM_SRC,
            target_loop="L1",
            expect_parallel=False,
            make_inputs=_histogram_inputs,
            reference=_histogram_ref,
        ),
    ]
}
