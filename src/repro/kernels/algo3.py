"""Algorithm 3 — variant *kji* with on-the-fly RNG (the CSC kernel).

The paper's preferred kernel on architectures that penalize random access
(Frontera): for each column ``k`` of the sparse block and each nonzero
``A[j, k]``, the ``d1`` sketch entries ``S[r:r+d1, j]`` are (re)generated
into a scratch vector ``v`` and accumulated with an axpy
``Ahat[:, k] += A[j, k] * v``.  All three operands are accessed with unit
stride; the price is regenerating a full column of the sketch per nonzero,
for a total of ``d * nnz(A)`` generated numbers (Section III-B) — which is
why the kernel's speed "is highly dependent on having a fast RNG".

Two implementations:

* :func:`algo3_block_reference` — the pseudocode verbatim (scalar loops,
  one ``set_state``/``get_samples`` per nonzero); the correctness anchor.
* :func:`algo3_block` — the production path.  Columns go in groups whose
  panel holds at most :data:`GROUP_ENTRIES` entries (whole columns, at
  least one per group).  One batched RNG call samples a group's panel
  ``Vᵀ`` (one row per nonzero, the sampler's native layout), and scipy's
  compiled ``csr_matvecs`` (:mod:`repro.kernels._spmm`) adds it as it
  is, ``Ahat_subᵀ[cols] += P @ Vᵀ``.
  ``P`` is the group's own CSC arrays read as CSR: the rebased column
  pointers, one panel column per nonzero, the values.  Every output entry
  receives ``a_jk * v_i`` with a separate multiply and add, in stored
  order: exactly the additions of :func:`algo3_block_reference`, so the
  result is bit-identical.  A ``(k, d1, n1)`` stack with a batched
  generator runs the same calls ``k * d1`` vectors wide.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..rng.base import SketchingRNG
from ..sparse.csc import CSCMatrix
from ..utils.timing import Stopwatch
from ._spmm import block_rows, csr_matvecs

__all__ = ["algo3_block_reference", "algo3_block"]


def _check_block(Ahat_sub: np.ndarray, A_sub: CSCMatrix) -> tuple[int, int]:
    if Ahat_sub.ndim != 2:
        raise ShapeError("Ahat_sub must be 2-D")
    d1 = Ahat_sub.shape[0]
    n1 = A_sub.shape[1]
    if Ahat_sub.shape[1] != n1:
        raise ShapeError(
            f"Ahat_sub has {Ahat_sub.shape[1]} columns but A_sub has {n1}"
        )
    return d1, n1


def algo3_block_reference(Ahat_sub: np.ndarray, A_sub: CSCMatrix, r: int,
                          rng: SketchingRNG) -> None:
    """Algorithm 3 verbatim: scalar loops, in-place update of ``Ahat_sub``.

    Parameters mirror the paper's pseudocode: ``Ahat_sub`` is the dense
    ``d1 x n1`` output block, ``A_sub`` the (full-height) sparse column
    block in CSC, and ``r`` the row offset of the output block within
    ``Ahat`` (the RNG checkpoint coordinate).
    """
    d1, n1 = _check_block(Ahat_sub, A_sub)
    for k in range(n1):
        rows, vals = A_sub.col(k)
        for t in range(rows.size):
            j = int(rows[t])
            a_jk = vals[t]
            v = rng.column_block(r, d1, j)  # set_state(r, j); get_samples(v)
            for i in range(d1):
                Ahat_sub[i, k] += a_jk * v[i]


#: Panel entries per column group, all sketches of a stack together
#: (more only for a single longer column): the group's panel stays
#: cache-sized, the role of the pseudocode's reusable vector ``v``.
GROUP_ENTRIES = 2 ** 18


def algo3_block(Ahat_sub: np.ndarray, A_sub: CSCMatrix, r: int,
                rng, watch: Stopwatch | None = None) -> None:
    """Vectorized Algorithm 3: grouped sketch panels, one compiled apply each.

    *Ahat_sub* is a ``(d1, n1)`` block with a
    :class:`~repro.rng.base.SketchingRNG`, or a ``(k, d1, n1)`` stack with
    a :class:`~repro.rng.batched.BatchedSketchRNG` whose ``k`` panels one
    call samples and one apply adds.  Either way each sketch's block is
    bit-identical to :func:`algo3_block_reference`.  When *watch* is
    given, RNG time is charged to the ``"sample"`` bucket and arithmetic
    to ``"compute"``.
    """
    n1 = A_sub.shape[1]
    d1 = block_rows(Ahat_sub, n1, rng)
    indptr = A_sub.indptr
    if indptr[n1] == indptr[0]:
        return
    sw = watch if watch is not None else Stopwatch()
    stacked = Ahat_sub.ndim == 3
    with sw.bucket("compute"):
        out_t = np.moveaxis(Ahat_sub, -1, 0)  # (n1, [k,] d1)
        Y = out_t if out_t.flags.c_contiguous else out_t.copy()
    # One nonzero's panel column holds d1 entries per sketch.
    group_nnz = max(1, GROUP_ENTRIES // max(1, Ahat_sub.size // n1))
    c = 0
    while c < n1:
        # Whole columns up to group_nnz nonzeros, at least one column.
        c_end = int(np.searchsorted(indptr, indptr[c] + group_nnz, "right"))
        c_end = max(c_end - 1, c + 1)
        lo, hi = int(indptr[c]), int(indptr[c_end])
        if hi > lo:
            js = A_sub.indices[lo:hi]
            with sw.bucket("sample"):
                V = (rng.column_block_stack(r, d1, js) if stacked
                     else rng.column_block_batch(r, d1, js))
            with sw.bucket("compute"):
                csr_matvecs(indptr[c:c_end + 1] - lo, np.arange(hi - lo),
                            A_sub.data[lo:hi], np.moveaxis(V, -1, 0),
                            Y[c:c_end])
        c = c_end
    if Y is not out_t:
        with sw.bucket("compute"):
            np.copyto(out_t, Y)
