"""Algorithm 4 — variant *jki* with on-the-fly RNG (the blocked-CSR kernel).

The paper's preferred kernel when random access is cheap or random numbers
are expensive (Perlmutter): for each non-empty row ``j`` of the vertical
sparse block, the sketch column ``S[r:r+d1, j]`` is generated **once** and
reused across the whole row via rank-1 updates
``Ahat_sub[:, k] += A[j, k] * v`` (Figure 3).  Relative to Algorithm 3
this cuts the generated-number count from ``d * nnz(A)`` to at most
``d * m * ceil(n / b_n)`` — and below that when rows of a block are empty,
which is why ``b_n`` is a tuning knob for exotic sparsity patterns
(Section III-B).  The cost is scattered updates into ``Ahat_sub`` driven by
the row's column pattern, and the auxiliary blocked-CSR structure.

* :func:`algo4_block_reference` — the pseudocode verbatim.
* :func:`algo4_block` — production path: one batched RNG call generates the
  panel ``Vᵀ`` for every non-empty row of the block (that is the entire
  RNG cost, demonstrating the reuse), in the layout the apply reads, then
  :func:`apply_panel` adds it,
  ``Ahat_subᵀ += P @ Vᵀ``, with scipy's compiled ``csr_matvecs``
  (:mod:`repro.kernels._spmm`), one call per chunk of :data:`PANEL_ROWS`
  panel rows (``n1`` in wider blocks).  ``P`` is the block's
  :func:`panel_pattern`, its CSC with rows renumbered to panel
  positions.  The kernel walks each column of ``P`` in ascending ``j``
  and adds ``a_jk * v`` with a separate multiply and add, so every
  output entry receives exactly the additions of
  :func:`algo4_block_reference`, in its order: the result is
  bit-identical.  A ``(k, d1, n1)`` stack with a batched generator makes
  the same calls once for the whole stack, ``k * d1`` vectors wide.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import ShapeError
from ..rng.base import SketchingRNG
from ..sparse.csr import CSRMatrix
from ..utils.timing import Stopwatch
from ._spmm import block_rows, csr_matvecs, csr_tocsc

__all__ = ["algo4_block_reference", "algo4_block"]


def _check_block(Ahat_sub: np.ndarray, A_blk: CSRMatrix) -> tuple[int, int]:
    if Ahat_sub.ndim != 2:
        raise ShapeError("Ahat_sub must be 2-D")
    d1 = Ahat_sub.shape[0]
    n1 = A_blk.shape[1]
    if Ahat_sub.shape[1] != n1:
        raise ShapeError(
            f"Ahat_sub has {Ahat_sub.shape[1]} columns but the block has {n1}"
        )
    return d1, n1


def algo4_block_reference(Ahat_sub: np.ndarray, A_blk: CSRMatrix, r: int,
                          rng: SketchingRNG) -> None:
    """Algorithm 4 verbatim: per-row generation, scalar rank-1 updates.

    ``A_blk`` is one vertical block of ``A`` stored in CSR with local
    column indices; ``r`` is the output block's row offset within ``Ahat``
    (the RNG checkpoint coordinate, as in Algorithm 3).
    """
    d1, _ = _check_block(Ahat_sub, A_blk)
    m = A_blk.shape[0]
    for j in range(m):
        cols, vals = A_blk.row(j)
        if cols.size == 0:
            continue  # "if A_sub[j, :] = 0 then continue"
        v = rng.column_block(r, d1, j)  # generated once for the whole row
        for t in range(cols.size):
            k = int(cols[t])
            a_jk = vals[t]
            for i in range(d1):
                Ahat_sub[i, k] += a_jk * v[i]


#: Panel rows per compiled call (at least ``n1``, which bounds the chunks'
#: column pointers by the block's size): the rows a call reads stay
#: cache-sized.
PANEL_ROWS = 256

#: Each block's non-empty rows and chunked pattern, built on first use,
#: dropped with the block.
_PATTERNS: "weakref.WeakKeyDictionary[CSRMatrix, tuple]" = \
    weakref.WeakKeyDictionary()


def _block_pattern(A_blk: CSRMatrix) -> tuple[np.ndarray, list]:
    """``(js, panel_pattern(A_blk))``, with ``js`` the block's non-empty
    rows: both built once per block."""
    cached = _PATTERNS.get(A_blk)
    if cached is None:
        js = A_blk.nonempty_rows()
        n1 = A_blk.shape[1]
        # Empty rows hold no entries: row js[t] ends where js[t + 1] starts.
        starts = np.append(A_blk.indptr[js], A_blk.nnz)
        step = max(PANEL_ROWS, n1)
        pattern = []
        for t0 in range(0, js.size, step):
            t1 = min(t0 + step, js.size)
            lo, hi = starts[t0], starts[t1]
            pattern.append((t0, t1, csr_tocsc(
                t1 - t0, n1, starts[t0:t1 + 1] - lo, A_blk.indices[lo:hi],
                A_blk.data[lo:hi])))
        cached = _PATTERNS[A_blk] = (js, pattern)
    return cached


def panel_pattern(A_blk: CSRMatrix) -> list:
    """``[(t0, t1, (Pp, Pi, Px)), ...]``: the block's CSC in panel-row chunks.

    Chunk ``[t0, t1)`` holds rows ``js[t0:t1]`` (``js`` the non-empty rows)
    renumbered from 0.  Columns keep ascending ``j`` and the chunks ascend:
    the order of :func:`algo4_block_reference`.  Built in O(nnz), once.
    """
    return _block_pattern(A_blk)[1]


def apply_panel(out_t: np.ndarray, V_t: np.ndarray, pattern: list) -> None:
    """``out_t += P @ V_t`` in the reference order, for one or k sketches.

    *out_t* is the output transposed, ``(n1, d1)`` or ``(n1, k, d1)``;
    *V_t* the panel in the same layout, as the sampler writes it.  An
    *out_t* that is not C-ordered goes through one copy in and one copy
    out.
    """
    Y = out_t if out_t.flags.c_contiguous else out_t.copy()
    for t0, t1, chunk in pattern:
        csr_matvecs(*chunk, V_t[t0:t1], Y)
    if Y is not out_t:
        np.copyto(out_t, Y)


def algo4_block(Ahat_sub: np.ndarray, A_blk: CSRMatrix, r: int,
                rng, watch: Stopwatch | None = None) -> None:
    """Vectorized Algorithm 4: one panel per block, one compiled apply.

    *Ahat_sub* is a ``(d1, n1)`` block with a
    :class:`~repro.rng.base.SketchingRNG`, or a ``(k, d1, n1)`` stack with
    a :class:`~repro.rng.batched.BatchedSketchRNG`: one traversal of the
    block then serves every sketch.  The RNG is called once with every
    non-empty row of the block — ``samples_generated`` therefore counts
    exactly ``d1 * (#non-empty rows)`` per sketch, the quantity Section
    III-B's analysis bounds.
    """
    d1 = block_rows(Ahat_sub, A_blk.shape[1], rng)
    sw = watch if watch is not None else Stopwatch()

    js, pattern = _block_pattern(A_blk)
    if js.size == 0:
        return
    with sw.bucket("sample"):  # ([k,] d1, #non-empty rows)
        V = (rng.column_block_stack(r, d1, js) if Ahat_sub.ndim == 3
             else rng.column_block_batch(r, d1, js))
    with sw.bucket("compute"):
        apply_panel(np.moveaxis(Ahat_sub, -1, 0), np.moveaxis(V, -1, 0),
                    pattern)
