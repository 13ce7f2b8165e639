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
  panel for every non-empty row of the block (that is the entire RNG cost,
  demonstrating the reuse), then :func:`algo4_apply` applies the rows'
  outer-product updates in cache-sized output tiles.  The batched kernel
  shares it; both are bit-identical to :func:`algo4_block_reference`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ShapeError
from ..rng import base as _rng_base
from ..rng.base import SketchingRNG
from ..sparse.csr import CSRMatrix
from ..utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover
    from .backends import KernelWorkspace

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


def algo4_row_plan(A_blk: CSRMatrix, js: np.ndarray,
                   row_chunk: int) -> tuple[bool, list]:
    """A block's row structure, built once for every output sharing it.

    Returns ``(long_rows, entries)``.  Long rows (average nnz >= 8) give
    one ``(t, cols, vals)`` entry per non-empty row ``js[t]``, ``cols`` a
    basic slice when the row is one contiguous run of columns.  Short
    rows give one ``(cols, vals, owner)`` entry per *row_chunk* rows,
    ``owner[q]`` being the panel column of entry ``q``; empty rows hold
    no entries, so a chunk is one span of ``indices``/``data``.
    """
    lo = A_blk.indptr[js]
    hi = A_blk.indptr[js + 1]
    row_nnz = hi - lo
    if row_nnz.mean() >= 8.0:
        rows = []
        for t in range(js.size):
            l, h = int(lo[t]), int(hi[t])
            cols = A_blk.indices[l:h]
            if cols[-1] - cols[0] == h - l - 1:  # strictly increasing
                cols = slice(int(cols[0]), int(cols[-1]) + 1)
            rows.append((t, cols, A_blk.data[l:h]))
        return True, rows
    owner = np.repeat(np.arange(js.size), row_nnz)
    spans = [(int(lo[t0]), int(hi[min(t0 + row_chunk, js.size) - 1]))
             for t0 in range(0, js.size, row_chunk)]
    base = spans[0][0]
    return False, [(A_blk.indices[l:h], A_blk.data[l:h],
                    owner[l - base:h - base]) for l, h in spans]


def _scratch(workspace: "KernelWorkspace | None", name: str,
             shape: tuple[int, int], order: str,
             dtype=np.float64) -> np.ndarray:
    """Uninitialized *shape* scratch laid out in *order* ('C' or 'F')."""
    if workspace is None:
        return np.empty(shape, dtype=dtype, order=order)
    if order == "F":
        return workspace.get(name, shape[::-1], dtype).T
    return workspace.get(name, shape, dtype)


def algo4_apply(Ahat_sub: np.ndarray, V: np.ndarray, plan: tuple[bool, list],
                workspace: "KernelWorkspace | None" = None) -> None:
    """Apply a block's rank-1 row updates ``Ahat_sub[:, cols] += V[:, t] * vals``.

    *plan* comes from :func:`algo4_row_plan`.  Output rows go in tiles of
    about :data:`repro.rng.base.CHUNK_LANES` entries that stay in cache
    while every row updates them; scratch matches the output's memory
    order.  Rows go in ascending order within a tile, so every entry gets
    its additions exactly as :func:`algo4_block_reference` makes them.
    """
    d1, n1 = Ahat_sub.shape
    order = "F" if Ahat_sub.strides[0] < Ahat_sub.strides[1] else "C"
    long_rows, entries = plan
    tile = max(1, _rng_base.CHUNK_LANES // max(1, n1))
    for i0 in range(0, d1, tile):
        dst, v = Ahat_sub[i0:i0 + tile], V[i0:i0 + tile]
        h = dst.shape[0]
        if not long_rows:
            # Cross-row duplicate columns accumulate in entry order
            # through the unbuffered ufunc.at.
            for cols, vals, owner in entries:
                scaled = _scratch(workspace, "algo4.scaled", (h, vals.size),
                                  order)
                np.take(v, owner, axis=1, out=scaled)
                np.multiply(scaled, vals, out=scaled)
                np.add.at(dst.T, cols, scaled.T)
            continue
        # Long rows update the tile once each: do it in a dense copy,
        # which streams far better than a strided view of a wider output.
        out = _scratch(workspace, "algo4.tile", (h, n1), order, dst.dtype)
        np.copyto(out, dst)
        for t, cols, vals in entries:
            scaled = _scratch(workspace, "algo4.scaled", (h, vals.size), order)
            np.multiply(v[:, t:t + 1], vals, out=scaled)
            if isinstance(cols, slice):
                view = out[:, cols]
                np.add(view, scaled, out=view)
            else:
                out[:, cols] += scaled
        np.copyto(dst, out)


def algo4_block(Ahat_sub: np.ndarray, A_blk: CSRMatrix, r: int,
                rng: SketchingRNG, watch: Stopwatch | None = None,
                row_chunk: int = 64,
                workspace: "KernelWorkspace | None" = None) -> None:
    """Vectorized Algorithm 4: one panel per block, then :func:`algo4_apply`.

    The RNG is called once with every non-empty row of the block —
    ``samples_generated`` therefore counts exactly
    ``d1 * (#non-empty rows)``, the quantity Section III-B's analysis
    bounds.  Long rows are applied as vectorized scaled-column adds; short
    rows are grouped *row_chunk* at a time into a single scatter-add.
    A *workspace* reuses the scaled scratch across calls.
    """
    d1, _ = _check_block(Ahat_sub, A_blk)
    if row_chunk < 1:
        raise ShapeError(f"row_chunk must be positive, got {row_chunk}")
    sw = watch if watch is not None else Stopwatch()

    js = A_blk.nonempty_rows()
    if js.size == 0:
        return
    with sw.bucket("sample"):
        V = rng.column_block_batch(r, d1, js)  # d1 x (#non-empty rows)
    with sw.bucket("compute"):
        algo4_apply(Ahat_sub, V, algo4_row_plan(A_blk, js, row_chunk),
                    workspace)
