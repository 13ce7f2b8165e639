"""Batched block kernels — Algorithms 3 and 4 for *k* sketches in one pass.

The serving workload (fixed ``A``, many sketches — arXiv 2310.15419) pays
the full counter→sample RNG pipeline *per request* even though the sparse
traversal and the block bookkeeping are identical across requests.  These
kernels hoist that shared work out of the per-sketch loop:

* **one** stacked RNG call per panel produces the ``(k, d1, g)`` bits for
  every sketch of the batch (counter construction and the vectorized
  Philox/Threefry rounds amortize; see
  :class:`~repro.rng.batched.BatchedSketchRNG`);
* Algorithm 3 computes its CSC group boundaries once for all ``k``
  accumulations;
* Algorithm 4 makes one :func:`~repro.kernels.algo4.apply_panel` for
  the whole stack, its compiled calls ``n_vecs = k * d1`` wide, so one
  traversal of the block's pattern serves every sketch.

Bit-identity contract: for every sketch ``t`` the floating-point update
sequence applied to ``Ahat_stack[t]`` is exactly the sequence
:func:`~repro.kernels.algo3.algo3_block` /
:func:`~repro.kernels.algo4.algo4_block` applies, so the batched output
equals ``k`` independent single-sketch runs bit for bit.  Against the
reference kernels, Algorithm 3's segment sums reorder accumulation (a few
ulps); Algorithm 4 keeps the reference order and is exact
(``tests/kernels/test_compiled_apply.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ShapeError
from ..rng.batched import BatchedSketchRNG
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..utils.timing import Stopwatch
from .algo4 import apply_panel, panel_pattern

if TYPE_CHECKING:  # pragma: no cover
    from .backends import KernelWorkspace

__all__ = ["algo3_block_batched", "algo4_block_batched"]


def _check_stack(Ahat_stack, brng: BatchedSketchRNG, n1: int) -> tuple[int, int]:
    k = brng.batch
    shape = Ahat_stack.shape
    if len(shape) != 3 or (shape[0], shape[2]) != (k, n1):
        raise ShapeError(
            f"Ahat_stack has shape {shape}, expected (k={k}, "
            f"d1, n1={n1}) for the batched RNG's {k} members")
    return k, shape[1]


def algo3_block_batched(Ahat_stack, A_sub: CSCMatrix, r: int,
                        brng: BatchedSketchRNG,
                        watch: Stopwatch | None = None,
                        panel_nnz: int = 8192,
                        workspace: "KernelWorkspace | None" = None) -> None:
    """Vectorized Algorithm 3 over a sketch batch.

    One stacked RNG call per column group generates the ``(k, d1, g)``
    sketch panel; the group's segment boundaries are computed once and the
    per-sketch accumulation replays :func:`algo3_block`'s exact ufunc
    sequence on each ``(d1, g)`` slice.
    """
    n1 = A_sub.shape[1]
    k, d1 = _check_stack(Ahat_stack, brng, n1)
    if panel_nnz < 1:
        raise ShapeError(f"panel_nnz must be positive, got {panel_nnz}")
    sw = watch if watch is not None else Stopwatch()

    c = 0
    indptr = A_sub.indptr
    while c < n1:
        c_end = c + 1
        while c_end < n1 and indptr[c_end + 1] - indptr[c] <= panel_nnz:
            c_end += 1
        lo, hi = int(indptr[c]), int(indptr[c_end])
        js = A_sub.indices[lo:hi]
        vals = A_sub.data[lo:hi]
        if js.size:
            with sw.bucket("sample"):
                V_stack = brng.column_block_stack(r, d1, js)
            with sw.bucket("compute"):
                if c_end - c == 1:
                    for t in range(k):
                        Ahat_stack[t][:, c] += V_stack[t] @ vals
                else:
                    # Shared group bookkeeping, computed once per group.
                    seg_starts = (indptr[c:c_end] - lo).astype(np.int64)
                    widths = np.diff(indptr[c:c_end + 1])
                    nonempty = widths > 0
                    starts = seg_starts[nonempty]
                    targets = np.arange(c, c_end)[nonempty]
                    for t in range(k):
                        V = V_stack[t]
                        if workspace is None:
                            scaled = V * vals
                            sums = np.add.reduceat(scaled, starts, axis=1)
                        else:
                            scaled = workspace.get("algo3.scaled", V.shape)
                            np.multiply(V, vals, out=scaled)
                            sums = workspace.get("algo3.sums",
                                                 (d1, starts.size))
                            np.add.reduceat(scaled, starts, axis=1, out=sums)
                        Ahat_stack[t][:, targets] += sums
        c = c_end


def algo4_block_batched(Ahat_stack: np.ndarray, A_blk: CSRMatrix, r: int,
                        brng: BatchedSketchRNG,
                        watch: Stopwatch | None = None,
                        workspace: "KernelWorkspace | None" = None) -> None:
    """Vectorized Algorithm 4 over a sketch batch.

    The per-block panel is generated once for all sketches (``(k, d1,
    #non-empty rows)`` — the quantity Section III-B bounds, times ``k``)
    and one :func:`~repro.kernels.algo4.apply_panel`, ``n_vecs = k * d1``
    wide, adds it into the ``(k, d1, n1)`` stack: one traversal of the
    block serves every sketch.
    """
    n1 = A_blk.shape[1]
    _, d1 = _check_stack(Ahat_stack, brng, n1)
    sw = watch if watch is not None else Stopwatch()

    js = A_blk.nonempty_rows()
    if js.size == 0:
        return
    with sw.bucket("sample"):
        V_stack = brng.column_block_stack(r, d1, js)
    with sw.bucket("compute"):
        apply_panel(Ahat_stack.transpose(2, 0, 1),
                    V_stack.transpose(2, 0, 1), panel_pattern(A_blk))
