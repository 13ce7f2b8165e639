"""Algorithm 1 — the outer blocking driver for the sketching SpMM.

Implements the ``(ceil(d/b_d), 1, ceil(n/b_n))`` blocking of Equation (3):
the outermost loop walks column blocks of ``A`` ("to encourage caching of
the sparse matrix data and Ahat"), the inner loop walks row blocks of
``Ahat``/``S``, and the inner dimension is never blocked (CSC gives few
cache-behaviour opportunities there and it is harder to parallelize over).
Each (row-block, column-block) pair is handed to the selected compute
kernel — Algorithm 3 (CSC, :mod:`repro.kernels.algo3`) or Algorithm 4
(blocked CSR, :mod:`repro.kernels.algo4`).

The driver also exposes the task decomposition (:func:`iter_block_tasks`)
the thread-pool executor parallelizes over: every task writes a disjoint
block of ``Ahat``, so parallel execution is race-free by construction
(Section II-C: "a simple and effective approach is to parallelize either
of the two loops in Algorithm 1").  :func:`compute_tile` runs one task's
kernel; every driver goes through it.  A batched generator turns every
block into a ``(k, d1, n1)`` stack and the same kernels serve all ``k``
sketches of a fixed ``A`` in one pass.
"""

from __future__ import annotations

from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from ..errors import ConfigError
from ..rng.base import SketchingRNG
from ..rng.batched import BatchedSketchRNG
from ..sparse.blocked_csr import BlockedCSR
from ..sparse.convert import csc_to_blocked_csr
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..utils.flops import spmm_flops
from ..utils.timing import Stopwatch, Timer
from ..utils.validation import check_positive_int
from .algo3 import algo3_block_reference
from .algo4 import algo4_block_reference
from .backends import NUMPY
from .stats import KernelStats

__all__ = ["sketch_spmm", "compute_tile", "iter_block_tasks",
           "block_task_count", "default_block_sizes", "zeros_in_apply_layout"]

KernelName = Literal["algo3", "algo4"]


def default_block_sizes(d: int, n: int, *, cache_bytes: int = 32 * 1024 * 1024,
                        parallel: bool = False) -> tuple[int, int]:
    """Heuristic ``(b_d, b_n)`` in the spirit of Section V-B.

    The output block ``b_d x b_n`` (float64) is sized to half the cache.
    Sequentially the paper uses squat-ish blocks (3000 x 500..1200); for
    parallel runs it recommends *larger* ``b_d`` and *smaller* ``b_n``
    ("this highly rectangular blocking structure offloads more data-access
    cost to ... S", whose entries are regenerated rather than moved).
    """
    d = check_positive_int(d, "d")
    n = check_positive_int(n, "n")
    budget = cache_bytes // (2 * 8)  # elements of Ahat_sub
    if parallel:
        b_d = min(d, max(1, budget // 128))
        b_n = max(1, min(n, budget // b_d, 128))
    else:
        b_d = min(d, 3000)
        b_n = max(1, min(n, budget // b_d))
    return b_d, b_n


def iter_block_tasks(d: int, n: int, b_d: int, b_n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield Algorithm 1's block tasks as ``(i, d1, j, n1)`` tuples.

    ``i``/``j`` are the row/column offsets of the ``Ahat`` block and
    ``d1``/``n1`` its extent — the loop nest of Algorithm 1 lines 2-6,
    column blocks outermost.
    """
    for j in range(0, n, b_n):
        n1 = min(b_n, n - j)
        for i in range(0, d, b_d):
            d1 = min(b_d, d - i)
            yield i, d1, j, n1


def block_task_count(d: int, n: int, b_d: int, b_n: int) -> int:
    """How many tasks :func:`iter_block_tasks` yields for this grid."""
    return ((d + b_d - 1) // b_d) * ((n + b_n - 1) // b_n)


def zeros_in_apply_layout(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 sketch accumulator in the layout the kernels apply to.

    A ``(d, n)`` sketch is F-ordered: each tile's columns are what
    Algorithm 4's transposed apply and Algorithm 3's group updates write
    (a full-height tile needs no copy in or out), and it matches Julia's
    column-major arrays.  A ``(k, d, n)`` stack stays C-ordered, so each
    sketch's ``(d, n)`` slice is contiguous.
    """
    return np.zeros(shape, dtype=np.float64,
                    order="F" if len(shape) == 2 else "C")


def compute_tile(kernel: KernelName, out: np.ndarray, A: CSCMatrix,
                 blocks: Mapping[int, CSRMatrix], i: int, j: int, n1: int,
                 rng, watch: Stopwatch | None = None) -> None:
    """Add task ``(i, j)``'s sketch tile into *out*.

    *out* is the ``(d1, n1)`` tile for a single generator or the
    ``(k, d1, n1)`` stack for a batched one.  Algorithm 3 reads the CSC
    column block ``A[:, j:j+n1]``; Algorithm 4 the blocked-CSR block at
    column offset *j* in *blocks*, which must be ``n1`` wide.
    """
    stacked = out.ndim == 3
    if kernel == "algo3":
        run = NUMPY.algo3_block_batched if stacked else NUMPY.algo3_block
        run(out, A.col_block(j, j + n1), i, rng, watch=watch)
        return
    blk = blocks.get(j)
    if blk is None or blk.shape[1] != n1:
        raise ConfigError(
            "blocked CSR partition does not match the b_n task grid")
    run = NUMPY.algo4_block_batched if stacked else NUMPY.algo4_block
    run(out, blk, i, rng, watch=watch)


def sketch_spmm(
    A: CSCMatrix,
    d: int,
    rng: "SketchingRNG | BatchedSketchRNG | Sequence[SketchingRNG]",
    *,
    kernel: KernelName = "algo3",
    b_d: int | None = None,
    b_n: int | None = None,
    reference: bool = False,
    blocked: BlockedCSR | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Compute the sketch ``Ahat = S @ A`` with on-the-fly generation of ``S``.

    Parameters
    ----------
    A:
        Sparse ``m x n`` input in CSC (the format "we assume is given for
        free").
    d:
        Sketch size (rows of ``S``); typically ``gamma * n`` for a small
        constant ``gamma`` (the paper uses 3 for SpMM benchmarks, 2 for
        least squares).
    rng:
        Entry generator for ``S`` (see :mod:`repro.rng`); its distribution's
        ``post_scale`` is applied to the finished product (scaling trick).
        A :class:`~repro.rng.batched.BatchedSketchRNG`, or a sequence of
        generators (which is wrapped in one), computes ``k`` sketches of
        the same ``A`` in one blocked pass: the fixed-``A``, many-sketches
        tier, where one traversal of the sparse structure serves the
        whole batch and each member samples its slice of one panel.
    kernel:
        ``"algo3"`` (kji, CSC-driven) or ``"algo4"`` (jki, blocked-CSR).
    b_d, b_n:
        Blocking parameters; defaults from :func:`default_block_sizes`.
    reference:
        Use the scalar pseudocode-verbatim kernels (slow; testing oracle;
        single generator only).
    blocked:
        Pre-built blocked CSR for Algorithm 4 (skips conversion, e.g. when
        amortized across repetitions); must have been built with the same
        ``b_n``.
    out:
        Optional preallocated output (zeroed by the driver): ``(d, n)``,
        or ``(k, d, n)`` for a batch.  Without it the driver allocates
        :func:`zeros_in_apply_layout`; a buffer in another layout works
        through the kernels' copy path.

    Returns
    -------
    (Ahat, stats):
        The ``d x n`` dense sketch (``Ahat[t]`` of a ``(k, d, n)`` batch
        bit-identical to a single run with member ``t``'s generator) and
        the cost record, including the sample/compute split and, for
        Algorithm 4, conversion time.  A batch's ``stats.extra["batch"]``
        records ``k``; ``flops`` and ``samples_generated`` count all
        ``k`` sketches.
    """
    d = check_positive_int(d, "d")
    if isinstance(rng, (list, tuple)):
        rng = BatchedSketchRNG(rng)
    k = rng.batch if isinstance(rng, BatchedSketchRNG) else None
    if not isinstance(A, CSCMatrix):
        raise ConfigError(
            f"A must be a CSCMatrix (got {type(A).__name__}); CSR inputs "
            "would be silently misread — convert with .to_csc() first"
        )
    m, n = A.shape
    if n == 0:
        raise ConfigError("cannot sketch a matrix with zero columns")
    if kernel not in ("algo3", "algo4"):
        raise ConfigError(f"kernel must be 'algo3' or 'algo4', got {kernel!r}")
    if reference and k is not None:
        raise ConfigError("the reference kernels take a single generator")
    bd_default, bn_default = default_block_sizes(d, n)
    b_d = bd_default if b_d is None else check_positive_int(b_d, "b_d")
    b_n = bn_default if b_n is None else check_positive_int(b_n, "b_n")

    shape = (d, n) if k is None else (k, d, n)
    if out is None:
        Ahat = zeros_in_apply_layout(shape)
    else:
        if out.shape != shape:
            raise ConfigError(f"out must have shape {shape}, got {out.shape}")
        out[:] = 0.0
        Ahat = out

    sw = Stopwatch()
    samples_before = rng.samples_generated
    conversion_seconds = 0.0
    conversion_extra: dict = {}
    blocks: dict[int, CSRMatrix] = {}
    tasks = 0

    with Timer() as total:
        if kernel == "algo4":
            if blocked is None:
                blocked, conv = csc_to_blocked_csr(A, b_n)
                conversion_seconds = conv.seconds
                conversion_extra = {
                    "conversion_ops": conv.op_count,
                    "conversion_workspace_bytes": conv.workspace_bytes,
                }
            elif blocked.shape != (m, n):
                raise ConfigError(
                    f"blocked CSR shape {blocked.shape} does not match A {A.shape}"
                )
            blocks = dict(blocked.iter_blocks())
            grid = [(i, min(b_d, d - i), j0, blk.shape[1])
                    for j0, blk in blocks.items() for i in range(0, d, b_d)]
        else:
            grid = iter_block_tasks(d, n, b_d, b_n)
        for i, d1, j, n1 in grid:
            view = Ahat[..., i:i + d1, j:j + n1]
            if not reference:
                compute_tile(kernel, view, A, blocks, i, j, n1, rng, sw)
            elif kernel == "algo4":
                algo4_block_reference(view, blocks[j], i, rng)
            else:
                algo3_block_reference(view, A.col_block(j, j + n1), i, rng)
            tasks += 1
        if rng.post_scale != 1.0:
            Ahat *= rng.post_scale

    stats = KernelStats(
        kernel=kernel,
        sample_seconds=sw.total("sample"),
        compute_seconds=sw.total("compute"),
        conversion_seconds=conversion_seconds,
        total_seconds=total.elapsed,
        samples_generated=rng.samples_generated - samples_before,
        flops=(k or 1) * spmm_flops(d, A.nnz),
        blocks_processed=tasks,
        d=d, b_d=b_d, b_n=b_n,
        extra={**conversion_extra,
               "backend": "reference" if reference else NUMPY.name,
               **({"batch": k} if k is not None else {})},
    )
    return Ahat, stats
