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
of the two loops in Algorithm 1").
"""

from __future__ import annotations

from typing import Callable, Iterator, Literal

import numpy as np

from ..errors import ConfigError
from ..rng.base import SketchingRNG
from ..rng.batched import BatchedSketchRNG
from ..sparse.blocked_csr import BlockedCSR
from ..sparse.convert import csc_to_blocked_csr
from ..sparse.csc import CSCMatrix
from ..utils.flops import spmm_flops
from ..utils.timing import Stopwatch, Timer
from ..utils.validation import check_positive_int
from .algo3 import algo3_block_reference
from .algo4 import algo4_block_reference
from .backends import KernelBackend, KernelWorkspace, resolve_backend
from .stats import KernelStats

__all__ = ["sketch_spmm", "sketch_spmm_batched", "iter_block_tasks",
           "block_task_count", "default_block_sizes"]

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


def sketch_spmm(
    A: CSCMatrix,
    d: int,
    rng: SketchingRNG,
    *,
    kernel: KernelName = "algo3",
    b_d: int | None = None,
    b_n: int | None = None,
    reference: bool = False,
    blocked: BlockedCSR | None = None,
    out: np.ndarray | None = None,
    out_order: str = "F",
    backend: str | KernelBackend | None = None,
    workspace: KernelWorkspace | None = None,
    on_block: Callable[[str, int, int, int, int], None] | None = None,
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
    kernel:
        ``"algo3"`` (kji, CSC-driven) or ``"algo4"`` (jki, blocked-CSR).
    b_d, b_n:
        Blocking parameters; defaults from :func:`default_block_sizes`.
    reference:
        Use the scalar pseudocode-verbatim kernels (slow; testing oracle).
    blocked:
        Pre-built blocked CSR for Algorithm 4 (skips conversion, e.g. when
        amortized across repetitions); must have been built with the same
        ``b_n``.
    out:
        Optional preallocated ``(d, n)`` output (zeroed by the driver).
    out_order:
        Memory layout for a driver-allocated output: ``"F"`` (default)
        matches Julia's column-major arrays — the layout the paper's
        kernels stream — and measures ~20-25% faster for the column-wise
        updates of both kernels; pass ``"C"`` for row-major consumers.
    backend:
        Kernel backend name, instance, or ``None``/``"auto"`` for
        ``numpy`` (see :func:`repro.kernels.backends.resolve_backend`).
        Ignored on the ``reference`` path, which always runs the scalar
        oracle.
    workspace:
        Optional :class:`~repro.kernels.backends.KernelWorkspace` for
        scratch reuse across calls; one is created internally per
        invocation otherwise, so repeated block calls never churn the
        allocator either way.
    on_block:
        Optional observer called as ``on_block(phase, i, d1, j, n1)``
        with ``phase`` in ``("block_start", "block_done")`` around every
        kernel invocation — how the plan runtime's serial driver feeds
        lifecycle events to its bus without this module knowing about
        event buses.  ``None`` (the default) costs nothing.

    Returns
    -------
    (Ahat, stats):
        The ``d x n`` dense sketch and the cost record, including the
        sample/compute split and, for Algorithm 4, conversion time.
    """
    d = check_positive_int(d, "d")
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
    bd_default, bn_default = default_block_sizes(d, n)
    b_d = bd_default if b_d is None else check_positive_int(b_d, "b_d")
    b_n = bn_default if b_n is None else check_positive_int(b_n, "b_n")

    if out_order not in ("C", "F"):
        raise ConfigError(f"out_order must be 'C' or 'F', got {out_order!r}")
    if out is None:
        Ahat = np.zeros((d, n), dtype=np.float64, order=out_order)
    else:
        if out.shape != (d, n):
            raise ConfigError(f"out must have shape {(d, n)}, got {out.shape}")
        out[:] = 0.0
        Ahat = out

    be = resolve_backend(backend)
    ws = workspace if workspace is not None else KernelWorkspace()

    sw = Stopwatch()
    samples_before = rng.samples_generated
    conversion_seconds = 0.0
    conversion_extra: dict = {}
    blocks = 0

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
            for j0, blk in blocked.iter_blocks():
                width = blk.shape[1]
                for i in range(0, d, b_d):
                    d1 = min(b_d, d - i)
                    if on_block is not None:
                        on_block("block_start", i, d1, j0, width)
                    view = Ahat[i:i + d1, j0:j0 + width]
                    if reference:
                        algo4_block_reference(view, blk, i, rng)
                    else:
                        be.algo4_block(view, blk, i, rng, watch=sw,
                                       workspace=ws)
                    blocks += 1
                    if on_block is not None:
                        on_block("block_done", i, d1, j0, width)
        else:
            for i, d1, j, n1 in iter_block_tasks(d, n, b_d, b_n):
                if on_block is not None:
                    on_block("block_start", i, d1, j, n1)
                view = Ahat[i:i + d1, j:j + n1]
                A_sub = A.col_block(j, j + n1)
                if reference:
                    algo3_block_reference(view, A_sub, i, rng)
                else:
                    be.algo3_block(view, A_sub, i, rng, watch=sw,
                                   workspace=ws)
                blocks += 1
                if on_block is not None:
                    on_block("block_done", i, d1, j, n1)
        if rng.post_scale != 1.0:
            Ahat *= rng.post_scale

    stats = KernelStats(
        kernel=kernel,
        sample_seconds=sw.total("sample"),
        compute_seconds=sw.total("compute"),
        conversion_seconds=conversion_seconds,
        total_seconds=total.elapsed,
        samples_generated=rng.samples_generated - samples_before,
        flops=spmm_flops(d, A.nnz),
        blocks_processed=blocks,
        d=d, b_d=b_d, b_n=b_n,
        extra={**conversion_extra,
               "backend": "reference" if reference else be.name},
    )
    return Ahat, stats


def sketch_spmm_batched(
    A: CSCMatrix,
    d: int,
    rng: "BatchedSketchRNG | list[SketchingRNG] | tuple[SketchingRNG, ...]",
    *,
    kernel: KernelName = "algo3",
    b_d: int | None = None,
    b_n: int | None = None,
    blocked: BlockedCSR | None = None,
    out: np.ndarray | None = None,
    backend: str | KernelBackend | None = None,
    workspace: KernelWorkspace | None = None,
    on_block: Callable[[str, int, int, int, int], None] | None = None,
) -> tuple[np.ndarray, KernelStats]:
    """Compute ``k`` sketches of the same ``A`` in one blocked pass.

    The batched tier for the fixed-``A``, many-sketches workload: one
    traversal of the sparse structure serves every sketch of the batch,
    with the counter→sample RNG pipeline, blocked-CSR conversion, and
    per-block bookkeeping amortized across the ``k`` seeds (see
    :mod:`repro.kernels.batched`).

    Parameters mirror :func:`sketch_spmm` except *rng*, which is a
    :class:`~repro.rng.batched.BatchedSketchRNG` (or a sequence of
    per-sketch generators, which is wrapped), and *out*, which when given
    must be a ``(k, d, n)`` array.  There is no ``out_order`` knob: the
    stack is C-ordered so each sketch's ``(d, n)`` slice is contiguous
    (output layout does not affect the accumulated values — every kernel
    update is elementwise in the output operand).

    Returns
    -------
    (Ahat, stats):
        ``Ahat[t]`` is bit-identical to the sketch a single
        :func:`sketch_spmm` call with member ``t``'s generator produces.
        ``stats.extra["batch"]`` records ``k``; ``flops`` and
        ``samples_generated`` count all ``k`` sketches.
    """
    d = check_positive_int(d, "d")
    if not isinstance(rng, BatchedSketchRNG):
        rng = BatchedSketchRNG(rng)
    k = rng.batch
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
    bd_default, bn_default = default_block_sizes(d, n)
    b_d = bd_default if b_d is None else check_positive_int(b_d, "b_d")
    b_n = bn_default if b_n is None else check_positive_int(b_n, "b_n")

    if out is None:
        Ahat = np.zeros((k, d, n), dtype=np.float64)
    else:
        if out.shape != (k, d, n):
            raise ConfigError(
                f"out must have shape {(k, d, n)}, got {out.shape}")
        out[:] = 0.0
        Ahat = out

    be = resolve_backend(backend)
    ws = workspace if workspace is not None else KernelWorkspace()

    sw = Stopwatch()
    samples_before = rng.samples_generated
    conversion_seconds = 0.0
    conversion_extra: dict = {}
    blocks = 0

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
                    f"blocked CSR shape {blocked.shape} does not match A "
                    f"{A.shape}"
                )
            for j0, blk in blocked.iter_blocks():
                width = blk.shape[1]
                for i in range(0, d, b_d):
                    d1 = min(b_d, d - i)
                    if on_block is not None:
                        on_block("block_start", i, d1, j0, width)
                    stack = Ahat[:, i:i + d1, j0:j0 + width]
                    be.algo4_block_batched(stack, blk, i, rng, watch=sw,
                                           workspace=ws)
                    blocks += 1
                    if on_block is not None:
                        on_block("block_done", i, d1, j0, width)
        else:
            for i, d1, j, n1 in iter_block_tasks(d, n, b_d, b_n):
                if on_block is not None:
                    on_block("block_start", i, d1, j, n1)
                stack = Ahat[:, i:i + d1, j:j + n1]
                A_sub = A.col_block(j, j + n1)
                be.algo3_block_batched(stack, A_sub, i, rng, watch=sw,
                                       workspace=ws)
                blocks += 1
                if on_block is not None:
                    on_block("block_done", i, d1, j, n1)
        if rng.post_scale != 1.0:
            Ahat *= rng.post_scale

    stats = KernelStats(
        kernel=kernel,
        sample_seconds=sw.total("sample"),
        compute_seconds=sw.total("compute"),
        conversion_seconds=conversion_seconds,
        total_seconds=total.elapsed,
        samples_generated=rng.samples_generated - samples_before,
        flops=k * spmm_flops(d, A.nnz),
        blocks_processed=blocks,
        d=d, b_d=b_d, b_n=b_n,
        extra={**conversion_extra,
               "backend": be.name,
               "batch": k},
    )
    return Ahat, stats
