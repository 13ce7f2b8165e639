"""The one import of scipy's private compiled sparse routines.

``csr_matvecs`` (``Y += A @ X``, CSR ``A``, C-ordered ``X``/``Y``) walks
each row's stored entries in order doing ``y[:] += a * x[:]``, a separate
multiply and add: the exactness of both kernels rests on that.
``csr_tocsc`` is the stable O(nnz) transpose building Algorithm 4's
pattern.  A scipy release that moves either raises a :class:`ConfigError`
naming the version.  :func:`block_rows` is the output contract both
kernels share: one ``(d1, n1)`` sketch block, or a ``(k, d1, n1)`` stack.
"""

from __future__ import annotations

import numpy as np
import scipy
from scipy.sparse import _sparsetools

from ..errors import ConfigError, ShapeError

__all__ = ["block_rows", "csr_matvecs", "csr_tocsc"]


def _routine(name: str):
    routine = getattr(_sparsetools, name, None)
    if routine is None:
        raise ConfigError(
            f"scipy {scipy.__version__} has no scipy.sparse._sparsetools."
            f"{name}, which the compiled kernels need")
    return routine


def csr_matvecs(Ap: np.ndarray, Aj: np.ndarray, Ax: np.ndarray,
                X: np.ndarray, Y: np.ndarray) -> None:
    """``Y += A @ X`` in place; row ``t`` of *X* or *Y* is one flat vector.

    The compiled code checks no bounds, so the shapes are checked here.
    *Y* must be C-ordered.  The samplers write *X* C-ordered; any other
    *X* (a stand-in generator's) is copied once.
    """
    if (X.shape[1:] != Y.shape[1:] or Ap.size != Y.shape[0] + 1
            or (Aj.size and Aj.max() >= X.shape[0])):
        raise ShapeError(f"CSR with {Ap.size - 1} rows and {Aj.size} "
                         f"entries does not fit X {X.shape}, Y {Y.shape}")
    _routine("csr_matvecs")(Y.shape[0], X.shape[0],
                            X.size // max(X.shape[0], 1), Ap, Aj, Ax,
                            np.ascontiguousarray(X), Y)


def csr_tocsc(n_row: int, n_col: int, Ap: np.ndarray, Aj: np.ndarray,
              Ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Bp, Bi, Bx)``: the CSR ``(Ap, Aj, Ax)`` in CSC, rows ascending."""
    nnz = int(Ap[-1])
    out = (np.empty(n_col + 1, dtype=np.int64),
           np.empty(nnz, dtype=np.int64), np.empty(nnz, dtype=np.float64))
    _routine("csr_tocsc")(n_row, n_col, Ap, Aj, Ax, *out)
    return out


def block_rows(out: np.ndarray, n1: int, rng) -> int:
    """``d1`` of a kernel output: a ``(d1, n1)`` block for one generator,
    or a ``(k, d1, n1)`` stack for a batched generator of ``k`` members."""
    if out.ndim == 2 and out.shape[1] == n1:
        return out.shape[0]
    k = getattr(rng, "batch", None)
    if out.ndim == 3 and out.shape[0] == k and out.shape[2] == n1:
        return out.shape[1]
    raise ShapeError(
        f"output has shape {out.shape}, expected (d1, n1={n1}) for one "
        f"generator or (k, d1, n1={n1}) for a batched RNG of k members "
        f"(k={k})")
