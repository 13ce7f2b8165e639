"""The one import of scipy's private compiled sparse routines.

``csr_matvecs`` (``Y += A @ X``, CSR ``A``, C-ordered ``X``/``Y``) walks
each row's stored entries in order doing ``y[:] += a * x[:]``, a separate
multiply and add: Algorithm 4's exactness rests on that.  ``csr_tocsc`` is
the stable O(nnz) transpose building the pattern it walks.  A scipy
release that moves either raises a :class:`ConfigError` naming the version.
"""

from __future__ import annotations

import numpy as np
import scipy
from scipy.sparse import _sparsetools

from ..errors import ConfigError, ShapeError

__all__ = ["csr_matvecs", "csr_tocsc"]


def _routine(name: str):
    routine = getattr(_sparsetools, name, None)
    if routine is None:
        raise ConfigError(
            f"scipy {scipy.__version__} has no scipy.sparse._sparsetools."
            f"{name}, which the Algorithm 4 kernel needs")
    return routine


def csr_matvecs(Ap: np.ndarray, Aj: np.ndarray, Ax: np.ndarray,
                X: np.ndarray, Y: np.ndarray) -> None:
    """``Y += A @ X`` in place; row ``t`` of *X* or *Y* is one flat vector.

    The compiled code checks no bounds, so the shapes are checked here.
    """
    if (X.shape[1:] != Y.shape[1:] or Ap.size != Y.shape[0] + 1
            or (Aj.size and Aj.max() >= X.shape[0])):
        raise ShapeError(f"CSR with {Ap.size - 1} rows and {Aj.size} "
                         f"entries does not fit X {X.shape}, Y {Y.shape}")
    _routine("csr_matvecs")(Y.shape[0], X.shape[0],
                            X.size // max(X.shape[0], 1), Ap, Aj, Ax, X, Y)


def csr_tocsc(n_row: int, n_col: int, Ap: np.ndarray, Aj: np.ndarray,
              Ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Bp, Bi, Bx)``: the CSR ``(Ap, Aj, Ax)`` in CSC, rows ascending."""
    nnz = int(Ap[-1])
    out = (np.empty(n_col + 1, dtype=np.int64),
           np.empty(nnz, dtype=np.int64), np.empty(nnz, dtype=np.float64))
    _routine("csr_tocsc")(n_row, n_col, Ap, Aj, Ax, *out)
    return out
