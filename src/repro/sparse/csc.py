"""Compressed Sparse Column (CSC) — the paper's default input format.

The paper takes "CSC as our default sparse matrix format" (Section I-A):
Algorithm 3 streams through columns of ``A`` and needs exactly the
``indptr``/``indices``/``data`` triple stored here.  Column blocks
(``A[:, j0:j1]``, the unit of Algorithm 1's outer loop) are O(1) views —
no data is copied — because consecutive columns are contiguous in CSC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import FormatError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csr import CSRMatrix

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Sparse matrix in compressed-sparse-column layout.

    Attributes
    ----------
    shape:
        ``(m, n)`` logical dimensions.
    indptr:
        ``int64`` array of length ``n + 1``; column ``j`` occupies the slice
        ``indptr[j]:indptr[j+1]`` of ``indices``/``data``.
    indices:
        Row index of each stored entry, strictly increasing within a column.
    data:
        ``float64`` value of each stored entry (explicit zeros permitted).
    """

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray, *, check: bool = True) -> None:
        m, n = shape
        if m < 0 or n < 0:
            raise ShapeError(f"shape must be non-negative, got {shape}")
        self.shape = (int(m), int(n))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if check:
            self.validate()

    # -- invariants ---------------------------------------------------------

    def validate(self, *, require_finite: bool = False) -> None:
        """Raise :class:`FormatError` on any CSC structural violation.

        With ``require_finite=True`` also rejects NaN/Inf values — the
        check the sketching entry points run once on their input so a
        poisoned matrix fails fast instead of silently corrupting the
        whole sketch.
        """
        m, n = self.shape
        if self.indptr.ndim != 1 or self.indptr.size != n + 1:
            raise FormatError(f"indptr must have length n+1 = {n + 1}")
        if self.indptr[0] != 0:
            raise FormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.size != nnz or self.data.size != nnz:
            raise FormatError(
                f"indices/data length must equal indptr[-1] = {nnz}, "
                f"got {self.indices.size}/{self.data.size}"
            )
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise FormatError(f"row indices out of range [0, {m})")
            # Vectorized within-column monotonicity: row indices must be
            # strictly increasing except exactly at column boundaries.
            # ok[p] covers the step from entry p to entry p + 1.
            ok = np.diff(self.indices) > 0
            starts = self.indptr[1:-1]
            ok[starts[(starts > 0) & (starts < nnz)] - 1] = True
            bad = np.flatnonzero(~ok)
            if bad.size:
                col = int(np.searchsorted(self.indptr, bad[0] + 1,
                                          "right")) - 1
                raise FormatError(
                    f"row indices in column {col} must be strictly increasing"
                )
            if require_finite and not np.isfinite(self.data).all():
                k = int(np.flatnonzero(~np.isfinite(self.data))[0])
                col = int(np.searchsorted(self.indptr, k, "right")) - 1
                raise FormatError(
                    f"matrix data contains a non-finite value "
                    f"({self.data[k]!r}) at entry {k} (column {col})"
                )

    # -- basic properties ---------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def density(self) -> float:
        """Stored entries divided by ``m * n``."""
        m, n = self.shape
        return self.nnz / (m * n) if m and n else 0.0

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the index and value arrays (Table VIII's mem(A))."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)

    def col_nnz(self) -> np.ndarray:
        """Stored entries per column, length ``n``."""
        return np.diff(self.indptr)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column ``j`` as zero-copy views."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # -- slicing ------------------------------------------------------------

    def col_block(self, j0: int, j1: int) -> "CSCMatrix":
        """The column block ``A[:, j0:j1]`` as a CSC matrix.

        The returned matrix's ``indices``/``data`` are views into this
        matrix's buffers (its ``indptr`` is rebased), so Algorithm 1's
        outer loop pays O(width) per block, not O(nnz).
        """
        m, n = self.shape
        if not (0 <= j0 <= j1 <= n):
            raise ShapeError(f"column block [{j0}, {j1}) out of range for n={n}")
        lo, hi = int(self.indptr[j0]), int(self.indptr[j1])
        return CSCMatrix(
            (m, j1 - j0),
            self.indptr[j0:j1 + 1] - self.indptr[j0],
            self.indices[lo:hi],
            self.data[lo:hi],
            check=False,
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, check: bool = True) -> "CSCMatrix":
        """Compress the nonzero pattern of a dense array.

        ``check=True`` (default) validates the result's CSC invariants;
        pass ``check=False`` only on trusted hot paths.
        """
        from .coo import COOMatrix

        out = COOMatrix.from_dense(dense).to_csc()
        if check:
            out.validate()
        return out

    @classmethod
    def from_scipy(cls, mat, *, check: bool = True) -> "CSCMatrix":
        """Build from a ``scipy.sparse`` matrix (test interoperability).

        ``check=True`` (default) validates the imported structure —
        scipy permits states (unsorted indices before ``sort_indices``,
        out-of-range after manual mutation) this library's kernels do not.
        """
        s = mat.tocsc()
        s.sort_indices()
        s.sum_duplicates()
        return cls(s.shape, s.indptr.astype(np.int64),
                   s.indices.astype(np.int64), s.data.astype(np.float64),
                   check=check)

    # -- conversions --------------------------------------------------------

    def to_coo(self) -> "COOMatrix":
        """Expand to coordinate format."""
        from .coo import COOMatrix

        n = self.shape[1]
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(self.shape, self.indices.copy(), cols,
                         self.data.copy(), check=False)

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR via a stable counting transpose of the layout."""
        from .csr import CSRMatrix

        m, n = self.shape
        nnz = self.nnz
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        # Stable sort by row preserves column order within each row.
        order = np.argsort(self.indices, kind="stable")
        indices[:] = cols[order]
        data[:] = self.data[order]
        return CSRMatrix((m, n), indptr, indices, data, check=False)

    def to_dense(self) -> np.ndarray:
        """Realize as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        n = self.shape[1]
        for j in range(n):
            rows, vals = self.col(j)
            out[rows, j] = vals
        return out

    def to_scipy(self):
        """Export to ``scipy.sparse.csc_matrix`` (test interoperability)."""
        import scipy.sparse as sp

        return sp.csc_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def transpose(self) -> "CSCMatrix":
        """The transpose as CSC (equals this matrix's CSR buffers re-labelled)."""
        csr = self.to_csr()
        return CSCMatrix((self.shape[1], self.shape[0]), csr.indptr,
                         csr.indices, csr.data, check=False)

    # -- operators ----------------------------------------------------------

    def __matmul__(self, other):
        """``A @ B``: sparse-sparse (CSC result) or sparse-dense (ndarray).

        Dense right operands accept vectors (``A @ x``) and matrices;
        sparse-sparse goes through the Gustavson SpGEMM in
        :mod:`repro.sparse.arithmetic`.
        """
        if isinstance(other, CSCMatrix):
            from .arithmetic import matmul

            return matmul(self, other)
        if isinstance(other, np.ndarray):
            if other.ndim == 1:
                from .ops import spmv_csc

                return spmv_csc(self, other)
            if other.ndim == 2:
                from .ops import csr_times_dense

                return csr_times_dense(self.to_csr(), other)
            raise ShapeError(f"cannot multiply by a {other.ndim}-D array")
        return NotImplemented

    def __add__(self, other):
        """``A + B`` for matching-shape sparse matrices."""
        if isinstance(other, CSCMatrix):
            from .arithmetic import add

            return add(self, other)
        return NotImplemented

    def __sub__(self, other):
        """``A - B`` for matching-shape sparse matrices."""
        if isinstance(other, CSCMatrix):
            from .arithmetic import add

            return add(self, other, 1.0, -1.0)
        return NotImplemented

    def __mul__(self, alpha):
        """``A * alpha`` scalar scaling (use ``elementwise_multiply`` for
        Hadamard products)."""
        if isinstance(alpha, (int, float, np.integer, np.floating)):
            from .arithmetic import scale

            return scale(self, float(alpha))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        """``-A``."""
        from .arithmetic import scale

        return scale(self, -1.0)

    @property
    def T(self) -> "CSCMatrix":
        """The transpose (alias of :meth:`transpose`)."""
        return self.transpose()

    def __repr__(self) -> str:
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )
