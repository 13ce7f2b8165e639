"""The blocked-CSR auxiliary structure required by Algorithm 4.

Section II-B2: "[Algorithm 4] demands a more sophisticated data structure.
``A`` will need to be first partitioned into vertical blocks, and within
each block, the entries will be stored in CSR format."  Section III-B
costs its construction at ``O(ceil(n / b_n) * m + nnz(A))`` sequentially,
noting the O(m) per-block workspace for row counts; those costs are
reproduced (and accounted) in :mod:`repro.sparse.convert`.

A :class:`BlockedCSR` holds, for each vertical block ``A[:, j0:j1]``, a
:class:`repro.sparse.CSRMatrix` over the block's local columns together
with the block's global column offset.  Algorithm 4's kernel walks the
non-empty rows of one block, generates the sketch column for each row
once, and scatters rank-1 updates across the row's stored columns.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..errors import FormatError, ShapeError
from .csr import CSRMatrix

__all__ = ["BlockedCSR"]


class BlockedCSR:
    """A sparse matrix partitioned into vertical blocks, each stored CSR.

    Attributes
    ----------
    shape:
        Global ``(m, n)`` dimensions.
    block_starts:
        ``int64`` array of length ``n_blocks + 1``; block ``b`` covers the
        global columns ``block_starts[b]:block_starts[b+1]``.
    blocks:
        One :class:`CSRMatrix` per vertical block, with shape
        ``(m, block_width)`` and *local* column indices.
    """

    def __init__(self, shape: tuple[int, int], block_starts: np.ndarray,
                 blocks: Sequence[CSRMatrix], *, check: bool = True) -> None:
        m, n = shape
        if m < 0 or n < 0:
            raise ShapeError(f"shape must be non-negative, got {shape}")
        self.shape = (int(m), int(n))
        self.block_starts = np.asarray(block_starts, dtype=np.int64)
        self.blocks = list(blocks)
        if check:
            self.validate()

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`FormatError` when blocks do not tile the columns."""
        m, n = self.shape
        bs = self.block_starts
        if bs.ndim != 1 or bs.size != len(self.blocks) + 1:
            raise FormatError("block_starts must have length n_blocks + 1")
        if bs.size < 1 or bs[0] != 0 or bs[-1] != n:
            raise FormatError(f"block_starts must run from 0 to n={n}")
        if np.any(np.diff(bs) <= 0) and n > 0:
            raise FormatError("block_starts must be strictly increasing")
        for b, blk in enumerate(self.blocks):
            width = int(bs[b + 1] - bs[b])
            if blk.shape != (m, width):
                raise FormatError(
                    f"block {b} has shape {blk.shape}, expected ({m}, {width})"
                )
            blk.validate()

    # -- basic properties ---------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of vertical blocks."""
        return len(self.blocks)

    @property
    def nnz(self) -> int:
        """Total stored entries across all blocks."""
        return sum(blk.nnz for blk in self.blocks)

    @property
    def memory_bytes(self) -> int:
        """Bytes held by all blocks' buffers plus the block index."""
        return int(self.block_starts.nbytes) + sum(
            blk.memory_bytes for blk in self.blocks
        )

    def block_width(self, b: int) -> int:
        """Number of global columns covered by block ``b``."""
        return int(self.block_starts[b + 1] - self.block_starts[b])

    def iter_blocks(self) -> Iterator[tuple[int, CSRMatrix]]:
        """Yield ``(global column offset, block)`` pairs in column order."""
        for b, blk in enumerate(self.blocks):
            yield int(self.block_starts[b]), blk

    # -- conversions --------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Realize the full matrix as a dense array (testing aid)."""
        out = np.zeros(self.shape, dtype=np.float64)
        for j0, blk in self.iter_blocks():
            out[:, j0:j0 + blk.shape[1]] = blk.to_dense()
        return out

    def __repr__(self) -> str:
        return (
            f"BlockedCSR(shape={self.shape}, n_blocks={self.n_blocks}, "
            f"nnz={self.nnz})"
        )
