"""Analytic data-movement accounting for the sketching algorithms.

Complements the roofline model with per-algorithm traffic formulas at the
granularity Algorithm 1 actually schedules (two-parameter blocking), used
by the scaling simulator (Table VII) and validated against the exact LRU
cache simulator on small instances.

Conventions: one "word" is an 8-byte element; CSC stores ``2 nnz + n + 1``
words (values + row indices + column pointers); the dense output ``Ahat``
is charged a read+write streaming pass (write-allocate); on-the-fly
generated sketch entries cost ``h`` word-equivalents each (Section III-A's
accounting), and scattered accesses are multiplied by the machine's
random-access penalty where the algorithm's access pattern is non-strided.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..errors import ConfigError
from ..sparse.csc import CSCMatrix

__all__ = ["TrafficEstimate", "algo3_traffic", "algo4_traffic", "pregen_traffic",
           "count_nonempty_rows_per_block"]


@dataclass(frozen=True)
class TrafficEstimate:
    """Traffic decomposition of one full sketching SpMM.

    ``effective_words`` is the roofline-comparable total: streamed words
    plus penalty-weighted scattered words plus ``h``-weighted generated
    entries.  ``flops`` rides along so callers can form CI directly.
    """

    algorithm: str
    words_sparse: float          # sparse-operand streaming traffic
    words_output: float          # Ahat streaming traffic
    words_output_scattered: float  # portion of output traffic that is scattered
    words_sketch: float          # stored-S traffic (pregen only)
    rng_entries: float           # generated sketch entries
    flops: float

    def effective_words(self, h: float, random_access_penalty: float = 1.0) -> float:
        """Penalty- and h-weighted total word movement."""
        if h < 0 or random_access_penalty < 1.0:
            raise ConfigError("need h >= 0 and random_access_penalty >= 1")
        strided_output = self.words_output - self.words_output_scattered
        return (
            self.words_sparse
            + strided_output
            + self.words_output_scattered * random_access_penalty
            + self.words_sketch
            + h * self.rng_entries
        )

    def intensity(self, h: float, random_access_penalty: float = 1.0) -> float:
        """Flops per effective word — the schedule's achieved CI."""
        return self.flops / self.effective_words(h, random_access_penalty)


def _csc_words(nnz: int, n: int) -> float:
    """Words of one streaming pass over a CSC matrix."""
    return 2.0 * nnz + (n + 1.0)


def count_nonempty_rows_per_block(A: CSCMatrix, b_n: int) -> np.ndarray:
    """Exact count of non-empty rows in each width-``b_n`` vertical block.

    This is the realized value of the model's ``E[Y]`` per block and
    determines Algorithm 4's exact RNG volume for a concrete matrix
    (Section III-B: zero rows of a block skip generation entirely).
    """
    if b_n < 1:
        raise ConfigError(f"b_n must be positive, got {b_n}")
    m, n = A.shape
    counts = []
    for j0 in range(0, n, b_n):
        j1 = min(j0 + b_n, n)
        lo, hi = int(A.indptr[j0]), int(A.indptr[j1])
        counts.append(np.unique(A.indices[lo:hi]).size)
    return np.asarray(counts, dtype=np.int64)


def algo3_traffic(A: CSCMatrix, d: int, b_d: int, b_n: int) -> TrafficEstimate:
    """Traffic of Algorithm 3 under Algorithm 1's ``(b_d, b_n)`` blocking.

    * The sparse operand is re-streamed once per row block of ``Ahat``
      (``ceil(d / b_d)`` passes) — the cost the paper's heuristic drives
      down by growing ``b_d``.
    * ``Ahat`` is streamed once (blocks stay cache-resident while active):
      one write-allocate read plus one write per word.
    * RNG volume is exactly ``d * nnz`` (Section III-B), and every access
      is strided (no scattered component).
    """
    if d < 1 or b_d < 1 or b_n < 1:
        raise ConfigError("d, b_d, b_n must be positive")
    m, n = A.shape
    passes = ceil(d / b_d)
    return TrafficEstimate(
        algorithm="algo3",
        words_sparse=passes * _csc_words(A.nnz, n),
        words_output=2.0 * d * n,
        words_output_scattered=0.0,
        words_sketch=0.0,
        rng_entries=float(d) * A.nnz,
        flops=2.0 * d * A.nnz,
    )


def algo4_traffic(A: CSCMatrix, d: int, b_d: int, b_n: int) -> TrafficEstimate:
    """Traffic of Algorithm 4 under the same blocking.

    * The blocked-CSR operand is re-streamed once per row block; its
      pointer overhead is ``m + 1`` words *per vertical block* (the O(m)
      row-pointer arrays that make the structure memory-hungry to build).
    * ``Ahat`` streaming volume is the same as Algorithm 3's, but the
      updates follow each sparse row's column pattern — all of it is
      charged as scattered.
    * RNG volume is ``d * sum_b nonempty_rows(b)`` — the reuse saving,
      counted as the paper's algorithm samples, every block afresh.  The
      serial rung samples only the rows its previous column block did
      not have (:class:`~repro.kernels.algo4.PanelMemo`), so at most
      this; the thread and process rungs sample exactly this.
    """
    if d < 1 or b_d < 1 or b_n < 1:
        raise ConfigError("d, b_d, b_n must be positive")
    m, n = A.shape
    passes = ceil(d / b_d)
    n_blocks = ceil(n / b_n) if n else 0
    nonempty = count_nonempty_rows_per_block(A, b_n)
    words_blocked_csr = 2.0 * A.nnz + n_blocks * (m + 1.0)
    return TrafficEstimate(
        algorithm="algo4",
        words_sparse=passes * words_blocked_csr,
        words_output=2.0 * d * n,
        words_output_scattered=2.0 * d * n,
        words_sketch=0.0,
        rng_entries=float(d) * float(nonempty.sum()),
        flops=2.0 * d * A.nnz,
    )


def pregen_traffic(A: CSCMatrix, d: int, b_d: int, b_n: int,
                   cache_words: int) -> TrafficEstimate:
    """Traffic of the pre-generated-``S`` baseline.

    The stored sketch adds ``d * m`` words per pass; when it exceeds the
    cache it must be re-read once per vertical block of ``A`` — the
    movement the on-the-fly kernels convert into computation.  RNG volume
    is ``d * m`` (each entry generated exactly once) but, following
    Figure 4's convention, generation happens ahead of time and the
    caller typically excludes it from the reported cost.
    """
    if d < 1 or b_d < 1 or b_n < 1 or cache_words < 1:
        raise ConfigError("d, b_d, b_n, cache_words must be positive")
    m, n = A.shape
    sketch_words = float(d) * m
    n_blocks = ceil(n / b_n) if n else 0
    sketch_passes = 1 if sketch_words <= cache_words else max(1, n_blocks)
    return TrafficEstimate(
        algorithm="pregen",
        words_sparse=_csc_words(A.nnz, n),
        words_output=2.0 * d * n,
        words_output_scattered=0.0,
        words_sketch=sketch_passes * sketch_words,
        rng_entries=float(d) * m,
        flops=2.0 * d * A.nnz,
    )
