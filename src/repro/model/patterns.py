"""Extension: Section III analysis for non-uniform sparsity patterns.

The paper's conclusion names this as future work: "extend our theoretical
analysis to sparse matrices with non-uniform sparsity patterns ... there
are certainly other well-behaved patterns that can be analyzed."  This
module carries the Section III-A quantities — the expected number of
non-empty rows per vertical block, hence Algorithm 4's RNG volume and the
achievable computational intensity — to the structured patterns this
repository generates:

* ``uniform(rho)`` — the paper's model (baseline);
* ``dense_rows(period)`` — Abnormal_A: every ``period``-th row dense.
  A width-``b_n`` block has exactly ``m / period`` non-empty rows
  *regardless of* ``b_n``: Algorithm 4's reuse is maximal and its RNG
  volume is ``d * m * ceil(n/b_n) / period`` — a factor ``~ b_n`` below
  Algorithm 3 once ``b_n`` exceeds 1.
* ``dense_cols(period)`` — Abnormal_C: every ``period``-th column dense.
  Every column is either empty or full; a block containing ``k`` dense
  columns has min(1, k) * m non-empty rows, and each dense column demands
  all ``m`` sketch columns anyway, so Algorithm 4's volume equals
  Algorithm 3's whenever every block holds at least one dense column
  (``b_n >= period``): reuse vanishes, exactly the Table VI collapse.
* ``banded(bandwidth_rows, per_col)`` — FEM band: a width-``b_n`` block
  touches a contiguous row window of about
  ``bandwidth_rows + b_n * m / n`` rows.

Each analysis returns the same :class:`PatternCosts` record so the
roofline machinery applies unchanged; tests validate every formula
against exact counts on generated matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..errors import ConfigError
from .roofline import expected_nonempty_rows

__all__ = ["PatternCosts", "uniform_costs", "dense_rows_costs",
           "dense_cols_costs", "banded_costs", "algo4_rng_volume"]


@dataclass(frozen=True)
class PatternCosts:
    """Per-pattern RNG accounting for one full Algorithm 4 sweep.

    ``nonempty_rows_per_block`` is the (expected) count for one width-
    ``b_n`` vertical block; ``rng_entries`` is the full-sweep volume
    ``d * n_blocks * nonempty_rows_per_block``; ``algo3_rng_entries`` is
    the pattern-oblivious ``d * nnz`` for comparison, and ``reuse_factor``
    their ratio (< 1 means Algorithm 4 saves generation work).
    """

    pattern: str
    m: int
    n: int
    b_n: int
    nnz: float
    nonempty_rows_per_block: float
    rng_entries: float
    algo3_rng_entries: float

    @property
    def reuse_factor(self) -> float:
        """Algorithm 4's RNG volume relative to Algorithm 3's."""
        if self.algo3_rng_entries == 0:
            return 1.0
        return self.rng_entries / self.algo3_rng_entries


def _check(m: int, n: int, d: int, b_n: int) -> None:
    if min(m, n, d, b_n) < 1:
        raise ConfigError("m, n, d, b_n must all be positive")


def _package(pattern: str, m: int, n: int, d: int, b_n: int, nnz: float,
             per_block: float) -> PatternCosts:
    n_blocks = ceil(n / b_n)
    return PatternCosts(
        pattern=pattern, m=m, n=n, b_n=b_n, nnz=nnz,
        nonempty_rows_per_block=per_block,
        rng_entries=float(d) * n_blocks * per_block,
        algo3_rng_entries=float(d) * nnz,
    )


def uniform_costs(m: int, n: int, d: int, b_n: int, rho: float) -> PatternCosts:
    """The paper's baseline: iid pattern with density ``rho``."""
    _check(m, n, d, b_n)
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    per_block = expected_nonempty_rows(m, min(b_n, n), rho)
    return _package("uniform", m, n, d, b_n, rho * m * n, per_block)


def dense_rows_costs(m: int, n: int, d: int, b_n: int,
                     period: int) -> PatternCosts:
    """Abnormal_A: every ``period``-th row dense, all others empty.

    Non-empty rows per block = number of dense rows = ceil(m / period),
    independent of ``b_n`` — the best case for Algorithm 4.  The volume
    is the paper's per-block count; the serial rung, reusing each row
    block's panel in its next column block, samples the dense rows once
    per row block: ``d * ceil(m / period)``.
    """
    _check(m, n, d, b_n)
    if period < 1:
        raise ConfigError(f"period must be positive, got {period}")
    dense_rows = ceil(m / period)
    return _package("dense_rows", m, n, d, b_n,
                    float(dense_rows) * n, float(dense_rows))


def dense_cols_costs(m: int, n: int, d: int, b_n: int,
                     period: int) -> PatternCosts:
    """Abnormal_C: every ``period``-th column dense, all others empty.

    A width-``b_n`` block is non-trivial iff it contains a dense column,
    in which case *all* ``m`` rows are non-empty.  The expected fraction
    of non-trivial blocks is ``min(1, b_n / period)`` (blocks tile the
    columns; a dense column lands in a block with that probability), so

        per-block expectation = m * min(1, b_n / period).

    For ``b_n >= period`` every block is full: Algorithm 4's volume equals
    ``d * m * n_blocks`` while the nnz is ``m * n / period`` — the reuse
    factor rises to ``min(1, b_n/period) * period / b_n``-free form below,
    collapsing to ~1 exactly as Table VI observes.
    """
    _check(m, n, d, b_n)
    if period < 1:
        raise ConfigError(f"period must be positive, got {period}")
    dense_cols = ceil(n / period)
    frac_nontrivial = min(1.0, b_n / period)
    per_block = m * frac_nontrivial
    return _package("dense_cols", m, n, d, b_n,
                    float(dense_cols) * m, per_block)


def banded_costs(m: int, n: int, d: int, b_n: int,
                 bandwidth_rows: int, per_col: int) -> PatternCosts:
    """FEM band: column ``j``'s entries live within ``bandwidth_rows`` of
    the stretched diagonal row ``j * m / n``.

    A width-``b_n`` block touches a row window of about
    ``bandwidth_rows + b_n * m / n`` rows (band height plus diagonal
    drift across the block), capped by ``m`` and by the block's actual
    entry count.
    """
    _check(m, n, d, b_n)
    if bandwidth_rows < 1 or per_col < 1:
        raise ConfigError("bandwidth_rows and per_col must be positive")
    window = min(float(m), bandwidth_rows + b_n * m / n)
    nnz = float(per_col) * n
    per_block = min(window, float(per_col) * min(b_n, n))
    return _package("banded", m, n, d, b_n, nnz, per_block)


def algo4_rng_volume(costs: PatternCosts) -> float:
    """Convenience: the full-sweep Algorithm 4 RNG entry count."""
    return costs.rng_entries
