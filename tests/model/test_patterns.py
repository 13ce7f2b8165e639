"""Tests for repro.model.patterns — the non-uniform-pattern analysis
(the paper's Section VI future-work direction, implemented).

Every closed-form expectation is validated against *exact* counts on
matrices from the corresponding generator.
"""

from math import ceil

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import algo4_block, sketch_spmm
from repro.model import (
    banded_costs,
    count_nonempty_rows_per_block,
    dense_cols_costs,
    dense_rows_costs,
    uniform_costs,
)
from repro.rng import PhiloxSketchRNG
from repro.sparse import (abnormal_a, abnormal_c, banded_sparse,
                          csc_to_blocked_csr, random_sparse)


def _per_block_samples(A, d, b_n):
    """The paper's per-block algorithm, which the model describes: one
    ``algo4_block`` call per block, each with a fresh generator."""
    B, _ = csc_to_blocked_csr(A, b_n)
    total = 0
    for blk in B.blocks:
        rng = PhiloxSketchRNG(0)
        algo4_block(np.zeros((d, blk.shape[1])), blk, 0, rng)
        total += rng.samples_generated
    return total


def _plan_order_samples(A, d, b_n):
    """``d * Σ_j |js_j \\ js_prev|``: a plan-order run samples only the
    rows the last non-empty block did not have."""
    B, _ = csc_to_blocked_csr(A, b_n)
    prev, total = set(), 0
    for blk in B.blocks:
        js = set(blk.nonempty_rows().tolist())
        total += len(js - prev)
        prev = js or prev
    return d * total


class TestUniformCosts:
    def test_matches_exact_counts(self):
        m, n, rho, b_n = 300, 60, 0.05, 8
        costs = uniform_costs(m, n, 10, b_n, rho)
        counts = [count_nonempty_rows_per_block(
            random_sparse(m, n, rho, seed=s), b_n).mean()
            for s in range(10)]
        assert np.mean(counts) == pytest.approx(
            costs.nonempty_rows_per_block, rel=0.1)

    def test_reuse_improves_with_block_width(self):
        a = uniform_costs(200, 60, 10, 1, 0.1)
        b = uniform_costs(200, 60, 10, 20, 0.1)
        assert b.reuse_factor < a.reuse_factor

    def test_bn_one_no_reuse(self):
        # With b_n = 1 Algorithm 4 degenerates to Algorithm 3's volume.
        c = uniform_costs(200, 60, 10, 1, 0.1)
        assert c.reuse_factor == pytest.approx(1.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            uniform_costs(0, 1, 1, 1, 0.1)
        with pytest.raises(ConfigError):
            uniform_costs(10, 10, 10, 2, 1.5)


class TestDenseRowsCosts:
    def test_matches_generator_exactly(self):
        m, n, period, b_n = 400, 60, 20, 8
        A = abnormal_a(m, n, period=period, seed=1)
        costs = dense_rows_costs(m, n, 10, b_n, period)
        exact = count_nonempty_rows_per_block(A, b_n)
        assert np.all(exact == costs.nonempty_rows_per_block)

    def test_rng_volume_matches_kernel(self):
        m, n, period, b_n, d = 200, 40, 10, 8, 12
        A = abnormal_a(m, n, period=period, seed=2)
        costs = dense_rows_costs(m, n, d, b_n, period)
        assert _per_block_samples(A, d, b_n) == costs.rng_entries
        # A plan-order run samples the dense rows once, not per block.
        _, stats = sketch_spmm(A, d, PhiloxSketchRNG(0), kernel="algo4",
                               b_d=d, b_n=b_n)
        assert stats.samples_generated == _plan_order_samples(A, d, b_n) \
            == d * ceil(m / period)
        assert stats.samples_generated <= costs.rng_entries

    def test_reuse_is_strong(self):
        costs = dense_rows_costs(100_000, 10_000, 30_000, 1200, 1000)
        assert costs.reuse_factor < 0.01  # near-total reuse

    def test_independent_of_bn(self):
        a = dense_rows_costs(1000, 100, 10, 5, 50)
        b = dense_rows_costs(1000, 100, 10, 50, 50)
        assert (a.nonempty_rows_per_block
                == b.nonempty_rows_per_block)


class TestDenseColsCosts:
    def test_matches_generator_when_blocks_cover_period(self):
        m, n, period, b_n = 60, 400, 20, 20
        A = abnormal_c(m, n, period=period, seed=3)
        costs = dense_cols_costs(m, n, 10, b_n, period)
        exact = count_nonempty_rows_per_block(A, b_n)
        # Every block holds exactly one dense column -> all m rows.
        assert np.all(exact == m)
        assert costs.nonempty_rows_per_block == pytest.approx(m)

    def test_rng_volume_matches_kernel(self):
        m, n, period, b_n, d = 50, 200, 20, 20, 8
        A = abnormal_c(m, n, period=period, seed=4)
        costs = dense_cols_costs(m, n, d, b_n, period)
        assert _per_block_samples(A, d, b_n) == costs.rng_entries
        _, stats = sketch_spmm(A, d, PhiloxSketchRNG(0), kernel="algo4",
                               b_d=d, b_n=b_n)
        assert stats.samples_generated == _plan_order_samples(A, d, b_n)
        assert stats.samples_generated <= costs.rng_entries

    def test_no_reuse_at_wide_blocks(self):
        # b_n >= period: reuse factor hits 1 / (nnz per active block row)
        # ... i.e. the volume equals Algorithm 3's whenever each dense
        # column is alone in its block.
        costs = dense_cols_costs(100, 1000, 10, 100, 100)
        assert costs.reuse_factor == pytest.approx(1.0)

    def test_worse_than_dense_rows(self):
        rows = dense_rows_costs(1000, 1000, 10, 100, 100)
        cols = dense_cols_costs(1000, 1000, 10, 100, 100)
        assert cols.reuse_factor > 10 * rows.reuse_factor


class TestBandedCosts:
    def test_upper_bounds_generator(self):
        m, n, b_n = 600, 60, 10
        A = banded_sparse(m, n, 0.05, bandwidth_frac=0.05, seed=5)
        per_col = round(A.nnz / n)
        costs = banded_costs(m, n, 10, b_n, bandwidth_rows=2 * int(0.05 * m) + 1,
                             per_col=per_col)
        exact = count_nonempty_rows_per_block(A, b_n)
        assert np.all(exact <= costs.nonempty_rows_per_block + 1)

    def test_window_grows_with_block_width(self):
        a = banded_costs(1000, 100, 10, 2, 50, 5)
        b = banded_costs(1000, 100, 10, 50, 50, 5)
        assert (b.nonempty_rows_per_block
                >= a.nonempty_rows_per_block)

    def test_capped_by_m(self):
        c = banded_costs(100, 10, 10, 10, 10_000, 99)
        assert c.nonempty_rows_per_block <= 100


class TestCrossPatternOrdering:
    def test_table6_ordering(self):
        """The analysis reproduces Table VI's ordering analytically:
        reuse(dense rows) << reuse(uniform) <= reuse(dense cols)."""
        m, n, d, b_n = 100_000, 10_000, 5000, 1200
        rows = dense_rows_costs(m, n, d, b_n, 1000)
        unif = uniform_costs(m, n, d, b_n, 1e-3)
        cols = dense_cols_costs(m, n, d, b_n, 1000)
        assert rows.reuse_factor < unif.reuse_factor <= cols.reuse_factor + 1e-9
