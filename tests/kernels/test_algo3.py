"""Tests for repro.kernels.algo3 (variant kji with on-the-fly RNG)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import algo3_block, algo3_block_reference
from repro.rng import PhiloxSketchRNG, XoshiroSketchRNG
from repro.sparse import CSCMatrix, random_sparse
from repro.utils import Stopwatch


def _expected(seed, dist, d1, r, A, kind="philox"):
    cls = PhiloxSketchRNG if kind == "philox" else XoshiroSketchRNG
    rng = cls(seed, dist)
    # Column j of the needed S block is rng.column_block(r, d1, j).
    m = A.shape[0]
    S_blk = rng.column_block_batch(r, d1, np.arange(m, dtype=np.int64))
    return S_blk @ A.to_dense()


class TestReferenceKernel:
    def test_matches_materialized_product(self):
        A = random_sparse(25, 8, 0.3, seed=61)
        d1, r = 6, 12
        out = np.zeros((d1, 8))
        algo3_block_reference(out, A, r, PhiloxSketchRNG(5))
        np.testing.assert_allclose(out, _expected(5, "uniform", d1, r, A))

    def test_accumulates_in_place(self):
        A = random_sparse(10, 4, 0.5, seed=62)
        out = np.full((3, 4), 100.0)
        algo3_block_reference(out, A, 0, PhiloxSketchRNG(5))
        expected = 100.0 + _expected(5, "uniform", 3, 0, A)
        np.testing.assert_allclose(out, expected)

    def test_rng_volume_is_d1_nnz(self):
        A = random_sparse(20, 6, 0.3, seed=63)
        rng = PhiloxSketchRNG(1)
        out = np.zeros((5, 6))
        algo3_block_reference(out, A, 0, rng)
        assert rng.samples_generated == 5 * A.nnz


class TestVectorizedKernel:
    @pytest.mark.parametrize("b_n", [1, 3, 17, 100000])
    def test_matches_reference_any_panel(self, b_n):
        # Every column block width, down to one column and past the
        # matrix's own width.
        A = random_sparse(30, 11, 0.2, seed=64)
        d1, r = 7, 14
        for j in range(0, 11, b_n):
            sub = A.col_block(j, min(j + b_n, 11))
            ref = np.zeros((d1, sub.shape[1]))
            algo3_block_reference(ref, sub, r, PhiloxSketchRNG(9))
            out = np.zeros((d1, sub.shape[1]))
            algo3_block(out, sub, r, PhiloxSketchRNG(9))
            assert np.array_equal(out, ref)

    def test_xoshiro_matches_reference(self):
        A = random_sparse(30, 11, 0.2, seed=65)
        ref = np.zeros((6, 11))
        algo3_block_reference(ref, A, 6, XoshiroSketchRNG(9))
        out = np.zeros((6, 11))
        algo3_block(out, A, 6, XoshiroSketchRNG(9))
        assert np.array_equal(out, ref)

    def test_rng_volume_matches_reference(self):
        A = random_sparse(30, 11, 0.2, seed=66)
        rng = PhiloxSketchRNG(1)
        out = np.zeros((4, 11))
        algo3_block(out, A, 0, rng)
        assert rng.samples_generated == 4 * A.nnz

    def test_stopwatch_buckets(self):
        A = random_sparse(30, 11, 0.2, seed=67)
        sw = Stopwatch()
        out = np.zeros((4, 11))
        algo3_block(out, A, 0, PhiloxSketchRNG(1), watch=sw)
        assert sw.total("sample") > 0.0
        assert sw.total("compute") > 0.0

    def test_empty_columns_skipped(self):
        # A matrix with an all-zero column: its output column stays zero.
        dense = np.zeros((8, 3))
        dense[2, 0] = 1.0
        dense[5, 2] = -2.0
        A = CSCMatrix.from_dense(dense)
        out = np.zeros((4, 3))
        algo3_block(out, A, 0, PhiloxSketchRNG(3))
        np.testing.assert_array_equal(out[:, 1], np.zeros(4))
        assert np.any(out[:, 0] != 0)

    def test_all_empty_matrix(self):
        A = CSCMatrix((8, 3), np.zeros(4, dtype=np.int64),
                      np.array([], dtype=np.int64), np.array([]))
        out = np.zeros((4, 3))
        algo3_block(out, A, 0, PhiloxSketchRNG(3))
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_shape_mismatch(self):
        A = random_sparse(10, 5, 0.3, seed=68)
        with pytest.raises(ShapeError):
            algo3_block(np.zeros((4, 7)), A, 0, PhiloxSketchRNG(0))
