"""Tests for repro.sparse.csc."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.sparse import CSCMatrix, random_sparse


def _toy():
    # [[1, 0, 2], [0, 3, 0]]
    return CSCMatrix((2, 3), np.array([0, 1, 2, 3]), np.array([0, 1, 0]),
                     np.array([1.0, 3.0, 2.0]))


class TestValidation:
    def test_valid(self):
        _toy().validate()

    def test_bad_indptr_length(self):
        with pytest.raises(FormatError, match="length n\\+1"):
            CSCMatrix((2, 3), np.array([0, 1, 2]), np.array([0, 1]),
                      np.array([1.0, 1.0]))

    def test_indptr_must_start_zero(self):
        with pytest.raises(FormatError, match="indptr\\[0\\]"):
            CSCMatrix((2, 2), np.array([1, 1, 2]), np.array([0, 0]),
                      np.array([1.0, 1.0]))

    def test_decreasing_indptr(self):
        with pytest.raises(FormatError, match="non-decreasing"):
            CSCMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1]),
                      np.array([1.0, 1.0]))

    def test_index_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            CSCMatrix((2, 2), np.array([0, 1, 1]), np.array([5]),
                      np.array([1.0]))

    def test_unsorted_rows_in_column(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            CSCMatrix((3, 1), np.array([0, 2]), np.array([2, 0]),
                      np.array([1.0, 1.0]))

    def test_duplicate_rows_in_column(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            CSCMatrix((3, 1), np.array([0, 2]), np.array([1, 1]),
                      np.array([1.0, 1.0]))

    @pytest.mark.parametrize("indptr, indices, col", [
        # a descent inside the middle column; the boundaries descend too
        ([0, 2, 4, 6], [1, 3, 2, 0, 0, 1], 1),
        # a duplicate in the last column
        ([0, 2, 3, 5], [0, 2, 1, 3, 3], 2),
        # an empty column just before the bad one: column 2, not 1
        ([0, 2, 2, 4, 5], [0, 1, 3, 2, 0], 2),
        # the bad column just before an empty one
        ([0, 1, 3, 3, 4], [2, 3, 1, 0], 1),
    ])
    def test_first_bad_column_is_named(self, indptr, indices, col):
        with pytest.raises(FormatError, match=(
                f"row indices in column {col} must be strictly increasing")):
            CSCMatrix((4, len(indptr) - 1), np.array(indptr),
                      np.array(indices), np.ones(len(indices)))


class TestAccessors:
    def test_nnz_density(self):
        A = _toy()
        assert A.nnz == 3
        assert A.density == pytest.approx(0.5)

    def test_col(self):
        rows, vals = _toy().col(1)
        np.testing.assert_array_equal(rows, [1])
        np.testing.assert_array_equal(vals, [3.0])

    def test_col_nnz(self):
        np.testing.assert_array_equal(_toy().col_nnz(), [1, 1, 1])

    def test_col_views_not_copies(self):
        A = _toy()
        rows, vals = A.col(0)
        assert vals.base is A.data or vals.base is A.data.base

    def test_memory_bytes(self):
        A = _toy()
        assert A.memory_bytes == A.indptr.nbytes + A.indices.nbytes + A.data.nbytes


class TestColBlock:
    def test_block_content(self):
        A = random_sparse(30, 12, 0.2, seed=1)
        blk = A.col_block(3, 9)
        np.testing.assert_array_equal(blk.to_dense(), A.to_dense()[:, 3:9])

    def test_block_is_view(self):
        A = random_sparse(30, 12, 0.2, seed=1)
        blk = A.col_block(0, 6)
        assert blk.data.base is A.data or blk.data.base is A.data.base

    def test_full_block(self):
        A = _toy()
        blk = A.col_block(0, 3)
        np.testing.assert_array_equal(blk.to_dense(), A.to_dense())

    def test_empty_block(self):
        A = _toy()
        blk = A.col_block(1, 1)
        assert blk.shape == (2, 0)
        assert blk.nnz == 0

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            _toy().col_block(0, 4)
        with pytest.raises(ShapeError):
            _toy().col_block(2, 1)


class TestConversions:
    def test_dense_roundtrip(self):
        A = random_sparse(25, 10, 0.15, seed=2)
        np.testing.assert_array_equal(
            CSCMatrix.from_dense(A.to_dense()).to_dense(), A.to_dense()
        )

    def test_to_csr_roundtrip(self):
        A = random_sparse(25, 10, 0.15, seed=3)
        np.testing.assert_array_equal(A.to_csr().to_dense(), A.to_dense())
        np.testing.assert_array_equal(A.to_csr().to_csc().to_dense(),
                                      A.to_dense())

    def test_to_coo(self):
        A = _toy()
        np.testing.assert_array_equal(A.to_coo().to_dense(), A.to_dense())

    def test_transpose(self):
        A = random_sparse(15, 8, 0.2, seed=4)
        np.testing.assert_array_equal(A.transpose().to_dense(), A.to_dense().T)

    def test_scipy_interop(self):
        A = random_sparse(20, 9, 0.2, seed=5)
        s = A.to_scipy()
        back = CSCMatrix.from_scipy(s)
        np.testing.assert_array_equal(back.to_dense(), A.to_dense())

    def test_csr_indices_sorted(self):
        A = random_sparse(40, 15, 0.2, seed=6)
        csr = A.to_csr()
        csr.validate()  # sorted columns within rows

    def test_repr(self):
        assert "CSCMatrix" in repr(_toy())
