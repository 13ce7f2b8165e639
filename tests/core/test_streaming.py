"""Tests for repro.core.streaming (incremental sketch maintenance)."""

import numpy as np
import pytest

from repro.core.streaming import StreamingSketch
from repro.errors import ConfigError, ShapeError
from repro.kernels import sketch_spmm
from repro.plan import PersistencePolicy
from repro.rng import PhiloxSketchRNG, ThreefrySketchRNG
from repro.sparse import CSCMatrix, random_sparse


def _row_batches(A: CSCMatrix, sizes):
    """Split A into row batches of the given sizes (as CSC blocks)."""
    dense = A.to_dense()
    out = []
    start = 0
    for k in sizes:
        out.append(CSCMatrix.from_dense(dense[start:start + k]))
        start += k
    assert start == A.shape[0]
    return out


@pytest.fixture
def A():
    return random_sparse(120, 18, 0.15, seed=1201)


class TestStreamingEqualsOneShot:
    @pytest.mark.parametrize("sizes", [[120], [60, 60], [1] * 120,
                                       [50, 30, 25, 15]])
    def test_any_chunking_matches(self, A, sizes):
        d = 36
        st = StreamingSketch(d, 18, PhiloxSketchRNG(5), b_d=12, b_n=6)
        for batch in _row_batches(A, sizes):
            st.absorb(batch)
        oneshot, _ = sketch_spmm(A, d, PhiloxSketchRNG(5), kernel="algo3",
                                 b_d=12, b_n=6)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-12)

    def test_threefry_family(self, A):
        d = 24
        st = StreamingSketch(d, 18, ThreefrySketchRNG(7), b_d=8)
        for batch in _row_batches(A, [40, 40, 40]):
            st.absorb(batch)
        oneshot, _ = sketch_spmm(A, d, ThreefrySketchRNG(7), kernel="algo3",
                                 b_d=8)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-12)

    def test_algo4_kernel(self, A):
        d = 24
        st = StreamingSketch(d, 18, PhiloxSketchRNG(9), kernel="algo4",
                             b_d=8, b_n=5)
        for batch in _row_batches(A, [70, 50]):
            st.absorb(batch)
        oneshot, _ = sketch_spmm(A, d, PhiloxSketchRNG(9), kernel="algo3",
                                 b_d=8, b_n=5)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-12)


class TestBookkeeping:
    def test_offsets_and_counters(self, A):
        st = StreamingSketch(20, 18, PhiloxSketchRNG(1))
        offsets = [st.absorb(b) for b in _row_batches(A, [30, 40, 50])]
        assert offsets == [0, 30, 70]
        assert st.rows_seen == 120
        assert st.batches_absorbed == 3

    def test_samples_accumulate_on_shared_rng(self, A):
        rng = PhiloxSketchRNG(1)
        st = StreamingSketch(20, 18, rng)
        for b in _row_batches(A, [60, 60]):
            st.absorb(b)
        assert rng.samples_generated == 20 * A.nnz  # algo3 volume overall

    def test_column_mismatch_rejected(self, A):
        st = StreamingSketch(20, 18, PhiloxSketchRNG(1))
        with pytest.raises(ShapeError):
            st.absorb(random_sparse(10, 5, 0.3, seed=1))

    def test_scaling_trick_rejected(self):
        with pytest.raises(ConfigError):
            StreamingSketch(20, 18, PhiloxSketchRNG(1, "uniform_scaled"))

    def test_policy_cadence_maps_to_checkpoint_every(self, tmp_path):
        st = StreamingSketch(20, 18, PhiloxSketchRNG(1),
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=40))
        assert st.checkpoint_every == 40
        assert StreamingSketch(20, 18, PhiloxSketchRNG(1)).checkpoint_every \
            is None


class TestStreamingApplication:
    def test_growing_least_squares(self):
        """Sketch maintained over a stream preconditioners the final LSQR
        exactly as a batch sketch would."""
        from repro.lsq import CscOperator, PreconditionedOperator, lsqr
        from repro.lsq.preconditioners import TriangularPreconditioner

        full = random_sparse(600, 20, 0.1, seed=1301)
        rng_np = np.random.default_rng(3)
        b = CscOperator(full).matvec(rng_np.standard_normal(20)) + \
            rng_np.standard_normal(600)
        d = 40
        st = StreamingSketch(d, 20, PhiloxSketchRNG(11), b_d=16, b_n=8)
        for batch in _row_batches(full, [200, 200, 200]):
            st.absorb(batch)
        precond = TriangularPreconditioner.from_sketch(st.sketch)
        B = PreconditionedOperator(CscOperator(full), precond)
        run = lsqr(B, b, atol=1e-13)
        x = precond.apply(run.z)
        expected = np.linalg.lstsq(full.to_dense(), b, rcond=None)[0]
        np.testing.assert_allclose(x, expected, atol=1e-6)
        assert run.iterations < 150


class TestEntryStream:
    def test_entries_match_matrix_path(self, A):
        """absorb_entries over shuffled COO entries equals the one-shot
        sketch (CBRNG; absolute row coordinates)."""
        d = 30
        coo = A.to_coo()
        order = np.random.default_rng(4).permutation(coo.nnz)
        st = StreamingSketch(d, 18, PhiloxSketchRNG(13), b_d=8)
        for lo in range(0, coo.nnz, 37):
            sel = order[lo:lo + 37]
            st.absorb_entries(coo.rows[sel], coo.cols[sel], coo.vals[sel])
        oneshot, _ = sketch_spmm(A, d, PhiloxSketchRNG(13), kernel="algo3",
                                 b_d=8)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-10)

    def test_entries_match_xoshiro_checkpoints(self, A):
        """With the same b_d grid, the entry path reproduces the
        checkpointed generator's sketch too."""
        from repro.rng import XoshiroSketchRNG

        d, b_d = 24, 8
        coo = A.to_coo()
        st = StreamingSketch(d, 18, XoshiroSketchRNG(14), b_d=b_d)
        st.absorb_entries(coo.rows, coo.cols, coo.vals)
        oneshot, _ = sketch_spmm(A, d, XoshiroSketchRNG(14), kernel="algo3",
                                 b_d=b_d)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-10)

    def test_from_matrix_market_out_of_core(self, A, tmp_path):
        from repro.sparse import write_matrix_market

        path = tmp_path / "stream.mtx"
        write_matrix_market(A, path)
        d = 30
        st = StreamingSketch.from_matrix_market(
            path, d, PhiloxSketchRNG(15), chunk=17, b_d=8)
        oneshot, _ = sketch_spmm(A, d, PhiloxSketchRNG(15), kernel="algo3",
                                 b_d=8)
        np.testing.assert_allclose(st.sketch, oneshot, atol=1e-10)
        assert st.rows_seen == A.shape[0]
        assert st.batches_absorbed == -(-A.nnz // 17)

    def test_entry_validation(self):
        st = StreamingSketch(10, 5, PhiloxSketchRNG(0))
        with pytest.raises(ShapeError):
            st.absorb_entries(np.array([0]), np.array([9]), np.array([1.0]))
        with pytest.raises(ShapeError):
            st.absorb_entries(np.array([-1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ShapeError):
            st.absorb_entries(np.array([0, 1]), np.array([0]),
                              np.array([1.0]))
        st.absorb_entries(np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64), np.array([]))

    def test_duplicate_entries_accumulate(self):
        st = StreamingSketch(6, 3, PhiloxSketchRNG(1))
        st.absorb_entries(np.array([2, 2]), np.array([1, 1]),
                          np.array([0.5, 0.5]))
        ref = StreamingSketch(6, 3, PhiloxSketchRNG(1))
        ref.absorb_entries(np.array([2]), np.array([1]), np.array([1.0]))
        np.testing.assert_allclose(st.sketch, ref.sketch, atol=1e-14)
