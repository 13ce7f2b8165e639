"""Tests for repro.kernels.blocking (Algorithm 1 driver)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import default_block_sizes, iter_block_tasks, sketch_spmm
from repro.rng import JunkRNG, PhiloxSketchRNG, XoshiroSketchRNG
from repro.sparse import csc_to_blocked_csr, random_sparse


@pytest.fixture
def A():
    return random_sparse(80, 24, 0.12, seed=81)


def _dense_ref(seed, dist, d, A, b_d):
    rng = PhiloxSketchRNG(seed, dist)
    return rng.post_scale * (rng.materialize(d, A.shape[0], b_d=b_d)
                             @ A.to_dense())


class TestIterBlockTasks:
    def test_covers_output_exactly_once(self):
        cover = np.zeros((17, 13), dtype=int)
        for i, d1, j, n1 in iter_block_tasks(17, 13, 5, 4):
            cover[i:i + d1, j:j + n1] += 1
        assert np.all(cover == 1)

    def test_column_blocks_outermost(self):
        tasks = list(iter_block_tasks(10, 10, 5, 5))
        # First two tasks share j=0 (the outer loop is over columns).
        assert tasks[0][2] == tasks[1][2] == 0
        assert tasks[0][0] == 0 and tasks[1][0] == 5

    def test_ragged_edges(self):
        tasks = list(iter_block_tasks(7, 5, 3, 2))
        d1s = {t[1] for t in tasks}
        n1s = {t[3] for t in tasks}
        assert 1 in d1s  # 7 = 3+3+1
        assert 1 in n1s  # 5 = 2+2+1


class TestDefaultBlockSizes:
    def test_sequential_matches_paper_scale(self):
        b_d, b_n = default_block_sizes(52920, 17640)
        assert b_d == 3000  # the paper's sequential b_d

    def test_parallel_prefers_tall_blocks(self):
        b_d_seq, b_n_seq = default_block_sizes(50000, 17000)
        b_d_par, b_n_par = default_block_sizes(50000, 17000, parallel=True)
        assert b_d_par >= b_d_seq
        assert b_n_par <= b_n_seq

    def test_clipped_to_problem(self):
        b_d, b_n = default_block_sizes(10, 5)
        assert b_d <= 10 and b_n <= 5

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            default_block_sizes(0, 5)


class TestSketchSpmm:
    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    @pytest.mark.parametrize("b_d,b_n", [(8, 5), (100, 100), (1, 1), (13, 7)])
    def test_matches_dense_reference(self, A, kernel, b_d, b_n):
        d = 30
        Ahat, _ = sketch_spmm(A, d, PhiloxSketchRNG(3), kernel=kernel,
                              b_d=b_d, b_n=b_n)
        np.testing.assert_allclose(Ahat, _dense_ref(3, "uniform", d, A, b_d))

    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    def test_reference_flag_equivalent(self, A, kernel):
        d = 18
        fast, _ = sketch_spmm(A, d, PhiloxSketchRNG(4), kernel=kernel,
                              b_d=7, b_n=5)
        slow, _ = sketch_spmm(A, d, PhiloxSketchRNG(4), kernel=kernel,
                              b_d=7, b_n=5, reference=True)
        np.testing.assert_allclose(fast, slow)

    def test_algo3_algo4_agree_with_philox(self, A):
        d = 24
        a3, _ = sketch_spmm(A, d, PhiloxSketchRNG(5), kernel="algo3",
                            b_d=9, b_n=6)
        a4, _ = sketch_spmm(A, d, PhiloxSketchRNG(5), kernel="algo4",
                            b_d=9, b_n=6)
        np.testing.assert_allclose(a3, a4)

    def test_algo3_algo4_agree_with_xoshiro_same_blocking(self, A):
        # Checkpoints depend only on (r, j); both kernels hit the same ones
        # under the same b_d grid.
        d = 24
        a3, _ = sketch_spmm(A, d, XoshiroSketchRNG(5), kernel="algo3",
                            b_d=9, b_n=6)
        a4, _ = sketch_spmm(A, d, XoshiroSketchRNG(5), kernel="algo4",
                            b_d=9, b_n=6)
        np.testing.assert_allclose(a3, a4)

    def test_xoshiro_blocking_changes_sketch(self, A):
        d = 24
        a, _ = sketch_spmm(A, d, XoshiroSketchRNG(5), kernel="algo3",
                           b_d=8, b_n=6)
        b, _ = sketch_spmm(A, d, XoshiroSketchRNG(5), kernel="algo3",
                           b_d=12, b_n=6)
        assert not np.allclose(a, b)

    def test_philox_blocking_invariant(self, A):
        d = 24
        a, _ = sketch_spmm(A, d, PhiloxSketchRNG(5), kernel="algo3",
                           b_d=8, b_n=6)
        b, _ = sketch_spmm(A, d, PhiloxSketchRNG(5), kernel="algo3",
                           b_d=12, b_n=4)
        np.testing.assert_allclose(a, b)

    def test_scaling_trick_equivalence(self, A):
        d = 20
        plain, _ = sketch_spmm(A, d, PhiloxSketchRNG(6, "uniform"),
                               kernel="algo3", b_d=8, b_n=6)
        trick, _ = sketch_spmm(A, d, PhiloxSketchRNG(6, "uniform_scaled"),
                               kernel="algo3", b_d=8, b_n=6)
        np.testing.assert_allclose(plain, trick)

    def test_junk_rng_runs(self, A):
        Ahat, _ = sketch_spmm(A, 12, JunkRNG(), kernel="algo3", b_d=6, b_n=6)
        assert np.any(Ahat != 0)

    def test_out_parameter(self, A):
        d = 12
        buf = np.full((d, 24), 9.0)
        Ahat, _ = sketch_spmm(A, d, PhiloxSketchRNG(7), kernel="algo3",
                              b_d=6, b_n=6, out=buf)
        assert Ahat is buf
        np.testing.assert_allclose(buf, _dense_ref(7, "uniform", d, A, 6))

    def test_out_wrong_shape(self, A):
        with pytest.raises(ConfigError):
            sketch_spmm(A, 12, PhiloxSketchRNG(0), out=np.zeros((3, 3)))

    def test_prebuilt_blocked_csr(self, A):
        d = 12
        blocked, _ = csc_to_blocked_csr(A, 6)
        Ahat, stats = sketch_spmm(A, d, PhiloxSketchRNG(8), kernel="algo4",
                                  b_d=6, b_n=6, blocked=blocked)
        np.testing.assert_allclose(Ahat, _dense_ref(8, "uniform", d, A, 6))
        assert stats.conversion_seconds == 0.0

    def test_unknown_kernel(self, A):
        with pytest.raises(ConfigError):
            sketch_spmm(A, 12, PhiloxSketchRNG(0), kernel="algo5")


class TestStatsAccounting:
    def test_algo3_sample_count(self, A):
        d = 15
        _, stats = sketch_spmm(A, d, PhiloxSketchRNG(1), kernel="algo3",
                               b_d=6, b_n=5)
        assert stats.samples_generated == d * A.nnz
        assert stats.flops == 2 * d * A.nnz
        assert stats.kernel == "algo3"

    def test_algo4_fewer_samples(self, A):
        d = 15
        _, s3 = sketch_spmm(A, d, PhiloxSketchRNG(1), kernel="algo3",
                            b_d=6, b_n=5)
        _, s4 = sketch_spmm(A, d, PhiloxSketchRNG(1), kernel="algo4",
                            b_d=6, b_n=5)
        assert s4.samples_generated < s3.samples_generated

    def test_algo4_wider_blocks_fewer_samples(self, A):
        # Growing b_n increases reuse (Section III-B).
        d = 15
        _, narrow = sketch_spmm(A, d, PhiloxSketchRNG(1), kernel="algo4",
                                b_d=6, b_n=2)
        _, wide = sketch_spmm(A, d, PhiloxSketchRNG(1), kernel="algo4",
                              b_d=6, b_n=24)
        assert wide.samples_generated <= narrow.samples_generated

    def test_block_count(self, A):
        _, stats = sketch_spmm(A, 15, PhiloxSketchRNG(1), kernel="algo3",
                               b_d=6, b_n=5)
        assert stats.blocks_processed == 3 * 5  # ceil(15/6) * ceil(24/5)

    def test_timing_buckets_populated(self, A):
        _, stats = sketch_spmm(A, 15, PhiloxSketchRNG(1), kernel="algo3",
                               b_d=6, b_n=5)
        assert stats.total_seconds > 0
        assert stats.sample_seconds > 0
        assert stats.compute_seconds > 0
        assert stats.sample_seconds + stats.compute_seconds <= stats.total_seconds * 1.01

    def test_conversion_time_recorded_for_algo4(self, A):
        _, stats = sketch_spmm(A, 15, PhiloxSketchRNG(1), kernel="algo4",
                               b_d=6, b_n=5)
        assert stats.conversion_seconds > 0
        assert "conversion_ops" in stats.extra


class TestOutputLayout:
    def test_f_order_default(self, A):
        Ahat, _ = sketch_spmm(A, 12, PhiloxSketchRNG(1), kernel="algo3",
                              b_d=6, b_n=6)
        assert Ahat.flags.f_contiguous

    def test_layouts_agree(self, A):
        f, _ = sketch_spmm(A, 12, PhiloxSketchRNG(1), kernel="algo4",
                           b_d=6, b_n=6)
        buf = np.zeros((12, A.shape[1]), order="C")
        c, _ = sketch_spmm(A, 12, PhiloxSketchRNG(1), kernel="algo4",
                           b_d=6, b_n=6, out=buf)
        assert c is buf and c.flags.c_contiguous
        np.testing.assert_array_equal(f, c)
