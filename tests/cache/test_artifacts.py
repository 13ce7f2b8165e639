"""Typed artifact round trips: tune results, kernel choices, blocked CSR."""

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachePolicy
from repro.cache.artifacts import (
    blocked_csr_from_arrays,
    blocked_csr_key,
    fetch_blocked_csr,
    fetch_kernel_choice,
    fetch_tune_result,
    kernel_choice_key,
    store_blocked_csr,
    store_kernel_choice,
    store_tune_result,
    tune_key,
)
from repro.kernels.autotune import TuneResult
from repro.kernels.dispatch import KernelChoice
from repro.sparse import csc_to_blocked_csr, random_sparse


@pytest.fixture
def A():
    return random_sparse(90, 24, 0.1, seed=77)


def make_cache(tmp_path):
    return ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))


class TestTuneRoundTrip:
    def test_disk_round_trip(self, tmp_path, A):
        result = TuneResult(kernel="algo3", b_d=16, b_n=8, seconds=0.01,
                            trials=[("algo3", 16, 8, 0.01)], tuning_seed=9)
        key = tune_key(A, kernel="algo3", d=30, max_tuning_cols=16,
                       repeats=1, tuning_seed=9)
        store_tune_result(make_cache(tmp_path), key, result)
        got = fetch_tune_result(make_cache(tmp_path), key)
        assert got is not None
        assert got.to_json() == result.to_json()

    def test_autotune_blocking_uses_the_cache(self, tmp_path, A):
        from repro.kernels.autotune import autotune_blocking
        from repro.rng import PhiloxSketchRNG

        cache = make_cache(tmp_path)
        first = autotune_blocking(A, 30, lambda: PhiloxSketchRNG(7),
                                  repeats=1, max_tuning_cols=8, cache=cache)
        assert cache.miss_total() >= 1
        warm = make_cache(tmp_path)
        second = autotune_blocking(A, 30, lambda: PhiloxSketchRNG(7),
                                   repeats=1, max_tuning_cols=8, cache=warm)
        # The warm call returns the stored record verbatim — identical
        # winner AND identical measured trials, i.e. no re-timing ran.
        assert warm.hits == {"tune": 1}
        assert warm.miss_total() == 0
        assert second.to_json() == first.to_json()


class TestKernelChoiceRoundTrip:
    def test_disk_round_trip(self, tmp_path, A):
        choice = KernelChoice(kernel="algo4", reason="concentrated",
                              column_concentration=0.4,
                              machine_favors_reuse=True)
        key = kernel_choice_key(A, concentration_threshold=0.5)
        store_kernel_choice(make_cache(tmp_path), key, choice)
        got = fetch_kernel_choice(make_cache(tmp_path), key)
        assert got is not None
        assert got.to_json() == choice.to_json()


class TestBlockedCsrRoundTrip:
    def test_disk_round_trip_is_bit_identical(self, tmp_path, A):
        blocked, _ = csc_to_blocked_csr(A, 8)
        key = blocked_csr_key(A, 8)
        store_blocked_csr(make_cache(tmp_path), key, blocked, b_n=8)
        got = fetch_blocked_csr(make_cache(tmp_path), key, A.shape)
        assert got is not None
        assert got.shape == blocked.shape
        assert got.n_blocks == blocked.n_blocks
        np.testing.assert_array_equal(got.block_starts, blocked.block_starts)
        for g, w in zip(got.blocks, blocked.blocks):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g.indptr, w.indptr)
            np.testing.assert_array_equal(g.indices, w.indices)
            np.testing.assert_array_equal(g.data, w.data)

    def test_loaded_blocks_are_views_not_copies(self, tmp_path, A):
        """Workers map these arrays from shared memory; per-block copies
        would defeat the zero-copy design."""
        blocked, _ = csc_to_blocked_csr(A, 8)
        key = blocked_csr_key(A, 8)
        store_blocked_csr(make_cache(tmp_path), key, blocked, b_n=8)
        got = fetch_blocked_csr(make_cache(tmp_path), key, A.shape)
        for blk in got.blocks:
            assert blk.data.base is not None
            assert blk.indices.base is not None

    def test_shape_drift_is_treated_as_corruption(self, tmp_path, A):
        blocked, _ = csc_to_blocked_csr(A, 8)
        key = blocked_csr_key(A, 8)
        store_blocked_csr(make_cache(tmp_path), key, blocked, b_n=8)
        fresh = make_cache(tmp_path)
        assert fetch_blocked_csr(fresh, key, (A.shape[0] + 1,
                                              A.shape[1])) is None
        assert fresh.misses == {"blocked_csr": 1}

    def test_from_arrays_matches_direct_conversion(self, A):
        blocked, _ = csc_to_blocked_csr(A, 8)
        indptr = np.stack([b.indptr for b in blocked.blocks])
        indices = np.concatenate([b.indices for b in blocked.blocks])
        data = np.concatenate([b.data for b in blocked.blocks])
        rebuilt = blocked_csr_from_arrays(A.shape, blocked.block_starts,
                                          indptr, indices, data)
        d = 12
        from repro.kernels import sketch_spmm
        from repro.rng import PhiloxSketchRNG

        ref, _ = sketch_spmm(A, d, PhiloxSketchRNG(3), kernel="algo4",
                             b_d=4, b_n=8, blocked=blocked)
        got, _ = sketch_spmm(A, d, PhiloxSketchRNG(3), kernel="algo4",
                             b_d=4, b_n=8, blocked=rebuilt)
        np.testing.assert_array_equal(got, ref)

    def test_empty_matrix_round_trips(self, tmp_path):
        E = random_sparse(10, 6, 0.0, seed=0)
        blocked, _ = csc_to_blocked_csr(E, 3)
        key = blocked_csr_key(E, 3)
        store_blocked_csr(make_cache(tmp_path), key, blocked, b_n=3)
        got = fetch_blocked_csr(make_cache(tmp_path), key, E.shape)
        assert got is not None
        assert got.nnz == 0

