"""Tests for repro.rng.philox (Philox4x32 counter-based RNG)."""

import numpy as np
import pytest

from repro.rng import philox4x32, philox_uint64
from repro.rng.philox import key_from_seed


def _philox4x32_scalar(ctr, key, rounds=10):
    """Pure-Python reference transcription of Philox4x32 (Salmon et al.)."""
    mask32 = 0xFFFFFFFF
    x = list(ctr)
    k0, k1 = key
    for _ in range(rounds):
        p0 = (0xD2511F53 * x[0]) & 0xFFFFFFFFFFFFFFFF
        p1 = (0xCD9E8D57 * x[2]) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = (p0 >> 32) & mask32, p0 & mask32
        hi1, lo1 = (p1 >> 32) & mask32, p1 & mask32
        x = [hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0]
        k0 = (k0 + 0x9E3779B9) & mask32
        k1 = (k1 + 0xBB67AE85) & mask32
    return x


class TestPhilox4x32:
    def test_matches_scalar_reference(self):
        counters = [(0, 0, 0, 0), (1, 0, 0, 0), (123, 456, 789, 1011),
                    (0xFFFFFFFF,) * 4]
        key = (np.uint32(0xDEADBEEF), np.uint32(0xCAFEF00D))
        for ctr in counters:
            got = philox4x32(*(np.uint32(c) for c in ctr), key)
            expected = _philox4x32_scalar(ctr, (int(key[0]), int(key[1])))
            assert [int(g) for g in got] == expected

    def test_vectorized_matches_elementwise(self):
        rng = np.random.default_rng(0)
        c = rng.integers(0, 2**32, size=(4, 50), dtype=np.uint64).astype(np.uint32)
        key = key_from_seed(7)
        batch = philox4x32(c[0], c[1], c[2], c[3], key)
        for t in range(50):
            single = philox4x32(c[0, t], c[1, t], c[2, t], c[3, t], key)
            for w in range(4):
                assert batch[w][t] == single[w]

    def test_rounds_change_output(self):
        key = key_from_seed(0)
        a = philox4x32(np.uint32(1), np.uint32(2), np.uint32(3), np.uint32(4),
                       key, rounds=7)
        b = philox4x32(np.uint32(1), np.uint32(2), np.uint32(3), np.uint32(4),
                       key, rounds=10)
        assert any(int(x) != int(y) for x, y in zip(a, b))

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            philox4x32(np.uint32(0), np.uint32(0), np.uint32(0), np.uint32(0),
                       key_from_seed(0), rounds=0)

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((1, 3), (1, 3)),
                                        ((3, 1), ())])
    def test_key_not_per_leading_slice_rejected(self, shapes):
        c = np.zeros((3, 3), dtype=np.uint32)
        key = tuple(np.ones(s, dtype=np.uint32) for s in shapes)
        with pytest.raises(ValueError, match="leading-axis slice"):
            philox4x32(c, c, c, c, key)

    def test_counters_not_mutated(self):
        c = np.zeros(3, dtype=np.uint32)
        philox4x32(c, c, c, c, key_from_seed(1))
        assert np.all(c == 0)


class TestPhiloxUint64:
    def test_deterministic(self):
        key = key_from_seed(5)
        a = philox_uint64(np.arange(10), np.arange(10), key)
        b = philox_uint64(np.arange(10), np.arange(10), key)
        assert np.array_equal(a, b)

    def test_coordinate_addressed(self):
        # Value at (i, j) is independent of what else is requested.
        key = key_from_seed(5)
        grid = philox_uint64(np.arange(8)[:, None], np.arange(6)[None, :], key)
        single = philox_uint64(np.array([3]), np.array([4]), key)
        assert grid[3, 4] == single[0]

    def test_distinct_keys_distinct_streams(self):
        rows, cols = np.arange(100), np.zeros(100, dtype=np.int64)
        a = philox_uint64(rows, cols, key_from_seed(1))
        b = philox_uint64(rows, cols, key_from_seed(2))
        assert not np.array_equal(a, b)

    def test_large_coordinates(self):
        key = key_from_seed(0)
        big = np.array([2**40], dtype=np.uint64)
        out = philox_uint64(big, big, key)
        assert out.shape == (1,)

    def test_row_column_asymmetry(self):
        key = key_from_seed(9)
        ab = philox_uint64(np.array([5]), np.array([7]), key)
        ba = philox_uint64(np.array([7]), np.array([5]), key)
        assert ab[0] != ba[0]

    def test_bit_balance(self):
        # Output bits should be roughly balanced across a large sample.
        key = key_from_seed(3)
        out = philox_uint64(np.arange(4096), np.zeros(4096, dtype=np.int64), key)
        ones = sum(bin(int(x)).count("1") for x in out)
        total = 64 * 4096
        assert abs(ones / total - 0.5) < 0.01


class TestKeyFromSeed:
    def test_deterministic(self):
        assert key_from_seed(42) == key_from_seed(42)

    def test_low_entropy_seeds_separate(self):
        k0, k1 = key_from_seed(0), key_from_seed(1)
        assert k0 != k1
