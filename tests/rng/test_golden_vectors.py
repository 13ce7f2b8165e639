"""Golden-vector regression tests for the RNG substrate.

The sketching contract is *reproducibility*: seeds must generate the same
sketch forever (across library versions, NumPy versions, platforms).
These vectors were captured from the reference implementation at v1.0.0;
any change to them is a breaking change to every stored experiment and
must be deliberate.
"""

import numpy as np
import pytest

from repro.persist.checksum import checksum_bytes
from repro.rng import (PhiloxSketchRNG, ThreefrySketchRNG, XoshiroSketchRNG,
                       make_rng)
from repro.rng.philox import key_from_seed, philox_uint64
from repro.rng.splitmix import splitmix64_stream
from repro.rng.threefry import key_pair_from_seed, threefry_uint64
from repro.rng.xoshiro import checkpoint_bits


class TestGoldenBits:
    def test_splitmix_seed42(self):
        expected = [0xBDD732262FEB6E95, 0x28EFE333B266F103,
                    0x47526757130F9F52, 0x581CE1FF0E4AE394]
        got = [int(x) for x in splitmix64_stream(42, 4)]
        assert got == expected

    def test_philox_seed42(self):
        expected = [0x4306B273A1D7A484, 0x1C24581036D4655A,
                    0x44BB2488C3B8A234, 0xFFEBA192CE9CA311]
        got = [int(x) for x in philox_uint64(
            np.arange(4), np.zeros(4, dtype=np.int64), key_from_seed(42))]
        assert got == expected

    def test_threefry_seed42(self):
        expected = [0xB6877A1552FE64C7, 0x8EA714C5ABBFFF22,
                    0xB3EEA6A265E0E177, 0x835E31178014C2BF]
        got = [int(x) for x in threefry_uint64(
            np.arange(4), np.zeros(4, dtype=np.int64),
            key_pair_from_seed(42))]
        assert got == expected

    def test_xoshiro_checkpoint_seed42(self):
        # 8-lane layout (the paper's SIMD width); independent of the wider
        # performance default, which is a separate stream by design.
        expected = [0xB83B8F17B2CAF02F, 0xBD2EE6D17D516256,
                    0xF25C781B8F645BDE, 0xFD29C93EE8E9428E]
        got = [int(x) for x in
               checkpoint_bits(42, 0, np.array([0]), 4, n_lanes=8)[:, 0]]
        assert got == expected


class TestGoldenSamples:
    def test_philox_uniform_seed42(self):
        expected = np.array([-0.7356066089123487, 0.4283568086102605,
                             -0.47092792950570583, -0.38584481878206134])
        np.testing.assert_array_equal(
            PhiloxSketchRNG(42).column_block(0, 4, 0), expected)

    def test_xoshiro_uniform_seed42(self):
        expected = np.array([-0.6031818171031773, 0.9790461463853717,
                             -0.8797497907653451, -0.18038147035986185])
        np.testing.assert_array_equal(
            XoshiroSketchRNG(42).column_block(0, 4, 0), expected)

    def test_threefry_rademacher_seed42(self):
        expected = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
        np.testing.assert_array_equal(
            ThreefrySketchRNG(42, "rademacher").column_block(0, 8, 5),
            expected)

    def test_sketch_checksum_seed42(self):
        """End-to-end lock: the sketch of a fixed matrix has a fixed sum."""
        from repro.kernels import sketch_spmm
        from repro.sparse import random_sparse

        A = random_sparse(50, 10, 0.2, seed=42)
        Ahat, _ = sketch_spmm(A, 20, PhiloxSketchRNG(42), kernel="algo3",
                              b_d=8, b_n=4)
        checksum = float(Ahat.sum())
        assert checksum == np.float64(Ahat.sum())  # deterministic platform-wide
        # Value captured at v1.0.0:
        np.testing.assert_allclose(checksum, -20.54257487446298, rtol=0, atol=0)


class TestGoldenGaussian:
    """Box–Muller through ``detmath`` for every generator family."""

    @pytest.mark.parametrize("cls, expected", [
        (PhiloxSketchRNG, [-1.1041133714128886, 0.46898401143525476,
                           0.14790944731005123, 0.008751609604264025]),
        (ThreefrySketchRNG, [-0.3696998880890572, -0.5156338053838206,
                             -0.6730048588201428, -1.1551387266279238]),
        (XoshiroSketchRNG, [-0.25835626590210164, -0.7760834304430744,
                            -0.30756953078904226, 0.12594949675219186]),
    ])
    def test_gaussian_seed42(self, cls, expected):
        np.testing.assert_array_equal(
            cls(42, "gaussian").column_block(0, 4, 0), np.array(expected))


#: CRC-32 of the canonical little-endian float64 bytes (what
#: ``repro.serve.sketch_digest`` hashes; the algorithm is pinned so the
#: vector does not depend on whether xxhash is installed) of
#: ``column_block_batch(0, 240, js)`` with 600 scattered columns — a
#: block of 144000 entries, several sampling chunks wide.
_MULTI_CHUNK_CRC32 = {
    ("philox", "uniform"): "22b355aa",
    ("philox", "uniform_scaled"): "a32c24dc",
    ("philox", "rademacher"): "c72f67a5",
    ("philox", "gaussian"): "23b928de",
    ("threefry", "uniform"): "70efb587",
    ("threefry", "uniform_scaled"): "943f7713",
    ("threefry", "rademacher"): "614ed225",
    ("threefry", "gaussian"): "c0b130f2",
    ("xoshiro", "uniform"): "70b803d4",
    ("xoshiro", "uniform_scaled"): "49e53121",
    ("xoshiro", "rademacher"): "f797e14f",
    ("xoshiro", "gaussian"): "602caeeb",
}


@pytest.mark.parametrize("family, dist", sorted(_MULTI_CHUNK_CRC32))
def test_multi_chunk_block_digest_seed42(family, dist):
    js = (np.arange(600, dtype=np.int64) * 7919) % 5003
    rng = make_rng(family, 42, dist)
    block = rng.column_block_batch(0, 240, js)
    canonical = np.ascontiguousarray(block, dtype="<f8").tobytes()
    assert checksum_bytes(canonical, "crc32") == \
        _MULTI_CHUNK_CRC32[(family, dist)]
    assert rng.samples_generated == 240 * 600
