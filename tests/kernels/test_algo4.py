"""Tests for repro.kernels.algo4 (variant jki with on-the-fly RNG)."""

import numpy as np
import pytest

import repro.rng.base as rng_base
from repro.errors import ShapeError
from repro.kernels import (algo3_block_reference, algo4_block,
                           algo4_block_reference)
from repro.persist.checksum import checksum_bytes
from repro.rng import PhiloxSketchRNG, XoshiroSketchRNG, make_batched_rng, make_rng
from repro.sparse import (CSCMatrix, CSRMatrix, abnormal_a, csc_to_blocked_csr,
                          random_sparse)
from repro.utils import Stopwatch

FAMILIES = ("philox", "threefry", "xoshiro")
DISTS = ("uniform", "rademacher", "gaussian")


def _block(A, b_n=None):
    """First vertical block of A in CSR."""
    b_n = A.shape[1] if b_n is None else b_n
    B, _ = csc_to_blocked_csr(A, b_n)
    return B.blocks[0]


class TestReferenceKernel:
    def test_matches_algo3_reference(self):
        # With a counter-based RNG both algorithms compute the same product.
        A = random_sparse(25, 8, 0.3, seed=71)
        d1, r = 6, 12
        ref = np.zeros((d1, 8))
        algo3_block_reference(ref, A, r, PhiloxSketchRNG(5))
        out = np.zeros((d1, 8))
        algo4_block_reference(out, _block(A), r, PhiloxSketchRNG(5))
        np.testing.assert_allclose(out, ref)

    def test_skips_empty_rows(self):
        A = random_sparse(40, 6, 0.05, seed=72)
        blk = _block(A)
        rng = PhiloxSketchRNG(1)
        out = np.zeros((5, 6))
        algo4_block_reference(out, blk, 0, rng)
        # RNG volume: d1 per *non-empty* row only.
        assert rng.samples_generated == 5 * blk.nonempty_rows().size

    def test_rng_reuse_across_row(self):
        # A single dense row triggers exactly one d1-vector generation.
        dense = np.zeros((4, 5))
        dense[2, :] = np.arange(1.0, 6.0)
        A = CSRMatrix.from_dense(dense)
        rng = PhiloxSketchRNG(2)
        out = np.zeros((3, 5))
        algo4_block_reference(out, A, 0, rng)
        assert rng.samples_generated == 3  # one column of S, reused 5x


class TestVectorizedKernel:
    @pytest.mark.parametrize("b_n", [1, 2, 7, 1000])
    def test_matches_reference_any_chunk(self, b_n):
        # Every column block width, down to one column and past the
        # matrix's own width.
        A = random_sparse(30, 11, 0.2, seed=73)
        B, _ = csc_to_blocked_csr(A, b_n)
        for blk in B.blocks:
            ref = np.zeros((7, blk.shape[1]))
            algo4_block_reference(ref, blk, 14, PhiloxSketchRNG(9))
            out = np.zeros((7, blk.shape[1]))
            algo4_block(out, blk, 14, PhiloxSketchRNG(9))
            assert np.array_equal(out, ref)

    def test_long_row_path(self):
        # Dense rows: every column gathers from the same few panel rows.
        dense = np.zeros((6, 12))
        dense[1, :] = 1.0
        dense[4, :] = -0.5
        A = CSRMatrix.from_dense(dense)
        ref = np.zeros((5, 12))
        algo4_block_reference(ref, A, 0, PhiloxSketchRNG(4))
        out = np.zeros((5, 12))
        algo4_block(out, A, 0, PhiloxSketchRNG(4))
        np.testing.assert_allclose(out, ref)

    def test_short_row_scatter_path(self):
        # Sparse rows: many panel rows, few entries per output column.
        A = random_sparse(50, 20, 0.03, seed=74)
        blk = _block(A)
        ref = np.zeros((4, 20))
        algo4_block_reference(ref, blk, 0, PhiloxSketchRNG(4))
        out = np.zeros((4, 20))
        algo4_block(out, blk, 0, PhiloxSketchRNG(4))
        np.testing.assert_allclose(out, ref)

    def test_xoshiro_matches_reference(self):
        A = random_sparse(30, 9, 0.2, seed=75)
        blk = _block(A)
        ref = np.zeros((6, 9))
        algo4_block_reference(ref, blk, 6, XoshiroSketchRNG(9))
        out = np.zeros((6, 9))
        algo4_block(out, blk, 6, XoshiroSketchRNG(9))
        np.testing.assert_allclose(out, ref)

    def test_stopwatch_buckets(self):
        A = random_sparse(30, 9, 0.2, seed=76)
        sw = Stopwatch()
        out = np.zeros((4, 9))
        algo4_block(out, _block(A), 0, PhiloxSketchRNG(1), watch=sw)
        assert sw.total("sample") > 0.0
        assert sw.total("compute") > 0.0

    def test_empty_block_noop(self):
        A = CSRMatrix((8, 3), np.zeros(9, dtype=np.int64),
                      np.array([], dtype=np.int64), np.array([]))
        out = np.zeros((4, 3))
        algo4_block(out, A, 0, PhiloxSketchRNG(3))
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_shape_mismatch(self):
        A = random_sparse(10, 5, 0.3, seed=77)
        with pytest.raises(ShapeError):
            algo4_block(np.zeros((4, 7)), _block(A), 0, PhiloxSketchRNG(0))


class TestRngSavingsVsAlgo3:
    def test_fewer_samples_than_algo3(self):
        # Algorithm 4's raison d'etre: strictly fewer generated numbers
        # whenever some row of a block holds more than one nonzero.
        A = random_sparse(40, 30, 0.15, seed=79)
        blk = _block(A)
        r3, r4 = PhiloxSketchRNG(1), PhiloxSketchRNG(1)
        out = np.zeros((6, 30))
        algo3_block_reference(out.copy(), A, 0, r3)
        algo4_block(out, blk, 0, r4)
        assert r4.samples_generated < r3.samples_generated
        assert r3.samples_generated == 6 * A.nnz


def _mixed_long_rows() -> CSCMatrix:
    """Long rows (average nnz >= 8), some one contiguous run, some not."""
    dense = random_sparse(40, 30, 0.3, seed=81).to_dense()
    dense[5, :] = 0.0
    dense[5, 3:21] = 1.5
    dense[9, :] = -0.75
    dense[20:26, :] = 0.0
    return CSCMatrix.from_dense(dense)


#: Small blocks for the exact comparisons with the reference kernel:
#: name -> (A, b_n, block index, d1, r).
_EXACT_CASES = {
    "dense_rows": (abnormal_a(60, 24, period=4, seed=1), 12, 1, 9, 3),
    "long_scattered": (random_sparse(40, 30, 0.35, seed=82), 30, 0, 9, 0),
    "mixed_runs": (_mixed_long_rows(), 30, 0, 9, 6),
    "short_rows": (random_sparse(80, 20, 0.06, seed=83), 20, 0, 9, 2),
}


def _exact_case(name):
    A, b_n, index, d1, r = _EXACT_CASES[name]
    B, _ = csc_to_blocked_csr(A, b_n)
    blk = B.blocks[index]
    init = np.random.default_rng(5).standard_normal((d1, blk.shape[1]))
    return blk, d1, r, init


def _outputs(init):
    """The layouts a kernel meets: C and F, and a view into a wider F
    output (as the blocked drivers pass)."""
    d1, n1 = init.shape
    yield init.copy(order="C")
    yield init.copy(order="F")
    view = np.zeros((d1 + 3, n1 + 5), order="F")[2:2 + d1, 1:1 + n1]
    view[...] = init
    yield view


class TestExactlyReferenceOrdered:
    """The numpy Algorithm 4 kernels add into every output entry in the
    reference kernel's order, so they match it bit for bit (the
    assert_allclose tests above check less)."""

    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", sorted(_EXACT_CASES))
    def test_single_kernel_bit_identical(self, case, family, dist,
                                         monkeypatch):
        blk, d1, r, init = _exact_case(case)
        ref = init.copy()
        algo4_block_reference(ref, blk, r, make_rng(family, 42, dist))
        default = rng_base.CHUNK_LANES
        for lanes in (1, 7, 50, default):
            monkeypatch.setattr(rng_base, "CHUNK_LANES", lanes)
            for out in _outputs(init):
                algo4_block(out, blk, r, make_rng(family, 42, dist))
                assert np.array_equal(out, ref), (lanes, out.strides)

    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", sorted(_EXACT_CASES))
    def test_batched_kernel_bit_identical_per_member(self, case, family,
                                                     dist, monkeypatch):
        blk, d1, r, init = _exact_case(case)
        seeds = (42, 7, 1234)
        refs = []
        for seed in seeds:
            ref = init.copy()
            algo4_block_reference(ref, blk, r, make_rng(family, seed, dist))
            refs.append(ref)
        n1 = init.shape[1]
        default = rng_base.CHUNK_LANES
        for lanes in (1, 7, 50, default):
            monkeypatch.setattr(rng_base, "CHUNK_LANES", lanes)
            c_stack = np.empty((len(seeds), d1, n1))
            f_stack = np.empty((len(seeds), n1, d1)).transpose(0, 2, 1)
            for stack in (c_stack, f_stack):
                stack[...] = init
                algo4_block(stack, blk, r,
                            make_batched_rng(family, seeds, dist))
                for t in range(len(seeds)):
                    assert np.array_equal(stack[t], refs[t]), (lanes, t)


def _crc32(a) -> str:
    return checksum_bytes(np.ascontiguousarray(a, dtype="<f8").tobytes(),
                          "crc32")


def _golden_cases():
    """name -> (block, d1, r); d1 * n1 spans more than one default tile."""
    B, _ = csc_to_blocked_csr(abnormal_a(240, 120, period=8, seed=1), 60)
    yield "abnormal_a", B.blocks[1], 700, 5
    B, _ = csc_to_blocked_csr(random_sparse(150, 70, 0.25, seed=2), 70)
    yield "long_scattered", B.blocks[0], 600, 3
    B, _ = csc_to_blocked_csr(random_sparse(400, 50, 0.04, seed=3), 50)
    yield "short_rows", B.blocks[0], 700, 0


_GOLDEN_CASES = {name: rest for name, *rest in _golden_cases()}

#: CRC-32 of the canonical little-endian float64 bytes (what
#: ``repro.serve.sketch_digest`` hashes, with the algorithm pinned) of
#: ``algo4_block`` applied, with seed 42, to a standard-normal start
#: (``default_rng(0)``): an Abnormal_A block (every row one contiguous
#: run), a long-row block with scattered columns, and a short-row block.
_ALGO4_CRC32 = {
    ("abnormal_a", "philox", "uniform"): "06348bc7",
    ("abnormal_a", "philox", "rademacher"): "2cbad862",
    ("abnormal_a", "philox", "gaussian"): "be6d6088",
    ("abnormal_a", "threefry", "uniform"): "48bacf66",
    ("abnormal_a", "threefry", "rademacher"): "1d75d1d7",
    ("abnormal_a", "threefry", "gaussian"): "13fda097",
    ("abnormal_a", "xoshiro", "uniform"): "c574b30c",
    ("abnormal_a", "xoshiro", "rademacher"): "eae1a619",
    ("abnormal_a", "xoshiro", "gaussian"): "e9b04a34",
    ("long_scattered", "philox", "uniform"): "9adffebd",
    ("long_scattered", "philox", "rademacher"): "c69fb40b",
    ("long_scattered", "philox", "gaussian"): "047455a7",
    ("long_scattered", "threefry", "uniform"): "eae716e4",
    ("long_scattered", "threefry", "rademacher"): "ba7f69aa",
    ("long_scattered", "threefry", "gaussian"): "e78aaaf9",
    ("long_scattered", "xoshiro", "uniform"): "ed858910",
    ("long_scattered", "xoshiro", "rademacher"): "62099f8d",
    ("long_scattered", "xoshiro", "gaussian"): "c247f4c0",
    ("short_rows", "philox", "uniform"): "d515f1e8",
    ("short_rows", "philox", "rademacher"): "cb59e7dd",
    ("short_rows", "philox", "gaussian"): "f4a44265",
    ("short_rows", "threefry", "uniform"): "3f68fbc3",
    ("short_rows", "threefry", "rademacher"): "81a8fb30",
    ("short_rows", "threefry", "gaussian"): "f852360b",
    ("short_rows", "xoshiro", "uniform"): "03866d57",
    ("short_rows", "xoshiro", "rademacher"): "bde9396c",
    ("short_rows", "xoshiro", "gaussian"): "64708325",
}


@pytest.mark.parametrize("case, family, dist", sorted(_ALGO4_CRC32))
def test_block_digest_golden(case, family, dist):
    blk, d1, r = _GOLDEN_CASES[case]
    init = np.random.default_rng(0).standard_normal((d1, blk.shape[1]))
    golden = _ALGO4_CRC32[(case, family, dist)]
    for order in ("C", "F"):
        out = init.copy(order=order)
        algo4_block(out, blk, r, make_rng(family, 42, dist))
        assert _crc32(out) == golden
    stack = np.stack([init, init])
    algo4_block(stack, blk, r, make_batched_rng(family, (42, 43), dist))
    assert _crc32(stack[0]) == golden
