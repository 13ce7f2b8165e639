"""Tests for the batched multi-sketch kernel tier.

The tier's single contract is bit-identity: ``sketch_spmm`` with a
batched generator (and every layer under it — :class:`BatchedSketchRNG`,
the block kernels on a ``(k, d1, n1)`` stack, the backend's ``*_batched``
methods) must produce, for every member ``t``, exactly the bytes that
``k`` independent single-sketch runs produce.  These tests pin that
contract at each layer, including when runs with different geometries
interleave through one thread's reused sampling scratch.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.kernels import algo3_block, algo4_block
from repro.kernels.backends import NUMPY
from repro.kernels.blocking import sketch_spmm
from repro.rng.base import make_rng
from repro.rng.batched import BatchedSketchRNG, make_batched_rng
from repro.sparse import CSCMatrix, csc_to_blocked_csr, random_sparse

SEEDS = (11, 22, 33, 44)
RNG_KINDS = ("philox", "threefry", "xoshiro")
DISTS = ("uniform", "rademacher", "gaussian")


def _matrix_with_empty_structure(seed: int = 3) -> CSCMatrix:
    """Sparse test matrix with fully empty columns and rows."""
    A = random_sparse(120, 32, 0.08, seed=seed)
    dense = A.to_dense()
    dense[:, 7] = 0.0
    dense[:, 31] = 0.0
    dense[50:70, :] = 0.0
    return CSCMatrix.from_dense(dense)


class TestBatchedRNG:
    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("kind", RNG_KINDS)
    def test_stack_slices_bit_identical_to_members(self, kind, dist):
        brng = make_batched_rng(kind, SEEDS, dist)
        js = np.array([0, 3, 4, 9, 17, 21], dtype=np.int64)
        stack = brng.column_block_stack(5, 48, js)
        assert stack.shape == (len(SEEDS), 48, js.size)
        for t, seed in enumerate(SEEDS):
            solo = make_rng(kind, seed, dist).column_block_batch(5, 48, js)
            assert np.array_equal(stack[t], solo)

    def test_chunking_is_bitwise_invisible(self, monkeypatch):
        import repro.rng.base as rb
        js = np.arange(0, 40, dtype=np.int64)
        whole = make_batched_rng("philox", SEEDS).column_block_stack(0, 32, js)
        monkeypatch.setattr(rb, "CHUNK_LANES", 7)
        tiny = make_batched_rng("philox", SEEDS).column_block_stack(0, 32, js)
        assert np.array_equal(whole, tiny)

    def test_samples_accounting_matches_independent_calls(self):
        brng = make_batched_rng("threefry", SEEDS)
        js = np.arange(0, 10, dtype=np.int64)
        brng.column_block_stack(0, 16, js)
        for m in brng.members:
            assert m.samples_generated == 16 * js.size
        assert brng.samples_generated == len(SEEDS) * 16 * js.size
        brng.reset_counters()
        assert brng.samples_generated == 0

    def test_mixed_family_rejected(self):
        with pytest.raises(ConfigError, match="share one family"):
            BatchedSketchRNG([make_rng("philox", 1), make_rng("threefry", 2)])

    def test_mixed_distribution_rejected(self):
        with pytest.raises(ConfigError, match="share one distribution"):
            BatchedSketchRNG([make_rng("philox", 1, "uniform"),
                              make_rng("philox", 2, "gaussian")])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            make_batched_rng("philox", [])

    def test_batch_of_one(self):
        brng = make_batched_rng("philox", [17])
        js = np.array([2, 5], dtype=np.int64)
        stack = brng.column_block_stack(3, 8, js)
        assert stack.shape == (1, 8, 2)
        solo = make_rng("philox", 17).column_block_batch(3, 8, js)
        assert np.array_equal(stack[0], solo)


class TestBatchedBlockKernels:
    """The pure-numpy batched block kernels vs the per-member loop."""

    A = _matrix_with_empty_structure()

    @staticmethod
    def _stack(k, d1, n1, strided):
        """A C-ordered stack, or a strided view into a wider one."""
        if not strided:
            return np.zeros((k, d1, n1))
        return np.zeros((k, d1 + 5, n1 + 3))[:, 2:2 + d1, 1:1 + n1]

    @pytest.mark.parametrize("strided", (False, True))
    @pytest.mark.parametrize("kind", ("philox", "xoshiro"))
    def test_algo3_matches_member_loop(self, kind, strided):
        d1, r = 24, 48
        brng = make_batched_rng(kind, SEEDS)
        stack = self._stack(len(SEEDS), d1, self.A.shape[1], strided)
        algo3_block(stack, self.A, r, brng)
        for t, seed in enumerate(SEEDS):
            solo = np.zeros((d1, self.A.shape[1]))
            algo3_block(solo, self.A, r, make_rng(kind, seed))
            assert np.array_equal(stack[t], solo)

    @pytest.mark.parametrize("strided", (False, True))
    @pytest.mark.parametrize("b_n", (3, 64))
    def test_algo4_matches_member_loop(self, b_n, strided):
        # Narrow blocks, and one block wider than the matrix.
        d1, r = 16, 32
        blocked, _ = csc_to_blocked_csr(self.A, b_n)
        for bi, A_blk in enumerate(blocked.blocks):
            brng = make_batched_rng("philox", SEEDS)
            stack = self._stack(len(SEEDS), d1, A_blk.shape[1], strided)
            algo4_block(stack, A_blk, r, brng)
            for t, seed in enumerate(SEEDS):
                solo = np.zeros((d1, A_blk.shape[1]))
                algo4_block(solo, A_blk, r, make_rng("philox", seed))
                assert np.array_equal(stack[t], solo), f"block {bi}"

    def test_stack_shape_mismatch_rejected(self):
        brng = make_batched_rng("philox", SEEDS)
        stack = np.zeros((2, 8, self.A.shape[1]))       # wrong batch size
        with pytest.raises(ShapeError, match="batched"):
            algo3_block(stack, self.A, 0, brng)


class TestBackendBatched:
    """The backend's ``*_batched`` methods vs its member-by-member loop."""

    A = _matrix_with_empty_structure(seed=7)

    @pytest.mark.parametrize("kernel", ("algo3", "algo4"))
    def test_backend_batched_matches_base_loop(self, kernel):
        d1, r = 20, 16
        brng = make_batched_rng("philox", SEEDS)
        A_blk = (self.A if kernel == "algo3"
                 else csc_to_blocked_csr(self.A, 8)[0].blocks[1])
        stack = np.zeros((len(SEEDS), d1, A_blk.shape[1]))
        getattr(NUMPY, f"{kernel}_block_batched")(stack, A_blk, r, brng)
        base = np.zeros_like(stack)
        for t, member in enumerate(make_batched_rng("philox", SEEDS).members):
            getattr(NUMPY, f"{kernel}_block")(base[t], A_blk, r, member)
        assert np.array_equal(stack, base)


class TestSketchSpmmBatched:
    """End-to-end: k sketches in one pass == k independent runs."""

    A = random_sparse(300, 120, 0.05, seed=3)

    @pytest.mark.parametrize("kind", ("philox", "threefry", "xoshiro"))
    @pytest.mark.parametrize("kernel", ("algo3", "algo4"))
    def test_bit_identical_to_independent_runs(self, kernel, kind):
        d, b_d, b_n = 64, 32, 40
        brng = make_batched_rng(kind, SEEDS)
        stacked, stats = sketch_spmm(
            self.A, d, brng, kernel=kernel, b_d=b_d, b_n=b_n)
        assert stacked.shape == (len(SEEDS), d, self.A.shape[1])
        assert stacked.flags.c_contiguous
        assert stats.extra["batch"] == len(SEEDS)
        for t, seed in enumerate(SEEDS):
            solo, solo_stats = sketch_spmm(
                self.A, d, make_rng(kind, seed), kernel=kernel,
                b_d=b_d, b_n=b_n)
            assert np.array_equal(stacked[t], solo)
        # Sample accounting equals k independent runs too.
        assert stats.samples_generated == len(SEEDS) * solo_stats.samples_generated

    def test_list_of_rngs_accepted(self):
        rngs = [make_rng("philox", s) for s in SEEDS]
        stacked, _ = sketch_spmm(self.A, 32, rngs, kernel="algo3",
                                 b_d=16, b_n=30)
        solo, _ = sketch_spmm(self.A, 32, make_rng("philox", SEEDS[2]),
                              kernel="algo3", b_d=16, b_n=30)
        assert np.array_equal(stacked[2], solo)


class TestWorkspaceReuse:
    """Scratch reuse across changed r/b_d/b_n/batch must stay exact.

    Every sampling call on a thread reuses that thread's scratch buffers
    (:func:`repro.rng.scratch.thread_scratch`), and Algorithm 4 memoizes
    each block's pattern.  Runs whose geometry (and batch size) changes
    between calls must still match fresh runs bit for bit: no buffer may
    come back stale-shaped from a previous run.
    """

    A = random_sparse(300, 120, 0.05, seed=3)

    def _expected(self, kernel, kind, seed, d, b_d, b_n):
        out, _ = sketch_spmm(self.A, d, make_rng(kind, seed), kernel=kernel,
                             b_d=b_d, b_n=b_n)
        return out

    def test_interleaved_geometries_one_workspace(self):
        # Interleave batched and solo runs with shrinking AND growing
        # shapes (d, b_d, b_n, batch) on one thread; every output must
        # match the single-sketch run bit for bit.
        schedule = [
            ("algo4", "philox", 64, 32, 40, SEEDS),
            ("algo4", "philox", 32, 16, 24, SEEDS[:2]),   # shrink all
            ("algo3", "threefry", 48, 48, 120, SEEDS),    # grow back
            ("algo4", "philox", 64, 32, 40, (SEEDS[0],)), # batch of 1
            ("algo3", "threefry", 16, 8, 8, SEEDS[:3]),
        ]
        for kernel, kind, d, b_d, b_n, seeds in schedule:
            stacked, _ = sketch_spmm(
                self.A, d, make_batched_rng(kind, seeds), kernel=kernel,
                b_d=b_d, b_n=b_n)
            for t, seed in enumerate(seeds):
                expected = self._expected(kernel, kind, seed, d, b_d, b_n)
                assert np.array_equal(stacked[t], expected), \
                    f"{kernel}/{kind} d={d} b_d={b_d} b_n={b_n} seed={seed}"
