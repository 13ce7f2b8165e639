"""Differential tests of the compiled apply both kernels use.

``algo3_block`` and ``algo4_block`` add the sketch panel through scipy's
compiled ``csr_matvecs``, for one sketch or a ``(k, d1, n1)`` stack.  The
contract is exactness: every output entry gets the same additions, in the
same order and with the same rounding, as :func:`algo3_block_reference` /
:func:`algo4_block_reference`.  These tests compare with
``np.array_equal`` across RNG families, distributions, output layouts,
degenerate blocks and batch sizes, and pin the two things a scipy build
could get wrong: a moved private function and contracted multiply-adds.
"""

import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy
from scipy.sparse import _sparsetools

from repro.errors import ConfigError, ShapeError
from repro.kernels import (algo3, algo3_block, algo3_block_reference, algo4,
                           algo4_block, algo4_block_reference)
from repro.rng import make_batched_rng, make_rng
from repro.sparse import (CSCMatrix, CSRMatrix, abnormal_a, csc_to_blocked_csr,
                          random_sparse)

FAMILIES = ("philox", "threefry", "xoshiro")
DISTS = ("uniform", "gaussian", "rademacher")
D, N = 20, 30          # the full output the blocks below write into
I0, D1 = 4, 11         # the output rows one block owns (b_d < d)


def _blocks():
    """name -> one vertical block of a small matrix."""
    B, _ = csc_to_blocked_csr(random_sparse(120, N, 0.08, seed=11), 13)
    yield "random", B.blocks[1]
    B, _ = csc_to_blocked_csr(abnormal_a(90, N, period=6, seed=3), 13)
    yield "dense_rows", B.blocks[0]
    yield "empty", CSRMatrix.from_dense(np.zeros((40, 13)))
    single = np.zeros((40, 13))
    single[17, [0, 3, 4, 12]] = [1.5, -2.0, 0.25, 3.0]
    yield "single_row", CSRMatrix.from_dense(single)


BLOCKS = dict(_blocks())


def test_blocks_cover_several_chunks(monkeypatch):
    monkeypatch.setattr(algo4, "_PATTERNS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(algo4, "PANEL_ROWS", 1)
    assert len(algo4.panel_pattern(BLOCKS["random"])) > 2
    assert len(algo4.panel_pattern(BLOCKS["dense_rows"])) == 2


@pytest.fixture(params=("one_chunk", "chunked"))
def chunking(request, monkeypatch):
    """Apply each block in one compiled call, or in chunks of as few
    panel rows as the block's width allows."""
    monkeypatch.setattr(algo4, "_PATTERNS", weakref.WeakKeyDictionary())
    if request.param == "chunked":
        monkeypatch.setattr(algo4, "PANEL_ROWS", 1)
    return request.param


def _start(n1: int, nonzero: bool) -> np.ndarray:
    if not nonzero:
        return np.zeros((D1, n1))
    return np.random.default_rng(8).standard_normal((D1, n1))


def _outputs(init: np.ndarray):
    """Views into the layouts the drivers write: a block of a C-ordered
    ``(d, n)`` output (the runtime's) and of an F-ordered one (the
    ``StreamingSketch`` layout)."""
    n1 = init.shape[1]
    for order in ("C", "F"):
        full = np.zeros((D, N), order=order)
        view = full[I0:I0 + D1, 2:2 + n1]
        view[...] = init
        yield order, full, view


@pytest.mark.parametrize("nonzero_start", (False, True))
@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_single_equals_reference(family, dist, block, nonzero_start,
                                 chunking):
    blk = BLOCKS[block]
    init = _start(blk.shape[1], nonzero_start)
    ref = init.copy()
    algo4_block_reference(ref, blk, I0, make_rng(family, 42, dist))
    for order, full, view in _outputs(init):
        before = full.copy()
        algo4_block(view, blk, I0, make_rng(family, 42, dist))
        assert np.array_equal(view, ref), order
        # Nothing outside the block's view moves.
        before[I0:I0 + D1, 2:2 + blk.shape[1]] = ref
        assert np.array_equal(full, before), order


@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_equals_member_loop(family, dist, block, k, chunking):
    blk = BLOCKS[block]
    seeds = (42, 7, 1234)[:k]
    init = _start(blk.shape[1], True)
    members = []
    for seed in seeds:
        solo = init.copy()
        algo4_block(solo, blk, I0, make_rng(family, seed, dist))
        ref = init.copy()
        algo4_block_reference(ref, blk, I0, make_rng(family, seed, dist))
        assert np.array_equal(solo, ref)
        members.append(solo)
    full = np.zeros((k, D, N))
    stack = full[:, I0:I0 + D1, 2:2 + blk.shape[1]]
    stack[...] = init
    algo4_block(stack, blk, I0, make_batched_rng(family, seeds, dist))
    for t in range(k):
        assert np.array_equal(stack[t], members[t]), t


def _column_blocks():
    """name -> one CSC column block of a small matrix."""
    yield "random", random_sparse(120, N, 0.08, seed=11).col_block(13, 26)
    yield "dense_rows", abnormal_a(90, N, period=6, seed=3).col_block(0, 13)
    yield "empty", CSCMatrix.from_dense(np.zeros((40, 13)))
    holes = random_sparse(60, 13, 0.2, seed=5).to_dense()
    holes[:, [0, 4, 5, 12]] = 0.0
    yield "empty_columns", CSCMatrix.from_dense(holes)
    yield "one_column", random_sparse(80, N, 0.2, seed=6).col_block(7, 8)


COLUMN_BLOCKS = dict(_column_blocks())


@pytest.fixture(params=("one_group", "grouped"))
def grouping(request, monkeypatch):
    """Apply each block in one compiled call, or in column groups of a
    few nonzeros (one sketch) down to single columns (three)."""
    monkeypatch.setattr(algo3, "GROUP_ENTRIES",
                        3 * D1 if request.param == "grouped" else 10**9)
    return request.param


@pytest.mark.parametrize("nonzero_start", (False, True))
@pytest.mark.parametrize("block", sorted(COLUMN_BLOCKS))
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_algo3_single_equals_reference(family, dist, block, nonzero_start,
                                       grouping):
    sub = COLUMN_BLOCKS[block]
    init = _start(sub.shape[1], nonzero_start)
    ref = init.copy()
    algo3_block_reference(ref, sub, I0, make_rng(family, 42, dist))
    for order, full, view in _outputs(init):
        before = full.copy()
        algo3_block(view, sub, I0, make_rng(family, 42, dist))
        assert np.array_equal(view, ref), order
        before[I0:I0 + D1, 2:2 + sub.shape[1]] = ref
        assert np.array_equal(full, before), order
    # A whole F-ordered block: its transpose is the compiled call's
    # output itself, with no copy in or out.
    whole = init.copy(order="F")
    algo3_block(whole, sub, I0, make_rng(family, 42, dist))
    assert np.array_equal(whole, ref)


@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("block", sorted(COLUMN_BLOCKS))
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_algo3_batched_equals_member_loop(family, dist, block, k, grouping):
    sub = COLUMN_BLOCKS[block]
    seeds = (42, 7, 1234)[:k]
    init = _start(sub.shape[1], True)
    members = []
    for seed in seeds:
        solo = init.copy()
        algo3_block(solo, sub, I0, make_rng(family, seed, dist))
        ref = init.copy()
        algo3_block_reference(ref, sub, I0, make_rng(family, seed, dist))
        assert np.array_equal(solo, ref)
        members.append(solo)
    full = np.zeros((k, D, N))
    stack = full[:, I0:I0 + D1, 2:2 + sub.shape[1]]
    stack[...] = init
    algo3_block(stack, sub, I0, make_batched_rng(family, seeds, dist))
    for t in range(k):
        assert np.array_equal(stack[t], members[t]), t


class _ConstantRNG:
    """A generator stand-in whose every sample is *value*."""

    def __init__(self, value: float, batch: int = 1) -> None:
        self.value = value
        self.batch = batch

    def column_block(self, r, d1, j):
        return np.full(d1, self.value)

    def column_block_batch(self, r, d1, js):
        return np.full((d1, js.size), self.value)

    def column_block_stack(self, r, d1, js):
        return np.full((self.batch, d1, js.size), self.value)


def test_fma_canary():
    # (1 + 2^-30)^2 rounds away its 2^-60 term, so a separate multiply
    # and add gives exactly 0 here, while a fused multiply-add keeps the
    # term.  A scipy build that contracts ``y += a * x`` into an FMA
    # fails this test.
    a = x = 1.0 + 2.0 ** -30
    y = -(1.0 + 2.0 ** -29)
    fused = float(Fraction(a) * Fraction(x) + Fraction(y))
    assert fused == 2.0 ** -60 and a * x + y == 0.0
    d1 = 64                                # long enough for SIMD loops
    blk = CSRMatrix.from_dense(np.array([[0.0, a, a], [0.0, 0.0, 0.0]]))
    ref = np.full((d1, 3), y)
    algo4_block_reference(ref, blk, 0, _ConstantRNG(x))
    out = np.full((d1, 3), y)
    algo4_block(out, blk, 0, _ConstantRNG(x))
    assert np.array_equal(out, ref)
    assert np.array_equal(out[:, 1:], np.zeros((d1, 2)))
    stack = np.full((2, d1, 3), y)
    algo4_block(stack, blk, 0, _ConstantRNG(x, batch=2))
    assert np.array_equal(stack[1], ref)
    out = np.full((d1, 3), y)
    algo3_block(out, blk.to_csc(), 0, _ConstantRNG(x))
    assert np.array_equal(out, ref)


def test_moved_scipy_kernel_is_a_config_error(monkeypatch):
    monkeypatch.delattr(_sparsetools, "csr_matvecs")
    blk = BLOCKS["random"]
    with pytest.raises(ConfigError, match=re.escape(scipy.__version__)):
        algo4_block(np.zeros((D1, blk.shape[1])), blk, 0,
                    make_rng("philox", 1))


def test_panel_of_the_wrong_width_is_rejected():
    # The compiled kernel checks no bounds: a generator returning fewer
    # panel columns than the block has non-empty rows must fail in Python.
    class Short(_ConstantRNG):
        def column_block_batch(self, r, d1, js):
            return np.full((d1, js.size - 1), self.value)

    blk = BLOCKS["random"]
    with pytest.raises(ShapeError, match="does not fit"):
        algo4_block(np.zeros((D1, blk.shape[1])), blk, 0, Short(1.0))
