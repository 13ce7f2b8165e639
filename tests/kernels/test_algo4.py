"""Tests for repro.kernels.algo4 (variant jki with on-the-fly RNG)."""

import numpy as np
import pytest

import repro.rng.base as rng_base
from repro.core import SketchConfig
from repro.errors import ShapeError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.kernels import (algo3_block_reference, algo4, algo4_block,
                           algo4_block_reference, sketch_spmm)
from repro.kernels.algo4 import PanelMemo
from repro.parallel import ResilienceConfig, WorkerPoolConfig
from repro.parallel.executor import PlanExecutionEngine
from repro.persist.checksum import checksum_bytes
from repro.plan import EventBus, PartitionSpec, Planner, Runtime
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


# -- the panel memo: a row block's panel reused across column blocks ---------

def _memo_count(A, d, b_n, k=1):
    """``Σ_j Σ_i d1 * k * |js_j \\ js_prev|``: ``js_prev`` the rows of the
    last non-empty column block (the sum over row blocks gives ``d``)."""
    B, _ = csc_to_blocked_csr(A, b_n)
    prev, total = set(), 0
    for blk in B.blocks:
        js = set(blk.nonempty_rows().tolist())
        if js:
            total += len(js - prev)
            prev = js
    return d * k * total


def _paper_count(A, d, b_n, k=1):
    """The paper's count: every block samples all its non-empty rows."""
    B, _ = csc_to_blocked_csr(A, b_n)
    return d * k * sum(blk.nonempty_rows().size for blk in B.blocks)


def _patterned() -> CSCMatrix:
    """Column blocks of width 2 meeting each memo path in turn: all rows
    new, a subset, a superset, disjoint, empty, then a partial overlap
    with the last non-empty block."""
    dense = np.zeros((8, 12))
    for b, rows in enumerate([(0, 1, 2), (1, 2), (0, 1, 2, 3), (5,), (),
                              (4, 5, 6)]):
        for row in rows:
            dense[row, 2 * b + row % 2] = 1.0 + row + b
    return CSCMatrix.from_dense(dense)


#: name -> (A, d, b_d, b_n), with b_d < d and b_n < n.
_MEMO_CASES = {
    "abnormal_a": (abnormal_a(200, 40, period=10, seed=2), 12, 5, 9),
    "random_sparse": (random_sparse(120, 36, 0.1, seed=1803), 12, 5, 9),
    "patterned": (_patterned(), 7, 3, 2),
}


class TestPanelMemo:
    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("case", sorted(_MEMO_CASES))
    def test_bit_identical_to_reference(self, case, family, dist):
        A, d, b_d, b_n = _MEMO_CASES[case]
        seeds = (42, 7)
        refs = [sketch_spmm(A, d, make_rng(family, s, dist), kernel="algo4",
                            b_d=b_d, b_n=b_n, reference=True)[0]
                for s in seeds]
        got, stats = sketch_spmm(A, d, make_rng(family, seeds[0], dist),
                                 kernel="algo4", b_d=b_d, b_n=b_n)
        assert np.array_equal(got, refs[0])
        assert stats.samples_generated == _memo_count(A, d, b_n)
        stack, stats = sketch_spmm(A, d, make_batched_rng(family, seeds, dist),
                                   kernel="algo4", b_d=b_d, b_n=b_n)
        for t, ref in enumerate(refs):
            assert np.array_equal(stack[t], ref), t
        assert stats.samples_generated == _memo_count(A, d, b_n, k=2)

    @pytest.mark.parametrize("case", sorted(_MEMO_CASES))
    def test_count_never_exceeds_the_papers(self, case):
        A, d, _b_d, b_n = _MEMO_CASES[case]
        assert _memo_count(A, d, b_n) <= _paper_count(A, d, b_n)
        _, stats = sketch_spmm(A, d, make_rng("philox", 0), kernel="algo4",
                               b_d=d, b_n=A.shape[1])  # one column block
        assert stats.samples_generated == _paper_count(A, d, A.shape[1])

    def test_full_reuse_hands_back_the_kept_panel(self):
        A, d, b_d, b_n = _MEMO_CASES["abnormal_a"]
        B, _ = csc_to_blocked_csr(A, b_n)
        memo, rng = PanelMemo(), make_rng("philox", 3)
        out = np.zeros((b_d, b_n))
        algo4_block(out, B.blocks[0], 0, rng, memo=memo)
        (js, panel), = memo.kept(rng).values()
        algo4_block(out, B.blocks[1], 0, rng, memo=memo)
        assert memo.kept(rng)[(0, b_d)][1] is panel
        assert rng.samples_generated == b_d * js.size
        # Another generator, or another row block, samples its own.
        other = make_rng("philox", 3)
        algo4_block(out, B.blocks[1], 0, other, memo=memo)
        algo4_block(out[:4], B.blocks[1], 5, rng, memo=memo)
        assert other.samples_generated == b_d * js.size
        assert rng.samples_generated == (b_d + 4) * js.size

    def test_panel_over_the_cap_is_not_kept(self, monkeypatch):
        A, d, b_d, b_n = _MEMO_CASES["abnormal_a"]
        B, _ = csc_to_blocked_csr(A, b_n)
        rows = B.blocks[0].nonempty_rows().size
        monkeypatch.setattr(algo4, "MEMO_ENTRIES", b_d * rows - 1)
        memo, rng = PanelMemo(), make_rng("philox", 3)
        out = np.zeros((b_d, b_n))
        algo4_block(out, B.blocks[0], 0, rng, memo=memo)
        algo4_block(out, B.blocks[1], 0, rng, memo=memo)
        assert memo.held() == 0
        assert rng.samples_generated == 2 * b_d * rows
        # A cap that fits one row block's panel but not two.
        monkeypatch.setattr(algo4, "MEMO_ENTRIES", b_d * rows)
        algo4_block(out, B.blocks[0], 0, rng, memo=memo)
        algo4_block(out, B.blocks[0], 5, rng, memo=memo)
        assert memo.held() == b_d * rows
        got, stats = sketch_spmm(A, d, make_rng("philox", 3),
                                 kernel="algo4", b_d=b_d, b_n=b_n)
        ref, _ = sketch_spmm(A, d, make_rng("philox", 3), kernel="algo4",
                             b_d=b_d, b_n=b_n, reference=True)
        assert np.array_equal(got, ref)
        assert _memo_count(A, d, b_n) < stats.samples_generated \
            < _paper_count(A, d, b_n)


def _serial_plan(A, d, b_d, b_n, **kw):
    cfg = SketchConfig(kernel="algo4", rng_kind="philox", seed=3, b_d=b_d,
                       b_n=b_n, resilience=kw.pop("resilience", None))
    return Planner().compile(A, cfg, d=d, driver=kw.pop("driver", "serial"),
                             **kw)


class TestPanelMemoOnTheEngine:
    def test_corrupted_rng_leaves_the_base_generators_panels_clean(self):
        A, d, b_d, b_n = _MEMO_CASES["abnormal_a"]
        plan = _serial_plan(A, d, b_d, b_n, resilience=ResilienceConfig(
            max_retries=2, guardrail="recompute"))
        clean = Runtime().run(plan, A)
        bus = EventBus()
        FaultInjector(FaultPlan([FaultSpec(kind="rng", task=(5, 18))])
                      ).register(bus)
        engine = PlanExecutionEngine(plan, A, plan.rng_factory(), bus=bus,
                                     serial=True)
        got, stats = engine.execute()
        assert stats.health.corrupted_blocks_repaired == 1
        assert np.array_equal(got, clean.sketch)
        fresh = plan.rng_factory()(0)
        kept = 0
        for rng in engine._all_rngs:
            for (r, d1), (js, panel) in engine.panels.kept(rng).items():
                assert np.array_equal(panel,
                                      fresh.column_block_batch(r, d1, js).T)
                kept += panel.size
        assert kept == engine.panels.held() > 0

    def test_striped_serial_run_counts_as_an_unsharded_one(self):
        A, d, b_d, b_n = _MEMO_CASES["random_sparse"]
        ref = Runtime().run(_serial_plan(A, d, b_d, b_n), A)
        res = Runtime().run(_serial_plan(
            A, d, b_d, b_n, partition=PartitionSpec(shards=3)), A)
        assert res.stats.extra["shards"] == 3
        assert np.array_equal(res.sketch, ref.sketch)
        assert res.stats.samples_generated == ref.stats.samples_generated \
            == _memo_count(A, d, b_n)

    def test_process_run_samples_every_block(self):
        A, d, b_d, b_n = _MEMO_CASES["abnormal_a"]
        res = Runtime().run(_serial_plan(
            A, d, b_d, b_n, driver="process",
            pool=WorkerPoolConfig(workers=2)), A)
        ref = Runtime().run(_serial_plan(A, d, b_d, b_n), A)
        assert np.array_equal(res.sketch, ref.sketch)
        assert res.stats.samples_generated == _paper_count(A, d, b_n)
