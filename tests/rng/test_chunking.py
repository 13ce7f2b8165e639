"""The sampling loop's chunking and in-place transforms change no bit.

Single and batched sketches walk their columns in chunks of
``repro.rng.base.CHUNK_LANES`` entries (xoshiro fetches its bits in
wider column groups and transforms them chunk by chunk), with every
stage working on reused scratch buffers.  Whatever the chunk size, the
result must equal one unchunked ``_bits_block`` (for a batch, each
member's) plus one transform, and the sample count must not move.  The in-place ``detmath`` functions
must also still equal their scalar ``*_reference`` oracles at every
branch edge.  The scratch buffers belong to the thread: threads sampling
at once never share them, and one thread's later calls reuse them.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.rng.base as rb
from repro.rng.base import make_rng
from repro.rng.batched import make_batched_rng
from repro.rng.detmath import (_PI_OVER_2, det_cos_2pi,
                                det_cos_2pi_reference, det_log,
                                det_log_reference, gaussian_reference)
from repro.rng.distributions import DISTRIBUTIONS, GAUSSIAN
from repro.rng.scratch import thread_scratch

# The scalar oracles, under the names the branch-edge tests call.
rj = SimpleNamespace(log_det=det_log_reference,
                     cos_2pi_det=det_cos_2pi_reference,
                     u64_to_gaussian=gaussian_reference)

FAMILIES = ("philox", "threefry", "xoshiro")
SEEDS = (5, 6, 7)
R = 3
JS = np.array([9, 0, 31, 4, 4, 17, 2, 63, 8, 11, 25, 1, 40, 12, 7, 3, 99,
               5, 18, 6, 21, 13, 50, 10, 30], dtype=np.int64)


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# 1000 lanes with d1 = 150 gives xoshiro column groups (1000 // 64 = 15
# columns) wider than a transform chunk (1000 // 150 = 6 columns).
@pytest.fixture(params=[1, 7, 1000, rb.CHUNK_LANES], ids=lambda n: f"lanes{n}")
def chunk_lanes(request, monkeypatch):
    monkeypatch.setattr(rb, "CHUNK_LANES", request.param)
    return request.param


@pytest.mark.parametrize("d1", [40, 150])
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("family", FAMILIES)
class TestChunkBoundaries:
    def test_single_matches_unchunked(self, family, dist, d1, chunk_lanes):
        rng = make_rng(family, 42, dist)
        got = rng.column_block_batch(R, d1, JS)
        assert rng.samples_generated == d1 * JS.size
        # The unchunked bits are the (len(js), d1) panel.
        whole = rng.dist.sample_from_bits(rng._bits_block(R, d1, JS))
        assert _bits_equal(got, whole.T)

    def test_batched_matches_unchunked(self, family, dist, d1, chunk_lanes):
        brng = make_batched_rng(family, SEEDS, dist)
        got = brng.column_block_stack(R, d1, JS)
        for m in brng.members:
            assert m.samples_generated == d1 * JS.size
        for t, seed in enumerate(SEEDS):
            solo = make_rng(family, seed, dist)
            whole = solo.dist.sample_from_bits(solo._bits_block(R, d1, JS))
            assert _bits_equal(got[t], whole.T)
            assert _bits_equal(
                got[t], make_rng(family, seed, dist).column_block_batch(
                    R, d1, JS))


def _in_thread(fn):
    """Run *fn* on a fresh thread (so on a fresh scratch); return its result."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    return box[0]


class TestThreadScratch:
    WIDE = np.arange(5000, dtype=np.int64)[::-1]

    def test_concurrent_threads_match_sequential(self):
        # More threads than cores, switching often: a buffer shared
        # between threads would be overwritten mid-call.
        jobs = [("philox", "gaussian", 150), ("xoshiro", "rademacher", 40),
                ("threefry", "uniform", 150), ("philox", "uniform", 40),
                ("xoshiro", "gaussian", 150), ("threefry", "rademacher", 40)]

        def sample(family, dist, d1):
            return make_rng(family, 42, dist).column_block_batch(
                R, d1, self.WIDE)

        want = [sample(*job) for job in jobs]
        got = [[] for _ in jobs]
        groups = ((0, 1), (2, 3), (4, 5), (1, 4))
        barrier = threading.Barrier(len(groups))

        def worker(mine):
            barrier.wait(timeout=30)
            for _ in range(3):
                for k in mine:
                    got[k].append(sample(*jobs[k]))

        threads = [threading.Thread(target=worker, args=(mine,))
                   for mine in groups]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, runs in enumerate(got):
            assert len(runs) == 3 * sum(k in g for g in groups)
            for run in runs:
                assert _bits_equal(run, want[k]), jobs[k]

    def test_each_thread_owns_one_scratch(self):
        mine = thread_scratch()
        assert thread_scratch() is mine
        assert _in_thread(thread_scratch) is not mine

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_size_call_reuses_buffers(self, family):
        def two_calls():
            rng = make_rng(family, 42, "gaussian")
            rng.column_block_batch(R, 40, self.WIDE)
            first = dict(thread_scratch()._bufs)
            rng.column_block_batch(R + 40, 40, self.WIDE)
            return first, dict(thread_scratch()._bufs)

        first, second = _in_thread(two_calls)
        assert first and first.keys() == second.keys()
        assert all(second[name] is buf for name, buf in first.items())

    # The v1.0.0 vectors pinned by test_golden_vectors.py (column 0).
    GOLDEN = [("philox", "uniform", [-0.7356066089123487, 0.4283568086102605,
                                     -0.47092792950570583,
                                     -0.38584481878206134]),
              ("xoshiro", "uniform", [-0.6031818171031773,
                                      0.9790461463853717,
                                      -0.8797497907653451,
                                      -0.18038147035986185])]

    @pytest.mark.parametrize("family, dist, golden", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_wide_call_after_narrow_matches_golden(self, family, dist,
                                                   golden):
        def calls():
            rng = make_rng(family, 42, dist)
            narrow = rng.column_block_batch(0, 4, np.array([0]))[:, 0]
            wide = rng.column_block_batch(0, 4, self.WIDE)[:, -1]
            again = rng.column_block_batch(0, 4, np.array([0]))[:, 0]
            return narrow, wide, again

        for got in _in_thread(calls):
            np.testing.assert_array_equal(got, np.array(golden))


def _around(x, ulps=2):
    """*x* and its neighbours up to *ulps* units in the last place."""
    vals = [float(x)]
    for direction in (np.inf, -np.inf):
        v = float(x)
        for _ in range(ulps):
            v = float(np.nextafter(v, direction))
            vals.append(v)
    return vals


def _twin_equal(vectorized, scalar, xs):
    xs = np.asarray(sorted(set(xs)), dtype=np.float64)
    want = np.array([scalar(float(x)) for x in xs], dtype=np.float64)
    assert _bits_equal(vectorized(xs), want)
    # Same bits when the result lands in a strided view, in place.
    buf = np.zeros((2, xs.size))
    vectorized(xs.copy(), out=buf[1])
    assert _bits_equal(buf[1], want)


class TestDetmathBranchEdges:
    def test_cos_quadrant_edges(self):
        # u = k/4 +- 1 ulp: the quadrant index n changes there.
        us = [v for k in range(5) for v in _around(k / 4, ulps=1)]
        us = [u for u in us if 0.0 <= u < 1.0]
        _twin_equal(det_cos_2pi, rj.cos_2pi_det, us)

    def test_cos_qx_edges(self):
        # |theta| = 0.3 and 0.78125 switch the k_cos qx correction; reach
        # them from every quadrant, on both sides of each edge.
        us = []
        for edge in (0.3, 0.78125):
            g = edge / _PI_OVER_2
            for k in range(4):
                for sign in (1.0, -1.0):
                    u = (k + sign * g) / 4.0
                    if 0.0 <= u < 1.0:
                        us.extend(_around(u, ulps=3))
        theta = np.abs((4.0 * np.array(us) - np.floor(4.0 * np.array(us)
                                                      + 0.5)) * _PI_OVER_2)
        for edge in (0.3, 0.78125):
            assert (theta < edge).any() and (theta > edge).any()
        _twin_equal(det_cos_2pi, rj.cos_2pi_det, us)

    def test_log_edges(self):
        # u1 = 0.5 / 2**32 is the smallest Box-Muller input; sqrt(1/2)
        # moves m into the doubled branch; powers of two are exact.
        xs = (_around(0.5 / 2**32) + _around(0.70710678118654752440)
              + _around(0.5) + _around(0.25) + _around(1.0 - 2**-33))
        _twin_equal(det_log, rj.log_det, xs)

    def test_gaussian_extreme_bits(self):
        # hi = 0 gives u1 = 0.5 / 2**32 (the largest radius); lo spans the
        # quadrant edges of u2.
        los = [0, 1, 2**30 - 1, 2**30, 2**31 - 1, 2**31, 3 * 2**30,
               2**32 - 1]
        his = [0, 1, 2**31, 2**32 - 1]
        bits = np.array([(h << 32) | lo for h in his for lo in los],
                        dtype=np.uint64)
        with np.errstate(over="ignore"):
            want = np.array([rj.u64_to_gaussian(b) for b in bits])
        assert _bits_equal(GAUSSIAN.sample_from_bits(bits), want)
