"""Tests for repro.parallel.executor (thread-pool sketching)."""

import time

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.kernels import sketch_spmm
from repro.plan import Planner, Runtime
from repro.rng import PhiloxSketchRNG, XoshiroSketchRNG
from repro.sparse import csc_to_blocked_csr, random_sparse


@pytest.fixture
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def engine_sketch(A, d, rng_factory, *, threads, kernel="algo3", b_d=None,
                  b_n=None, blocked=None, probe=None):
    """Compile an engine plan and run it with *rng_factory*.

    The plan's RNG recipe is read from *probe* (default: the generator
    ``rng_factory(0)`` builds), so a failing factory paired with a
    known-good probe first runs inside ``Runtime.run``.
    """
    rng = rng_factory(0) if probe is None else probe
    cfg = SketchConfig(rng_kind=rng.family, seed=rng.seed,
                       distribution=rng.dist.name, kernel=kernel,
                       threads=threads, b_d=b_d, b_n=b_n)
    plan = Planner().compile(A, cfg, d=d, driver="engine")
    result = Runtime().run(plan, A, rng_factory=rng_factory,
                           blocked=blocked)
    return result.sketch, result.stats


def _ref(A, d, b_d, b_n):
    Ahat, _ = sketch_spmm(A, d, PhiloxSketchRNG(9), kernel="algo3",
                          b_d=b_d, b_n=b_n)
    return Ahat


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    def test_thread_count_invariant(self, A, threads, kernel):
        d, b_d, b_n = 36, 10, 7
        out, _ = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(9), threads=threads,
            kernel=kernel, b_d=b_d, b_n=b_n,
        )
        np.testing.assert_allclose(out, _ref(A, d, b_d, b_n))

    def test_uneven_task_share_invariant(self, A):
        # 3 x 6 = 18 tasks over 4 threads: slots take unequal shares, in
        # whatever order they free up.
        d, b_d, b_n = 24, 8, 5
        out, _ = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(9), threads=4,
            kernel="algo3", b_d=b_d, b_n=b_n,
        )
        np.testing.assert_array_equal(out, _ref(A, d, b_d, b_n))

    def test_xoshiro_thread_invariant(self, A):
        # Checkpoints are coordinate-keyed, so even the sequential
        # generator is reproducible across thread counts (fixed blocking).
        d, b_d, b_n = 24, 8, 5
        one, _ = engine_sketch(A, d, lambda w: XoshiroSketchRNG(4),
                               threads=1, kernel="algo3", b_d=b_d, b_n=b_n)
        four, _ = engine_sketch(A, d, lambda w: XoshiroSketchRNG(4),
                                threads=4, kernel="algo3", b_d=b_d, b_n=b_n)
        np.testing.assert_allclose(one, four)

    def test_scaling_trick_parallel(self, A):
        d = 24
        plain, _ = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(2, "uniform"), threads=2,
            kernel="algo3", b_d=8, b_n=5)
        trick, _ = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(2, "uniform_scaled"), threads=2,
            kernel="algo3", b_d=8, b_n=5)
        np.testing.assert_allclose(plain, trick)

    def test_prebuilt_blocked(self, A):
        d, b_d, b_n = 24, 8, 5
        blocked, _ = csc_to_blocked_csr(A, b_n)
        out, stats = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(9), threads=2,
            kernel="algo4", b_d=b_d, b_n=b_n, blocked=blocked)
        np.testing.assert_allclose(out, _ref(A, d, b_d, b_n))
        assert stats.conversion_seconds == 0.0


class TestStats:
    def test_aggregated_counters(self, A):
        d = 24
        _, stats = engine_sketch(
            A, d, lambda w: PhiloxSketchRNG(1), threads=3,
            kernel="algo3", b_d=8, b_n=5)
        assert stats.samples_generated == d * A.nnz
        assert stats.extra["threads"] == 3
        assert stats.kernel == "algo3-parallel"

    def test_worker_exception_propagates(self, A):
        def bad_factory(w):
            raise RuntimeError("factory boom")

        with pytest.raises(RuntimeError, match="factory boom"):
            engine_sketch(A, 12, bad_factory, threads=2,
                          probe=PhiloxSketchRNG(0))

    def test_fatal_failure_cancels_queued_tasks(self, A, monkeypatch):
        # 4 x 10 = 40 tasks on 2 threads with no resilience policy: the
        # first task's exception is final, so the queued tiles must be
        # dropped rather than computed before the error surfaces.
        from repro.parallel import executor

        real = executor.compute_tile
        computed = []

        def tile(kernel, view, A_, blocks, i, j, n1, rng, watch=None):
            if (i, j) == (0, 0):
                raise RuntimeError("tile boom")
            time.sleep(0.005)
            real(kernel, view, A_, blocks, i, j, n1, rng, watch)
            computed.append((i, j))

        monkeypatch.setattr(executor, "compute_tile", tile)
        with pytest.raises(RuntimeError, match="tile boom"):
            engine_sketch(A, 40, lambda w: PhiloxSketchRNG(0), threads=2,
                          b_d=10, b_n=3)
        assert len(computed) < 39

    def test_invalid_kernel(self, A):
        with pytest.raises(ConfigError):
            engine_sketch(A, 12, lambda w: PhiloxSketchRNG(0), threads=2,
                          kernel="nope")

    def test_invalid_threads(self, A):
        with pytest.raises(ConfigError):
            engine_sketch(A, 12, lambda w: PhiloxSketchRNG(0), threads=0)
