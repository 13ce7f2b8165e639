"""Golden equivalence: the plan runtime is bit-identical to the
pre-refactor paths.

The oracle is :func:`repro.kernels.sketch_spmm` — the kernel layer the
refactor did not touch.  Every public entry point (``Runtime.run``,
``sketch()``, ``StreamingSketch``, an engine plan run with its own
generator factory) must produce
the same bits for the same ``(kernel, seed)``, across thread
counts and across a checkpoint/resume cycle, and a plan must survive
JSON serialize -> deserialize -> run without changing a single bit.
"""

import numpy as np
import pytest

from repro.core import SketchConfig, StreamingSketch, sketch
from repro.kernels.blocking import sketch_spmm
from repro.plan import (
    PersistencePolicy,
    Planner,
    ProblemSpec,
    RngSpec,
    Runtime,
    SketchPlan,
)
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse

D, B_D, B_N = 36, 12, 10
SEED = 9

KERNELS = ("algo3", "algo4")


@pytest.fixture(scope="module")
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def oracle(A, kernel):
    """The pre-refactor ground truth: the untouched kernel layer."""
    out, _ = sketch_spmm(A, D, make_rng("philox", SEED), kernel=kernel,
                         b_d=B_D, b_n=B_N)
    return out


def make_plan(A, kernel, **overrides):
    base = dict(
        problem=ProblemSpec(m=A.shape[0], n=A.shape[1], d=D, nnz=A.nnz),
        kernel=kernel, b_d=B_D, b_n=B_N,
        rng=RngSpec(kind="philox", seed=SEED),
    )
    base.update(overrides)
    return SketchPlan(**base)


@pytest.mark.parametrize("kernel", KERNELS)
class TestRuntimeMatchesKernelLayer:
    def test_serial_driver(self, A, kernel):
        result = Runtime().run(make_plan(A, kernel, driver="serial"), A)
        np.testing.assert_array_equal(result.sketch, oracle(A, kernel))

    def test_engine_driver_one_thread(self, A, kernel):
        result = Runtime().run(make_plan(A, kernel, driver="engine"), A)
        np.testing.assert_array_equal(result.sketch, oracle(A, kernel))

    def test_engine_driver_four_threads(self, A, kernel):
        result = Runtime().run(make_plan(A, kernel, driver="engine",
                                         threads=4), A)
        np.testing.assert_array_equal(result.sketch, oracle(A, kernel))

    def test_json_round_trip_then_run(self, A, kernel, tmp_path):
        """Serialize -> deserialize -> run reproduces the original bits."""
        path = tmp_path / "plan.json"
        make_plan(A, kernel).to_json(path)
        revived = SketchPlan.from_json(path)
        result = Runtime().run(revived, A)
        np.testing.assert_array_equal(result.sketch, oracle(A, kernel))


@pytest.mark.parametrize("kernel", KERNELS)
class TestEntryPointsAgree:
    def test_sketch_entry_point(self, A, kernel):
        cfg = SketchConfig(rng_kind="philox", seed=SEED, kernel=kernel,
                           b_d=B_D, b_n=B_N)
        result = sketch(A, config=cfg, d=D)
        np.testing.assert_array_equal(result.sketch, oracle(A, kernel))

    def test_streaming_single_batch(self, A, kernel):
        st = StreamingSketch(D, A.shape[1], make_rng("philox", SEED),
                             kernel=kernel, b_d=B_D, b_n=B_N)
        st.absorb(A)
        np.testing.assert_array_equal(st.sketch, oracle(A, kernel))

    def test_streaming_split_batches(self, A, kernel):
        """Row-partitioned absorption equals one-shot sketching (to
        rounding — partial products accumulate in a different order)."""
        dense = A.to_dense()
        st = StreamingSketch(D, A.shape[1], make_rng("philox", SEED),
                             kernel=kernel, b_d=B_D, b_n=B_N)
        for lo in range(0, 120, 40):
            st.absorb(CSCMatrix.from_dense(dense[lo:lo + 40]))
        np.testing.assert_allclose(st.sketch, oracle(A, kernel), atol=1e-12)

    def test_resilient_executor(self, A, kernel):
        result = Runtime().run(
            make_plan(A, kernel, driver="engine", threads=2), A,
            rng_factory=lambda w: make_rng("philox", SEED))
        out, stats = result.sketch, result.stats
        np.testing.assert_array_equal(out, oracle(A, kernel))
        assert stats.kernel == f"{kernel}-parallel"


class TestCheckpointResumeEquivalence:
    def test_checkpointed_run_is_bit_identical(self, A, tmp_path):
        plan = make_plan(A, "algo3", persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        result = Runtime().run(plan, A)
        np.testing.assert_array_equal(result.sketch, oracle(A, "algo3"))

    def test_resume_completes_to_identical_bits(self, A, tmp_path):
        """Interrupt after a checkpoint, resume, finish: same bits."""
        from repro.faults import (
            FaultInjector,
            FaultPlan,
            FaultSpec,
            InjectedCrashError,
        )

        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(2, 0))]))
        crashing = make_plan(A, "algo3", persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        with pytest.raises(InjectedCrashError):
            Runtime().run(crashing, A, injector=inj)

        resuming = make_plan(A, "algo3", persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1, resume=True))
        result = Runtime().run(resuming, A)
        np.testing.assert_array_equal(result.sketch, oracle(A, "algo3"))
        assert result.stats.extra["resumed_from"] is not None

    def test_planner_compiled_checkpoint_cycle(self, A, tmp_path):
        """Planner -> JSON -> crash -> from_json(resume) -> same bits."""
        cfg = SketchConfig(rng_kind="philox", seed=SEED, kernel="algo3",
                           b_d=B_D, b_n=B_N)
        plan = Planner().compile(A, cfg, d=D, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        reference = Runtime().run(plan, A).sketch

        data = plan.to_dict()
        data["persistence"]["resume"] = True
        revived = SketchPlan.from_dict(data)
        resumed = Runtime().run(revived, A)
        np.testing.assert_array_equal(resumed.sketch, reference)
        np.testing.assert_array_equal(resumed.sketch, oracle(A, "algo3"))

