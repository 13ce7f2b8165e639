"""End-to-end resilient-executor tests under injected faults.

The central claim (ISSUE acceptance criterion): with any single-task
fault injected, the resilient executor returns an ``Ahat`` bit-identical
to a fault-free run, and the :class:`RunHealth` report records exactly
the injected faults and the recovery actions taken.
"""

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import (
    RetryExhaustedError,
    SketchQualityError,
    TaskTimeoutError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import DegradationPolicy, ResilienceConfig
from repro.plan import Planner, Runtime
from repro.rng import PhiloxSketchRNG
from repro.sparse import random_sparse

D, B_D, B_N = 36, 12, 10   # 3 x 3 = 9 block tasks over a 120 x 30 input
TASKS = [(i, j) for i in (0, 12, 24) for j in (0, 10, 20)]


@pytest.fixture
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def factory(w):
    return PhiloxSketchRNG(9)


def engine_plan(A, *, threads, kernel, cfg=None):
    config = SketchConfig(rng_kind="philox", seed=9, kernel=kernel,
                          b_d=B_D, b_n=B_N, threads=threads, resilience=cfg)
    return Planner().compile(A, config, d=D, driver="engine")


def reference(A, kernel="algo3"):
    plan = engine_plan(A, threads=1, kernel=kernel)
    return Runtime().run(plan, A, rng_factory=factory).sketch


def run(A, *, threads=2, kernel="algo3", cfg=None, plan=None):
    inj = FaultInjector(plan) if plan is not None else None
    result = Runtime().run(engine_plan(A, threads=threads, kernel=kernel,
                                       cfg=cfg),
                           A, rng_factory=factory, injector=inj)
    return result.sketch, result.stats, inj


class TestFastPath:
    def test_no_resilience_keeps_seed_behaviour(self, A):
        out, stats, _ = run(A, cfg=None, plan=None)
        np.testing.assert_array_equal(out, reference(A))
        assert stats.health is None
        assert stats.extra["resilient"] is False

    def test_guarded_clean_run_matches_fast_path(self, A):
        out, stats, _ = run(A, cfg=ResilienceConfig(max_retries=1))
        np.testing.assert_array_equal(out, reference(A))
        assert stats.health.ok and stats.health.clean
        assert stats.health.tasks == stats.health.completed == len(TASKS)
        assert stats.extra["resilient"] is True

    def test_guarded_serial_matches_fast_path(self, A):
        out, stats, _ = run(A, threads=1,
                            cfg=ResilienceConfig(guardrail="recompute"))
        np.testing.assert_array_equal(out, reference(A))
        assert stats.health.clean


class TestTransientFaultRecovery:
    @pytest.mark.parametrize("task", [(0, 0), (12, 10), (24, 20)])
    def test_single_raise_fault_bit_identical(self, A, task):
        plan = FaultPlan([FaultSpec(kind="raise", task=task)])
        out, stats, inj = run(A, cfg=ResilienceConfig(max_retries=2),
                              plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        h = stats.health
        assert h.ok and not h.clean
        assert h.retries == 1
        assert h.attempts == len(TASKS) + 1
        # Exactly the injected fault, nothing else.
        assert [e.kind for e in inj.events] == ["raise"]
        assert [(f.task, f.kind) for f in h.failures] == \
            [(task, "InjectedFaultError")]

    def test_nan_without_guardrail_poisons_output(self, A):
        # Control experiment: the guardrail is what saves the sketch.
        plan = FaultPlan([FaultSpec(kind="nan", task=(12, 10))])
        out, stats, _ = run(A, cfg=ResilienceConfig(max_retries=2), plan=plan)
        assert np.isnan(out).sum() == 1
        assert stats.health.ok   # nothing raised, so the run "succeeded"

    def test_nan_repaired_by_recompute_bit_identical(self, A):
        plan = FaultPlan([FaultSpec(kind="nan", task=(12, 10))])
        cfg = ResilienceConfig(max_retries=2, guardrail="recompute")
        out, stats, inj = run(A, cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        h = stats.health
        assert h.guardrail_violations == 1
        assert h.corrupted_blocks_repaired == 1
        assert h.retries == 1
        assert [e.kind for e in inj.events] == ["nan"]
        assert [f.kind for f in h.failures] == ["guardrail-non-finite"]

    def test_inf_repaired_by_recompute_bit_identical(self, A):
        plan = FaultPlan([FaultSpec(kind="inf", task=(0, 20))])
        cfg = ResilienceConfig(max_retries=2, guardrail="recompute")
        out, stats, _ = run(A, cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        assert stats.health.corrupted_blocks_repaired == 1

    def test_rng_corruption_caught_by_magnitude_guardrail(self, A):
        # Finite but wildly out-of-distribution samples: only the
        # moment-derived magnitude bound can notice.
        plan = FaultPlan([FaultSpec(kind="rng", task=(24, 0),
                                    magnitude=1e12)])
        cfg = ResilienceConfig(max_retries=2, guardrail="recompute")
        out, stats, inj = run(A, cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        assert [f.kind for f in stats.health.failures] == \
            ["guardrail-magnitude"]
        assert [e.kind for e in inj.events] == ["rng"]

    def test_random_plan_recovery_thread_invariant(self, A):
        cfg = ResilienceConfig(max_retries=2, guardrail="recompute")
        ref = reference(A)
        fired = []
        for threads in (1, 2, 4):
            plan = FaultPlan.random(seed=13, rate=0.5,
                                    kinds=("raise", "nan"))
            out, _, inj = run(A, threads=threads, cfg=cfg, plan=plan)
            np.testing.assert_array_equal(out, ref)
            fired.append(sorted((e.kind, e.task) for e in inj.events))
        assert fired[0] == fired[1] == fired[2]
        assert fired[0]   # the 50% plan actually poisoned something


class TestGuardrailPolicies:
    def test_raise_policy_fails_fast(self, A):
        plan = FaultPlan([FaultSpec(kind="nan", task=(0, 0))])
        cfg = ResilienceConfig(guardrail="raise")
        with pytest.raises(SketchQualityError):
            run(A, threads=1, cfg=cfg, plan=plan)

    def test_mask_policy_zeroes_block_and_continues(self, A):
        plan = FaultPlan([FaultSpec(kind="nan", task=(12, 10))])
        cfg = ResilienceConfig(guardrail="mask")
        out, stats, _ = run(A, cfg=cfg, plan=plan)
        ref = reference(A)
        np.testing.assert_array_equal(out[12:24, 10:20],
                                      np.zeros((12, 10)))
        masked = np.zeros_like(ref, dtype=bool)
        masked[12:24, 10:20] = True
        np.testing.assert_array_equal(out[~masked], ref[~masked])
        assert stats.health.masked_blocks == 1
        assert stats.health.ok


class TestRetryExhaustion:
    def test_permanent_fault_exhausts_retries(self, A):
        plan = FaultPlan([FaultSpec(kind="raise", task=(0, 0),
                                    max_hits=None)])
        with pytest.raises(RetryExhaustedError):
            run(A, threads=1, cfg=ResilienceConfig(max_retries=2), plan=plan)

    def test_exhaustion_without_serial_fallback(self, A):
        plan = FaultPlan([FaultSpec(kind="raise", task=(0, 0),
                                    max_hits=None)])
        cfg = ResilienceConfig(
            max_retries=1,
            degradation=DegradationPolicy(serial_fallback=False))
        with pytest.raises(RetryExhaustedError):
            run(A, threads=2, cfg=cfg, plan=plan)

    def test_budget_boundary(self, A):
        # max_hits=3 faults vs max_retries=3 -> 4th attempt succeeds.
        plan = FaultPlan([FaultSpec(kind="raise", task=(0, 0), max_hits=3)])
        out, stats, inj = run(A, threads=1,
                              cfg=ResilienceConfig(max_retries=3), plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        assert inj.fault_count == 3
        assert stats.health.retries == 3


class TestDegradation:
    def test_algo4_falls_back_to_algo3(self, A):
        # The fault only fires under algo4: its retry budget burns out,
        # then the pattern-oblivious algo3 completes the task.
        plan = FaultPlan([FaultSpec(kind="raise", task=(12, 0),
                                    max_hits=None, kernel="algo4")])
        cfg = ResilienceConfig(max_retries=1)
        out, stats, inj = run(A, threads=1, kernel="algo4", cfg=cfg,
                              plan=plan)
        # The fallback block is computed by algo3 (different accumulation
        # order, so last-bit differences vs algo4); every untouched block
        # stays bit-identical to the algo4 run.
        ref4, ref3 = reference(A, kernel="algo4"), reference(A)
        np.testing.assert_allclose(out, ref4, atol=1e-12)
        np.testing.assert_array_equal(out[12:24, 0:10], ref3[12:24, 0:10])
        untouched = np.ones_like(out, dtype=bool)
        untouched[12:24, 0:10] = False
        np.testing.assert_array_equal(out[untouched], ref4[untouched])
        h = stats.health
        assert h.kernel_fallbacks == 1
        assert h.ok
        assert all(e.kernel == "algo4" for e in inj.events)
        assert any("degrading to pattern-oblivious algo3" in d
                   for d in h.decisions)

    def test_kernel_fallback_disabled(self, A):
        plan = FaultPlan([FaultSpec(kind="raise", task=(12, 0),
                                    max_hits=None, kernel="algo4")])
        cfg = ResilienceConfig(
            max_retries=1,
            degradation=DegradationPolicy(kernel_fallback=False,
                                          serial_fallback=False))
        with pytest.raises(RetryExhaustedError):
            run(A, threads=1, kernel="algo4", cfg=cfg, plan=plan)

    def test_parallel_degrades_to_serial(self, A):
        # The fault fires only inside pool workers, so the serial re-run
        # in the driver thread succeeds.
        plan = FaultPlan([FaultSpec(kind="raise", task=(24, 20),
                                    max_hits=None, scope="parallel")])
        cfg = ResilienceConfig(max_retries=1)
        out, stats, _ = run(A, threads=2, cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        h = stats.health
        assert h.degraded_to_serial
        assert h.ok
        assert any("parallel -> serial" in d for d in h.decisions)

    def test_degradation_ordering_kernel_before_serial(self, A):
        # algo4-scoped fault in the pool: the kernel fallback must fire
        # inside the worker (before any serial degradation is needed).
        plan = FaultPlan([FaultSpec(kind="raise", task=(0, 10),
                                    max_hits=None, kernel="algo4")])
        cfg = ResilienceConfig(max_retries=0)
        out, stats, _ = run(A, threads=2, kernel="algo4", cfg=cfg, plan=plan)
        np.testing.assert_allclose(out, reference(A, kernel="algo4"),
                                   atol=1e-12)
        h = stats.health
        assert h.kernel_fallbacks == 1
        assert not h.degraded_to_serial


class TestStragglers:
    def test_straggler_reexecuted_bit_identical(self, A):
        plan = FaultPlan([FaultSpec(kind="stall", task=(0, 0),
                                    sleep_seconds=1.5)])
        cfg = ResilienceConfig(max_retries=1, task_timeout=0.1)
        out, stats, _ = run(A, threads=2, cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A))
        h = stats.health
        assert h.timeouts >= 1
        assert h.stragglers_reexecuted >= 1
        assert h.ok

    def test_timeout_raises_when_reexecution_disabled(self, A):
        plan = FaultPlan([FaultSpec(kind="stall", task=(0, 0),
                                    sleep_seconds=1.5)])
        cfg = ResilienceConfig(task_timeout=0.1,
                               reexecute_stragglers=False)
        with pytest.raises(TaskTimeoutError):
            run(A, threads=2, cfg=cfg, plan=plan)


class TestAlgo4Recovery:
    def test_nan_repair_on_blocked_csr_kernel(self, A):
        plan = FaultPlan([FaultSpec(kind="nan", task=(24, 10))])
        cfg = ResilienceConfig(max_retries=2, guardrail="recompute")
        out, stats, _ = run(A, kernel="algo4", cfg=cfg, plan=plan)
        np.testing.assert_array_equal(out, reference(A, kernel="algo4"))
        assert stats.health.corrupted_blocks_repaired == 1
