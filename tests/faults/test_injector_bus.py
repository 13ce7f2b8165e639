"""Regression: fault injection wired through the event bus still fires.

The plan/compile/execute refactor stopped threading ``injector=``
through the executor internals — the injector now subscribes to the
runtime's ``task_start`` / ``rng_request`` / ``block_computed`` hook
events (:meth:`repro.faults.FaultInjector.register`), and only the
out-of-band storage faults (``torn_write`` / ``bitflip``) keep their
direct line into the snapshot writer.  These tests pin that every fault
family still reaches the new runtime.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.kernels.blocking import sketch_spmm
from repro.parallel import ResilienceConfig
from repro.plan import (
    RETRY,
    EventBus,
    PersistencePolicy,
    ProblemSpec,
    RngSpec,
    Runtime,
    SketchPlan,
)
from repro.rng import make_rng
from repro.sparse import random_sparse

D, B_D, B_N = 36, 12, 10
SEED = 9


@pytest.fixture
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def make_plan(A, **overrides):
    base = dict(
        problem=ProblemSpec(m=A.shape[0], n=A.shape[1], d=D, nnz=A.nnz),
        kernel="algo3", b_d=B_D, b_n=B_N,
        rng=RngSpec(kind="philox", seed=SEED),
    )
    base.update(overrides)
    return SketchPlan(**base)


def reference(A):
    out, _ = sketch_spmm(A, D, make_rng("philox", SEED), kernel="algo3",
                         b_d=B_D, b_n=B_N)
    return out


class TestBusRegistration:
    def test_register_is_idempotent_per_bus(self, A):
        """Double registration must not double-fire faults."""
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="raise", task=(0, 0), max_hits=1)]))
        bus = EventBus()
        inj.register(bus)
        inj.register(bus)
        plan = make_plan(A, resilience=ResilienceConfig(max_retries=2))
        result = Runtime(bus=bus).run(plan, A, injector=inj)
        np.testing.assert_array_equal(result.sketch, reference(A))
        assert inj.events_by_kind() == {"raise": 1}

    def test_injector_alone_selects_guarded_engine(self, A):
        """An injector with an empty plan runs on the engine's serial rung
        (the ``serial`` driver at one thread) with its hooks live and its
        health reported, and the output stays bit-identical."""
        inj = FaultInjector(FaultPlan())
        rt = Runtime()
        assert rt.resolve_driver(make_plan(A)) == "serial"
        result = rt.run(make_plan(A), A, injector=inj)
        np.testing.assert_array_equal(result.sketch, reference(A))
        assert result.stats.health is not None

    def test_rng_substitution_flows_through_rng_request(self, A):
        """The rng fault works purely by mutating the ``rng_request``
        event payload; the magnitude guardrail must still catch it."""
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="rng", task=(24, 0), magnitude=1e12)]))
        plan = make_plan(A, resilience=ResilienceConfig(
            max_retries=2, guardrail="recompute"))
        result = Runtime().run(plan, A, injector=inj)
        np.testing.assert_array_equal(result.sketch, reference(A))
        assert [e.kind for e in inj.events] == ["rng"]
        assert [f.kind for f in result.stats.health.failures] == \
            ["guardrail-magnitude"]


class TestTornWrite:
    def test_torn_write_still_fires_and_crashes(self, A, tmp_path):
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(1, 0))]))
        plan = make_plan(A, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        with pytest.raises(InjectedCrashError):
            Runtime().run(plan, A, injector=inj)
        assert inj.events_by_kind() == {"torn_write": 1}

    def test_torn_write_crash_recovers_on_resume(self, A, tmp_path):
        # Tear the *second* snapshot so an older verified one survives.
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(2, 0))]))
        plan = make_plan(A, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        with pytest.raises(InjectedCrashError):
            Runtime().run(plan, A, injector=inj)
        resumed = Runtime().run(
            make_plan(A, persistence=PersistencePolicy(
                checkpoint_dir=str(tmp_path), every=1, resume=True)), A)
        np.testing.assert_array_equal(resumed.sketch, reference(A))


class TestStragglers:
    def test_straggler_still_fires_and_reexecutes(self, A):
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="stall", task=(0, 0), sleep_seconds=1.5)]))
        plan = make_plan(A, threads=2, resilience=ResilienceConfig(
            max_retries=1, task_timeout=0.1))
        bus = EventBus()
        retries = []
        bus.subscribe(RETRY, lambda e: retries.append(e.get("kind")))
        result = Runtime(bus=bus).run(plan, A, injector=inj)
        np.testing.assert_array_equal(result.sketch, reference(A))
        health = result.stats.health
        assert health.timeouts >= 1
        assert health.stragglers_reexecuted >= 1
        assert inj.events_by_kind() == {"stall": 1}
        assert "straggler" in retries
