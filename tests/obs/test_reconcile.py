"""Reconciliation suite: exported metrics must equal KernelStats totals.

The acceptance bar for the observability layer is that it never invents
numbers: every seconds/samples/flops figure a scrape reports is exactly
(bit-for-bit) the figure the run returned in its
:class:`~repro.kernels.KernelStats` — across the serial, engine and
pregen drivers, and with faults injected.  The second bar is isolation:
a deliberately-raising observer must not change the sketch output.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import RunObserver, validate_prometheus_text
from repro.parallel import ResilienceConfig
from repro.plan import (
    DONE,
    EventBus,
    Planner,
    ProblemSpec,
    RngSpec,
    Runtime,
    SketchPlan,
)
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


def observed_run(plan, A, injector=None):
    rt = Runtime()
    obs = RunObserver().attach(rt.bus)
    result = rt.run(plan, A, injector=injector)
    return obs, result


def counter_value(obs, name, **labels):
    """Value of ``repro_<name>`` — registered families are get-or-create,
    so look up with the observer's own label schema."""
    family = {f.name: f for f in obs.registry.families()}[f"repro_{name}"]
    return family.value(**labels)


def assert_reconciled(obs, result, driver):
    """Every exported total equals the returned KernelStats, exactly."""
    st = result.stats
    k = st.kernel
    assert counter_value(obs, "runs_total", kernel=k, driver=driver) == 1.0
    assert counter_value(obs, "sample_seconds_total", kernel=k) \
        == st.sample_seconds
    assert counter_value(obs, "compute_seconds_total", kernel=k) \
        == st.compute_seconds
    assert counter_value(obs, "conversion_seconds_total", kernel=k) \
        == st.conversion_seconds
    assert counter_value(obs, "cpu_seconds_total", kernel=k) \
        == st.cpu_seconds
    assert counter_value(obs, "wall_seconds_total", kernel=k) \
        == (st.wall_seconds or st.total_seconds)
    assert counter_value(obs, "samples_generated_total", kernel=k) \
        == float(st.samples_generated)
    assert counter_value(obs, "flops_total", kernel=k) == float(st.flops)
    assert counter_value(obs, "sample_fraction", kernel=k) \
        == st.sample_fraction
    assert counter_value(obs, "attained_gflops", kernel=k) == st.gflops_rate
    assert counter_value(obs, "blocks_in_flight") == 0.0
    # The profile reports the same numbers, and the exported text parses.
    prof = obs.profile(result)
    assert prof.attained_gflops == st.gflops_rate
    assert prof.sample_fraction == st.sample_fraction
    assert prof.flops == st.flops
    validate_prometheus_text(obs.metrics_text())


class TestReconciliationAcrossDrivers:
    def test_serial_driver(self, A):
        obs, result = observed_run(make_plan(A), A)
        assert_reconciled(obs, result, "serial")

    def test_engine_driver(self, A):
        obs, result = observed_run(make_plan(A, driver="engine"), A)
        assert_reconciled(obs, result, "engine")
        # The engine records both time axes.
        assert result.stats.cpu_seconds > 0
        assert result.stats.wall_seconds > 0

    def test_engine_multithreaded(self, A):
        obs, result = observed_run(make_plan(A, driver="engine", threads=2),
                                   A)
        assert_reconciled(obs, result, "engine")
        # Parallel wall time must not over-count: the rate denominator is
        # wall clock, not the per-thread sum.
        assert result.stats.wall_seconds <= result.stats.total_seconds

    def test_pregen_driver(self, A):
        from repro.core import SketchConfig

        plan = Planner().compile(A, SketchConfig(kernel="pregen"), d=D)
        rt = Runtime()
        obs = RunObserver().attach(rt.bus)
        result = rt.run(plan, A)
        assert_reconciled(obs, result, rt.resolve_driver(plan))

    def test_block_counts_match_stats(self, A):
        obs, result = observed_run(make_plan(A, driver="engine"), A)
        # Block events carry the plan kernel; the engine's summary stats
        # rename to "<kernel>-parallel".
        done = counter_value(obs, "blocks_total",
                             kernel=result.plan.kernel, phase="done")
        assert done == float(result.stats.blocks_processed)


class TestReconciliationWithFaults:
    def test_injected_retry_still_reconciles(self, A):
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="raise", task=(0, 0), max_hits=1)]))
        plan = make_plan(A, resilience=ResilienceConfig(max_retries=2))
        obs, result = observed_run(plan, A, injector=inj)
        assert_reconciled(obs, result, "serial")
        assert counter_value(obs, "retries_total",
                             kind="InjectedFaultError") >= 1.0
        assert obs.profile(result).retries >= 1

    def test_checkpointed_run_reconciles(self, A, tmp_path):
        from repro.plan import PersistencePolicy

        plan = make_plan(A, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        obs, result = observed_run(plan, A)
        assert_reconciled(obs, result, "serial")
        written = counter_value(obs, "checkpoints_total")
        assert written >= 1.0
        prof = obs.profile(result)
        assert prof.checkpoints_written == int(written)
        assert prof.checkpoint_seconds >= prof.checkpoint_max_seconds > 0.0


class TestObserverIsolation:
    def test_raising_observer_does_not_change_output(self, A):
        plan = make_plan(A)
        baseline = Runtime().run(plan, A)

        rt = Runtime()
        obs = RunObserver().attach(rt.bus)
        for name in (DONE, "block_start", "block_done", "plan_compiled"):
            rt.bus.subscribe_observer(
                name, lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
        result = rt.run(plan, A)

        np.testing.assert_array_equal(result.sketch, baseline.sketch)
        assert rt.bus.dropped_total() > 0
        assert obs.dropped_events() == rt.bus.dropped_total()
        # The failing co-observer did not poison the real one.
        assert_reconciled(obs, result, "serial")
        text = obs.metrics_text()
        assert "repro_dropped_events" in text

    def test_raising_observer_does_not_select_guarded_path(self, A):
        """Observers subscribe only to lifecycle events, so attaching
        them never flips the runtime onto the guarded engine path."""
        rt = Runtime()
        RunObserver().attach(rt.bus)
        bus_driver = rt.resolve_driver(make_plan(A))
        assert bus_driver == Runtime().resolve_driver(make_plan(A))

    def test_detach_restores_silent_bus(self, A):
        rt = Runtime()
        obs = RunObserver().attach(rt.bus)
        obs.detach()
        assert not rt.bus.has_subscribers(DONE)
        result = rt.run(make_plan(A), A)
        assert counter_value(obs, "runs_total",
                             kernel="algo3", driver="serial") == 0.0
        assert result.stats.blocks_processed > 0


class TestStreamingObservability:
    def test_streaming_batches_feed_one_observer(self, A):
        from repro.core import StreamingSketch
        from repro.rng import PhiloxSketchRNG

        bus = EventBus()
        obs = RunObserver().attach(bus)
        st = StreamingSketch(D, A.shape[1], PhiloxSketchRNG(SEED),
                             b_d=B_D, b_n=B_N, bus=bus)
        dense = A.to_dense()
        from repro.sparse import CSCMatrix

        for lo in range(0, A.shape[0], 40):
            st.absorb(CSCMatrix.from_dense(dense[lo:lo + 40]))
        assert counter_value(obs, "runs_total",
                             kernel="algo3", driver="serial") == 3.0
        validate_prometheus_text(obs.metrics_text())

    def test_streaming_checkpoint_emits_latency(self, A, tmp_path):
        from repro.core import StreamingSketch
        from repro.plan import PersistencePolicy
        from repro.rng import PhiloxSketchRNG

        bus = EventBus()
        obs = RunObserver().attach(bus)
        st = StreamingSketch(
            D, A.shape[1], PhiloxSketchRNG(SEED), b_d=B_D, b_n=B_N,
            bus=bus,
            persistence=PersistencePolicy(checkpoint_dir=str(tmp_path),
                                          every=40))
        st.absorb(A)
        assert counter_value(obs, "checkpoints_total") >= 1.0
        hist = {f.name: f for f in obs.registry.families()}[
            "repro_checkpoint_seconds"]
        series = hist.series()
        assert series["count"] >= 1
        assert series["sum"] > 0.0
