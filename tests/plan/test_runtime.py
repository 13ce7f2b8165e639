"""Runtime.run: driver resolution, lifecycle events, validation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import InjectedCrashError
from repro.parallel import ResilienceConfig
from repro.plan import (
    BLOCK_DONE,
    BLOCK_START,
    CHECKPOINT_WRITTEN,
    DONE,
    PLAN_COMPILED,
    RNG_REQUEST,
    EventBus,
    PersistencePolicy,
    Planner,
    ProblemSpec,
    RngSpec,
    Runtime,
    SketchPlan,
)
from repro.sparse import random_sparse


@pytest.fixture
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def make_plan(A, **overrides):
    base = dict(
        problem=ProblemSpec(m=A.shape[0], n=A.shape[1], d=36, nnz=A.nnz),
        kernel="algo3", b_d=12, b_n=10,
        rng=RngSpec(kind="philox", seed=9),
    )
    base.update(overrides)
    return SketchPlan(**base)


class TestDriverResolution:
    def test_serial_fast_path_is_default(self, A):
        rt = Runtime()
        assert rt.resolve_driver(make_plan(A)) == "serial"

    def test_threads_select_engine(self, A):
        assert Runtime().resolve_driver(make_plan(A, threads=4)) == "engine"

    # Every driver honours every policy, so a policy no longer moves the
    # choice: at one thread the serial driver (the engine pinned to its
    # serial rung) runs it, at two the engine.
    BY_THREADS = ((1, "serial"), (2, "engine"))

    def test_resilience_selects_engine(self, A):
        for threads, driver in self.BY_THREADS:
            plan = make_plan(A, threads=threads,
                             resilience=ResilienceConfig())
            assert Runtime().resolve_driver(plan) == driver

    def test_persistence_selects_engine(self, A, tmp_path):
        for threads, driver in self.BY_THREADS:
            plan = make_plan(A, threads=threads, persistence=PersistencePolicy(
                checkpoint_dir=str(tmp_path)))
            assert Runtime().resolve_driver(plan) == driver

    def test_injector_selects_engine(self, A):
        """An injector's hooks are live on either driver, and its run
        reports its health."""
        for threads, driver in self.BY_THREADS:
            rt = Runtime()
            seen = []
            rt.bus.subscribe(PLAN_COMPILED,
                             lambda e: seen.append(e["driver"]))
            result = rt.run(make_plan(A, threads=threads), A,
                            injector=FaultInjector(FaultPlan()))
            assert seen == [driver]
            assert result.stats.health is not None

    def test_fault_hook_subscriber_selects_engine(self, A):
        for threads, driver in self.BY_THREADS:
            rt = Runtime()
            rt.bus.subscribe(RNG_REQUEST, lambda e: None)
            assert rt.resolve_driver(make_plan(A, threads=threads)) == driver

    def test_pregen_always_pregen(self, A):
        plan = make_plan(A, kernel="pregen", threads=4)
        assert Runtime().resolve_driver(plan) == "pregen"

    def test_explicit_driver_wins(self, A):
        plan = make_plan(A, driver="engine")
        assert Runtime().resolve_driver(plan) == "engine"


class TestValidation:
    def test_plan_type_checked(self, A):
        with pytest.raises(ConfigError, match="must be a SketchPlan"):
            Runtime().run({"kernel": "algo3"}, A)

    def test_shape_mismatch_is_loud(self, A):
        plan = make_plan(A)
        B = random_sparse(60, 30, 0.1, seed=1)
        with pytest.raises(ShapeError, match="compiled for"):
            Runtime().run(plan, B)

    def test_serial_driver_checkpoints_and_resumes(self, A, tmp_path):
        """The serial driver is the engine's serial rung: it checkpoints,
        a crash at a snapshot write leaves the earlier snapshot to resume
        from, and the resumed run is bit-identical to an uninterrupted
        one."""
        ref = Runtime().run(make_plan(A, driver="serial"), A).sketch
        crash = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(2, 0))]))
        plan = make_plan(A, driver="serial", persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path)))
        with pytest.raises(InjectedCrashError):
            Runtime().run(plan, A, injector=crash)
        assert crash.events_by_kind() == {"torn_write": 1}
        resumed = Runtime().run(
            make_plan(A, driver="serial", persistence=PersistencePolicy(
                checkpoint_dir=str(tmp_path), resume=True)), A)
        np.testing.assert_array_equal(resumed.sketch, ref)
        assert resumed.stats.extra["resumed_from"] is not None
        assert resumed.stats.kernel == "algo3"

    def test_unknown_driver_lists_registry(self, A):
        plan = make_plan(A)
        rt = Runtime()
        rt.resolve_driver = lambda *a, **k: "quantum"
        with pytest.raises(ConfigError, match="quantum"):
            rt.run(plan, A)


class TestLifecycleEvents:
    def test_plan_compiled_first_done_last(self, A):
        bus = EventBus()
        order = []
        for name in (PLAN_COMPILED, BLOCK_START, BLOCK_DONE, DONE):
            bus.subscribe(name, lambda e, n=name: order.append(n))
        plan = make_plan(A)
        result = Runtime(bus=bus).run(plan, A)
        assert order[0] == PLAN_COMPILED
        assert order[-1] == DONE
        n_blocks = math.ceil(36 / 12) * math.ceil(30 / 10)
        assert order.count(BLOCK_START) == n_blocks
        assert order.count(BLOCK_DONE) == n_blocks
        assert result.kernel_used == "algo3"

    def test_engine_emits_block_events_too(self, A):
        bus = EventBus()
        starts, dones = [], []
        bus.subscribe(BLOCK_START, lambda e: starts.append(e["task"]))
        bus.subscribe(BLOCK_DONE, lambda e: dones.append(e["task"]))
        plan = make_plan(A, driver="engine", threads=2)
        Runtime(bus=bus).run(plan, A)
        n_blocks = math.ceil(36 / 12) * math.ceil(30 / 10)
        assert len(starts) == n_blocks
        assert len(dones) == n_blocks

    def test_checkpoint_written_events(self, A, tmp_path):
        bus = EventBus()
        written = []
        bus.subscribe(CHECKPOINT_WRITTEN, lambda e: written.append(e["path"]))
        plan = make_plan(A, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), every=1))
        Runtime(bus=bus).run(plan, A)
        assert written, "no checkpoint_written events fired"
        assert all(str(tmp_path) in str(p) for p in written)

    def test_done_carries_stats(self, A):
        bus = EventBus()
        final = {}
        bus.subscribe(DONE, lambda e: final.update(stats=e["stats"],
                                                   driver=e["driver"]))
        Runtime(bus=bus).run(make_plan(A), A)
        assert final["driver"] == "serial"
        assert final["stats"].kernel == "algo3"


class TestExecution:
    def test_serial_and_engine_agree(self, A):
        serial = Runtime().run(make_plan(A, driver="serial"), A)
        engine = Runtime().run(make_plan(A, driver="engine"), A)
        np.testing.assert_array_equal(serial.sketch, engine.sketch)

    def test_normalized_plan_scales_output(self, A):
        raw = Runtime().run(make_plan(A), A)
        spec = RngSpec(kind="philox", seed=9, normalize=True)
        scaled = Runtime().run(make_plan(A, rng=spec), A)
        assert scaled.scale == spec.normalization(36)
        np.testing.assert_allclose(scaled.sketch, raw.sketch * scaled.scale)

    def test_rng_factory_override(self, A):
        from repro.rng import PhiloxSketchRNG

        default = Runtime().run(make_plan(A), A)
        overridden = Runtime().run(
            make_plan(A, rng=RngSpec(kind="philox", seed=1234)), A,
            rng_factory=lambda w: PhiloxSketchRNG(9))
        np.testing.assert_array_equal(default.sketch, overridden.sketch)

    def test_result_carries_plan(self, A):
        plan = make_plan(A)
        assert Runtime().run(plan, A).plan is plan

    def test_pregen_driver_runs(self, A):
        plan = make_plan(A, kernel="pregen")
        result = Runtime().run(plan, A)
        assert result.sketch.shape == (36, 30)

    def test_compiled_plan_end_to_end(self, A):
        plan = Planner().compile(A, gamma=2.0)
        result = Runtime().run(plan, A)
        assert result.sketch.shape == (60, 30)


class TestDriverTable:
    def test_unknown_driver_names_the_fixed_set(self, A):
        rt = Runtime()
        rt.resolve_driver = lambda *a, **k: "fake"
        with pytest.raises(ConfigError,
                           match="engine, pregen, process, serial"):
            rt.run(make_plan(A, driver="serial"), A)

    @pytest.mark.parametrize("strategy", ["bogus", "cyclic", "guided"])
    def test_from_dict_rejects_any_strategy_but_static(self, A, strategy):
        record = make_plan(A).to_dict()
        assert record["strategy"] == "static"
        SketchPlan.from_dict(record)
        record["strategy"] = strategy
        with pytest.raises(ConfigError, match="strategy"):
            SketchPlan.from_dict(record)
