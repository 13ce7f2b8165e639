"""Crash-tolerance tests for the ``process`` driver (procpool).

The central claim (ISSUE acceptance criterion): a run that loses one
worker to SIGKILL *and* one worker to a hang past the heartbeat deadline
still returns a sketch bit-identical to the serial driver's output, with
every loss, requeue, and respawn visible in :class:`RunHealth` and the
observability layer.  Determinism holds because generators are
coordinate-keyed: any requeued task re-derives exactly the entries the
dead worker would have produced.
"""

import json
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import InjectedCrashError
from repro.parallel import WorkerPoolConfig, backoff_seconds, pool_start_method
from repro.plan import DEGRADED, PersistencePolicy, Planner, Runtime, SketchPlan
from repro.sparse import random_sparse

D, B_D, B_N = 36, 12, 10   # 3 x 3 = 9 block tasks over a 120 x 30 input
TASKS = [(i, j) for i in (0, 12, 24) for j in (0, 10, 20)]

# A short deadline keeps the hung-worker tests fast; a clean worker answers
# each task's dispatch with its commit well inside it, so this never
# false-positives on a healthy fleet.
FAST_POOL = WorkerPoolConfig(workers=2, heartbeat_timeout=1.0,
                             backoff_base=0.0)


@pytest.fixture(scope="module")
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def make_plan(A, *, kernel="algo3", driver="process", pool=None, seed=9):
    cfg = SketchConfig(kernel=kernel, rng_kind="philox", seed=seed,
                       b_d=B_D, b_n=B_N)
    return Planner().compile(A, cfg, d=D, driver=driver, pool=pool)


@pytest.fixture(scope="module")
def reference(A):
    """Serial-driver sketches the process driver must match bit-for-bit."""
    out = {}
    for kernel in ("algo3", "algo4"):
        plan = make_plan(A, kernel=kernel, driver="serial")
        out[kernel] = Runtime().run(plan, A).sketch
    return out


def run_process(A, *, kernel="algo3", pool=FAST_POOL, faults=None,
                runtime=None):
    plan = make_plan(A, kernel=kernel, pool=pool)
    inj = FaultInjector(FaultPlan(faults)) if faults else None
    rt = runtime if runtime is not None else Runtime()
    result = rt.run(plan, A, injector=inj)
    return result, result.stats.health


class TestWorkerPoolConfig:
    def test_defaults_round_trip(self):
        pool = WorkerPoolConfig()
        assert WorkerPoolConfig.from_dict(pool.to_dict()) == pool

    def test_custom_round_trip(self):
        pool = WorkerPoolConfig(workers=3, heartbeat_timeout=2.5,
                                max_requeues=1, max_respawns=2,
                                backoff_base=0.01, backoff_factor=3.0,
                                backoff_max=0.5, start_method="fork")
        assert WorkerPoolConfig.from_dict(pool.to_dict()) == pool

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"heartbeat_timeout": 0.0},
        {"max_requeues": -1},
        {"max_respawns": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_max": -1.0},
        {"start_method": "threads"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            WorkerPoolConfig(**kwargs)

    def test_retired_batch_size_keeps_the_record(self):
        # Plan records (and so their digests) still carry batch_size 0;
        # any other value no longer means anything and is refused.
        record = WorkerPoolConfig().to_dict()
        assert record["batch_size"] == 0
        with pytest.raises(ConfigError, match="batch_size"):
            WorkerPoolConfig.from_dict({**record, "batch_size": 4})

    def test_start_method_resolves(self):
        assert pool_start_method("auto") in ("fork", "spawn")
        assert pool_start_method("spawn") == "spawn"


class TestPlanIntegration:
    def test_process_driver_synthesizes_pool(self, A):
        plan = make_plan(A)
        assert plan.driver == "process"
        assert plan.pool == WorkerPoolConfig()

    def test_pool_survives_json_round_trip(self, A):
        plan = make_plan(A, pool=FAST_POOL)
        clone = SketchPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.pool == FAST_POOL
        assert clone == plan

    def test_explain_mentions_pool(self, A):
        text = make_plan(A, pool=FAST_POOL).explain()
        assert "workers=2" in text and "heartbeat=1" in text

    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    def test_process_driver_checkpoints_and_resumes(self, A, reference,
                                                    tmp_path, kernel):
        """Process tiles reach the scheduler's one commit, so they are
        checkpointed like any other: a ``torn_write`` at snapshot 2
        crashes the run, and the resume is bit-identical."""
        cfg = SketchConfig(kernel=kernel, rng_kind="philox", seed=9,
                           b_d=B_D, b_n=B_N)

        def plan(**policy):
            return Planner().compile(
                A, cfg, d=D, driver="process", pool=FAST_POOL,
                persistence=PersistencePolicy(
                    checkpoint_dir=str(tmp_path), every=1, **policy))

        crash = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(2, 0))]))
        with pytest.raises(InjectedCrashError):
            Runtime().run(plan(), A, injector=crash)
        assert crash.events_by_kind() == {"torn_write": 1}
        resumed = Runtime().run(plan(resume=True), A)
        np.testing.assert_array_equal(resumed.sketch, reference[kernel])
        assert resumed.stats.extra["resumed_from"] is not None
        assert resumed.stats.kernel == f"{kernel}-procpool"


class TestCleanRuns:
    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    def test_bit_identical_to_serial(self, A, reference, kernel):
        result, health = run_process(A, kernel=kernel)
        np.testing.assert_array_equal(result.sketch, reference[kernel])
        assert health.ok and health.clean
        assert health.completed == len(TASKS)
        assert health.workers_lost == 0
        assert result.stats.extra["driver"] == "process"

    def test_stats_carry_pool_context(self, A):
        result, health = run_process(A)
        assert result.stats.kernel == "algo3-procpool"
        assert result.stats.extra["workers"] == 2
        assert result.stats.extra["start_method"] in ("fork", "spawn")
        assert health.workers_spawned >= 1


class TestCrashRecovery:
    def test_sigkilled_worker_recovers_bit_identical(self, A, reference):
        faults = [FaultSpec(kind="kill_worker", task=(12, 10))]
        result, health = run_process(A, faults=faults)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert health.ok and not health.clean
        assert health.workers_lost >= 1
        assert health.tasks_requeued >= 1
        assert health.completed == len(TASKS)
        assert any("lost: crashed" in d for d in health.decisions)

    def test_hung_worker_killed_by_heartbeat(self, A, reference):
        # The worker sleeps far past the 1 s deadline without heartbeating;
        # the supervisor must declare it hung, SIGKILL it, and requeue.
        faults = [FaultSpec(kind="hang_worker", task=(0, 10),
                            sleep_seconds=30.0)]
        result, health = run_process(A, faults=faults)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert health.workers_lost >= 1
        assert health.tasks_requeued >= 1
        assert any("lost: hung" in d for d in health.decisions)

    def test_corrupt_tile_rejected_by_checksum(self, A, reference):
        # The worker corrupts the shared-memory tile *after* checksumming
        # it: the claimed-before-commit verification must refuse the tile
        # and requeue the task instead of accepting torn output.
        faults = [FaultSpec(kind="corrupt_tile", task=(24, 0))]
        result, health = run_process(A, faults=faults)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert any(f.kind == "checksum_mismatch" for f in health.failures)
        assert health.tasks_requeued >= 1

    def test_acceptance_kill_and_hang_in_one_run(self, A, reference):
        # The ISSUE acceptance criterion: one SIGKILLed worker AND one
        # hung worker in the same run, everything requeued, output
        # bit-identical to the fault-free serial driver.
        faults = [
            FaultSpec(kind="kill_worker", task=(0, 0)),
            FaultSpec(kind="hang_worker", task=(24, 20), sleep_seconds=30.0),
        ]
        pool = WorkerPoolConfig(workers=3, heartbeat_timeout=1.0,
                                backoff_base=0.0)
        result, health = run_process(A, pool=pool, faults=faults)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert health.workers_lost >= 2
        assert health.tasks_requeued >= 2
        # (A warm respawn usually happens here too, but whether one is
        # *needed* depends on how many tasks remain at the moment of each
        # loss -- the invariants are the losses, requeues, and recovery.)
        assert health.completed == len(TASKS)


class TestQuarantineAndDegradation:
    def test_poison_task_quarantined_then_thread_fallback(self, A, reference):
        # A task that kills its worker on *every* replay exhausts the
        # requeue budget, is quarantined, and is finished by the thread
        # rung of the degradation ladder -- still bit-identical.
        faults = [FaultSpec(kind="kill_worker", task=(12, 0), max_hits=None)]
        pool = WorkerPoolConfig(workers=2, heartbeat_timeout=1.0,
                                max_requeues=1, max_respawns=4,
                                backoff_base=0.0)
        bus_events = []
        rt = Runtime()
        rt.bus.subscribe_observer(
            DEGRADED, lambda e: bus_events.append(e.get("kind")))
        result, health = run_process(A, pool=pool, faults=faults, runtime=rt)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert health.quarantined_tasks == 1
        assert health.degraded_to_thread
        assert not health.clean
        assert "pool_fallback" in bus_events


class TestObservability:
    def test_pool_metrics_and_worker_spans(self, A, reference):
        from repro.obs import RunObserver

        faults = [FaultSpec(kind="kill_worker", task=(12, 10))]
        rt = Runtime()
        obs = RunObserver().attach(rt.bus)
        result, health = run_process(A, faults=faults, runtime=rt)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])

        r = obs.registry
        assert r.counter("pool_workers_lost_total",
                         labels=("reason",)).value(reason="crashed") >= 1.0
        total_requeues = sum(
            s["value"] for fam in r.to_dict()["metrics"]
            if fam["name"] == "repro_pool_requeues_total"
            for s in fam["samples"])
        assert total_requeues >= 1.0
        # Every spawned worker opened a span; shutdown closed them all.
        worker_spans = [s for s in obs.tracer.spans if s.name == "worker"]
        assert len(worker_spans) == health.workers_spawned
        assert all(s.end is not None for s in worker_spans)
        reasons = {s.attrs.get("reason") for s in worker_spans}
        assert "crashed" in reasons and "shutdown" in reasons
        # The requeue shows up as a trace annotation.
        assert any(a.name == "task_requeued" for a in obs.tracer.annotations)
        obs.detach()

    def test_respawn_metric_increments(self, A):
        from repro.obs import RunObserver

        faults = [FaultSpec(kind="kill_worker", task=(0, 20))]
        rt = Runtime()
        obs = RunObserver(trace=False).attach(rt.bus)
        _, health = run_process(A, faults=faults, runtime=rt)
        assert obs.registry.counter("pool_respawns_total").value() \
            == float(health.worker_respawns)
        obs.detach()


class TestDroppedEventsSurfaced:
    def test_run_health_carries_bus_drop_count(self, A):
        # Satellite 1: a crashing observer handler is isolated by the bus
        # but its drop count must surface in the run's RunHealth.
        rt = Runtime()

        def bad_handler(event):
            raise RuntimeError("broken metrics sink")

        rt.bus.subscribe_observer(DEGRADED, bad_handler)
        from repro.plan.events import WORKER_SPAWNED
        rt.bus.subscribe_observer(WORKER_SPAWNED, bad_handler)
        result, health = run_process(A, runtime=rt)
        assert health.dropped_events >= 1
        assert health.dropped_events == rt.bus.dropped_total()
        # Dropped observer events never taint the computation itself.
        assert health.ok and health.clean


class TestDeterministicBackoff:
    def test_pure_function_of_inputs(self):
        a = backoff_seconds(0.1, 2.0, 5.0, seed=7, task=(12, 10), attempt=2)
        b = backoff_seconds(0.1, 2.0, 5.0, seed=7, task=(12, 10), attempt=2)
        assert a == b

    def test_varies_with_task_seed_and_attempt(self):
        base = backoff_seconds(0.1, 2.0, 5.0, seed=7, task=(12, 10), attempt=2)
        assert backoff_seconds(0.1, 2.0, 5.0, seed=8,
                               task=(12, 10), attempt=2) != base
        assert backoff_seconds(0.1, 2.0, 5.0, seed=7,
                               task=(12, 20), attempt=2) != base
        assert backoff_seconds(0.1, 2.0, 5.0, seed=7,
                               task=(12, 10), attempt=3) != base

    def test_jitter_window_and_cap(self):
        for attempt in range(1, 8):
            raw = min(5.0, 0.1 * 2.0 ** (attempt - 1))
            val = backoff_seconds(0.1, 2.0, 5.0, seed=3, task=(0, 0),
                                  attempt=attempt)
            assert 0.5 * raw <= val <= raw

    def test_disabled_and_degenerate(self):
        assert backoff_seconds(0.0, 2.0, 1.0, seed=1, task=(0, 0),
                               attempt=3) == 0.0
        assert backoff_seconds(0.1, 2.0, 1.0, seed=1, task=(0, 0),
                               attempt=0) == 0.0

    def test_engine_retry_applies_backoff(self, A, reference):
        # Satellite 2: the thread engine sleeps the deterministic backoff
        # between retries; recovery output is still bit-identical.
        from repro.parallel import ResilienceConfig

        cfg = SketchConfig(
            kernel="algo3", rng_kind="philox", seed=9, b_d=B_D, b_n=B_N,
            threads=2,
            resilience=ResilienceConfig(max_retries=2, retry_backoff=0.01,
                                        retry_backoff_max=0.05))
        plan = Planner().compile(A, cfg, d=D, driver="engine")
        inj = FaultInjector(FaultPlan(
            [FaultSpec(kind="raise", task=(12, 10))]))
        result = Runtime().run(plan, A, injector=inj)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert result.stats.health.retries == 1


class TestOneTaskPerMessage:
    @pytest.fixture(scope="class")
    def wide(self):
        return random_sparse(120, 80, 0.1, seed=302)

    def test_every_dispatch_carries_one_task(self, wide, monkeypatch):
        # 4 x 8 = 32 block tasks on 2 workers: one ``tasks`` message per
        # task, each answered by its commit before the worker gets more.
        tags = []
        send = Connection.send

        def recording_send(conn, obj):
            tags.append(obj[0])
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", recording_send)
        cfg = SketchConfig(kernel="algo3", rng_kind="philox", seed=9,
                           b_d=12, b_n=10)
        plan = Planner().compile(wide, cfg, d=48, driver="process",
                                 pool=FAST_POOL)
        result = Runtime().run(plan, wide)
        assert result.stats.health.tasks == 32
        assert tags.count("tasks") == 32
        serial = Runtime().run(
            Planner().compile(wide, cfg, d=48, driver="serial"), wide)
        np.testing.assert_array_equal(result.sketch, serial.sketch)

    def test_block_done_carries_worker_time(self, A):
        # Each process tile's block_done event carries the worker's own
        # sampling and compute seconds; over a run they sum to the stats.
        from repro.plan.events import BLOCK_DONE

        rt = Runtime()
        done = []
        rt.bus.subscribe_observer(BLOCK_DONE, done.append)
        result, health = run_process(A, runtime=rt)
        assert len(done) == health.tasks == len(TASKS)
        stats = result.stats
        assert stats.sample_seconds > 0 and stats.compute_seconds > 0
        assert sum(e["sample_seconds"] for e in done) == \
            pytest.approx(stats.sample_seconds, rel=1e-12)
        assert sum(e["compute_seconds"] for e in done) == \
            pytest.approx(stats.compute_seconds, rel=1e-12)


class TestFailedSend:
    @pytest.mark.parametrize("respawns", [8, 0])
    def test_last_dispatch_is_never_dropped(self, A, reference, monkeypatch,
                                            respawns):
        # One worker, and its pipe breaks on the run's last dispatch with
        # nothing else in flight: the task goes to a respawned worker, or
        # down the ladder when no respawn is left, and is never lost.
        send = Connection.send
        dispatches = []

        def flaky_send(conn, obj):
            if obj[0] == "tasks":
                dispatches.append(obj)
                if len(dispatches) == len(TASKS):
                    raise BrokenPipeError("pipe closed")
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", flaky_send)
        pool = WorkerPoolConfig(workers=1, heartbeat_timeout=1.0,
                                backoff_base=0.0, max_respawns=respawns)
        result, health = run_process(A, pool=pool)
        np.testing.assert_array_equal(result.sketch, reference["algo3"])
        assert health.completed == health.tasks == len(TASKS)
        assert health.workers_lost == 1
        assert health.worker_respawns == (respawns > 0)
        assert health.degraded_to_thread == (respawns == 0)
