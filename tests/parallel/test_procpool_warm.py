"""Warm-pool lifecycle of :class:`ProcessPoolSupervisor`.

The serving daemon keeps supervisors alive across requests: explicit
``start()`` / ``execute()`` / ``close()`` instead of the historical
one-shot ``run()``.  These tests pin the contract: warm executions are
bit-identical to serial runs, a plan that changes only its seeds
rebinds each worker's generator on dispatch while any other change
reloads the workers in place, deadline expiry taints the pool (and a
tainted pool refuses work), and a collapsed fleet is never silently
resurrected.
"""

import dataclasses
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import ConfigError, TaskTimeoutError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import WorkerPoolConfig
from repro.parallel.procpool import ProcessPoolSupervisor
from repro.plan import BLOCK_DONE, Planner, Runtime
from repro.sparse import random_sparse

POOL = WorkerPoolConfig(workers=2, heartbeat_timeout=2.0, backoff_base=0.0)


@pytest.fixture(scope="module")
def A():
    return random_sparse(120, 30, 0.1, seed=77)


def make_plan(A, *, d=24, seed=5, kernel="algo3", b_d=12, b_n=10,
              batch_seeds=None, pool=POOL):
    cfg = SketchConfig(kernel=kernel, rng_kind="philox", seed=seed,
                       b_d=b_d, b_n=b_n)
    return Planner().compile(A, cfg, d=d, driver="process", pool=pool,
                             batch_seeds=batch_seeds)


def serial(A, plan):
    return Runtime().run(
        dataclasses.replace(plan, driver="serial"), A).sketch


@pytest.fixture
def pool(A):
    plan = make_plan(A)
    sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
    sup.start()
    yield sup
    sup.close()


class TestWarmReuse:
    def test_repeat_executions_bit_identical(self, A, pool):
        plan = pool.plan
        ref = serial(A, plan) / plan.scale()
        first, _ = pool.execute(plan, plan.rng_factory())
        second, _ = pool.execute(plan, plan.rng_factory())
        assert np.array_equal(first, ref)
        assert np.array_equal(second, ref)

    def test_warm_run_pays_no_conversion(self, A, pool):
        plan = pool.plan
        pool.execute(plan, plan.rng_factory())
        _, stats = pool.execute(plan, plan.rng_factory())
        assert stats.conversion_seconds == 0.0

    def test_plan_swap_reloads_workers(self, A, pool):
        plan2 = make_plan(A, d=36, seed=99)
        out, _ = pool.execute(plan2, plan2.rng_factory())
        assert out.shape == (36, A.shape[1])
        assert np.array_equal(out, serial(A, plan2) / plan2.scale())
        # and back again: the original plan still produces its bytes
        plan1 = make_plan(A)
        out1, _ = pool.execute(plan1, plan1.rng_factory())
        assert np.array_equal(out1, serial(A, plan1) / plan1.scale())

    def test_workers_survive_across_executions(self, A, pool):
        plan = pool.plan
        pool.execute(plan, plan.rng_factory())
        pids = pool.worker_pids()
        pool.execute(plan, plan.rng_factory())
        assert pool.worker_pids() == pids


class TestGuards:
    def test_execute_before_start_rejected(self, A):
        plan = make_plan(A)
        sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
        with pytest.raises(ConfigError, match="start"):
            sup.execute(plan, plan.rng_factory())

    def test_incompatible_plan_rejected(self, A, pool):
        other = make_plan(A, kernel="algo4")
        with pytest.raises(ConfigError, match="bound to kernel"):
            pool.execute(other, other.rng_factory())

    def test_start_and_close_idempotent(self, A):
        plan = make_plan(A)
        sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
        sup.start()
        sup.start()
        sup.close()
        sup.close()


class TestDeadline:
    def test_deadline_cancels_and_taints(self, A, pool):
        plan = pool.plan
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="hang_worker", sleep_seconds=5.0, max_hits=2),
        ]))
        with pytest.raises(TaskTimeoutError, match="deadline"):
            pool.execute(plan, plan.rng_factory(), injector=inj,
                         deadline=time.monotonic() + 0.5)
        assert pool.tainted
        # a tainted pool must refuse further work: stale workers may
        # still be writing into the shared output segment
        with pytest.raises(ConfigError, match="tainted"):
            pool.execute(plan, plan.rng_factory())

    def test_an_error_with_a_task_in_flight_taints(self, A, pool):
        # A block_done handler fails on the first commit while the other
        # worker still sleeps on task (0, 0): that worker's commit would
        # be counted in the next run, so the pool must not be reused.
        plan = pool.plan
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="hang_worker", task=(0, 0), sleep_seconds=1.0),
        ]))

        def fail(event):
            raise RuntimeError("handler failed")

        pool.bus.subscribe(BLOCK_DONE, fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            pool.execute(plan, plan.rng_factory(), injector=inj)
        assert pool.tainted

    def test_generous_deadline_is_harmless(self, A, pool):
        plan = pool.plan
        ref = serial(A, plan) / plan.scale()
        out, _ = pool.execute(plan, plan.rng_factory(),
                              deadline=time.monotonic() + 60.0)
        assert np.array_equal(out, ref)
        assert not pool.tainted


class TestRunCompatibility:
    def test_one_shot_run_still_works(self, A):
        """The historical ``run()`` (start + execute + close) contract."""
        plan = make_plan(A)
        sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
        out, stats = sup.run()
        assert np.array_equal(out * plan.scale(), serial(A, plan))
        assert stats.health.clean


@pytest.fixture
def sent(monkeypatch):
    """Supervisor-side ``Connection.send`` log: ``(tag, carries_rng)``."""
    log = []
    send = Connection.send

    def recording_send(conn, obj):
        log.append((obj[0], obj[0] == "tasks" and obj[2] is not None))
        return send(conn, obj)

    monkeypatch.setattr(Connection, "send", recording_send)
    return log


class TestWarmRebind:
    """Seed-only plan changes rebind generators on the dispatch message;
    everything else reloads.  Every result equals its serial plan."""

    def run(self, A, pool, sent, plan, injector=None):
        del sent[:]
        out, stats = pool.execute(plan, plan.rng_factory(),
                                  injector=injector)
        assert np.array_equal(out, serial(A, plan) / plan.scale())
        tags = [tag for tag, _rng in sent]
        return tags, [rng for tag, rng in sent if tag == "tasks"], stats

    def test_plan_sequence(self, A, pool, sent):
        workers = len(pool.worker_pids())
        # The pool's own plan: nothing to rebind.
        tags, rebinds, _ = self.run(A, pool, sent, make_plan(A))
        assert "reload" not in tags and not any(rebinds)
        # Seed-only changes: no reload, the new seed rides on the tasks.
        for seed in (6, 7):
            tags, rebinds, _ = self.run(A, pool, sent, make_plan(A, seed=seed))
            assert "reload" not in tags
            assert sum(rebinds) == workers
        # batch 1 -> 3 -> 1: new output shape, full reload each way;
        # new batch seeds alone rebind.
        steps = [(dict(batch_seeds=(1, 2, 3)), True),
                 (dict(batch_seeds=(4, 5, 6)), False),
                 (dict(seed=8), True),
                 (dict(d=36, seed=8), True),   # new output segment
                 (dict(d=36, seed=9), False),
                 (dict(d=36, seed=9, b_d=36), True)]
        for kwargs, reloads in steps:
            tags, rebinds, _ = self.run(A, pool, sent, make_plan(A, **kwargs))
            assert tags.count("reload") == (workers if reloads else 0), kwargs
            if reloads:
                assert not any(rebinds), kwargs

    def test_idle_worker_gets_current_seed(self, A, pool, sent):
        # One task: the second worker idles through both runs.
        one = dict(d=24, b_d=24, b_n=30)
        self.run(A, pool, sent, make_plan(A, seed=11, **one))
        tags, rebinds, _ = self.run(A, pool, sent,
                                    make_plan(A, seed=12, **one))
        assert "reload" not in tags and rebinds == [True]
        # The same plan again, killing the busy worker: its task moves
        # to the idle one, which last heard seed 11 and must use 12.
        inj = FaultInjector(FaultPlan([FaultSpec(kind="kill_worker")]))
        _, _, stats = self.run(A, pool, sent, make_plan(A, seed=12, **one),
                               injector=inj)
        assert stats.health.workers_lost == 1
        # Then a two-task plan with a new seed.
        tags, _, _ = self.run(A, pool, sent,
                              make_plan(A, seed=14, d=24, b_d=24, b_n=15))
        assert tags.count("reload") == len(pool.worker_pids())

    def test_respawned_worker_uses_current_seed(self, A, sent):
        solo = WorkerPoolConfig(workers=1, heartbeat_timeout=2.0,
                                backoff_base=0.0)
        plan = make_plan(A, pool=solo)
        sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
        sup.start()
        try:
            self.run(A, sup, sent, plan)
            inj = FaultInjector(FaultPlan([
                FaultSpec(kind="kill_worker", task=(0, 0))]))
            tags, rebinds, stats = self.run(
                A, sup, sent, make_plan(A, seed=21, pool=solo), injector=inj)
            assert "reload" not in tags and rebinds[0]
            assert stats.health.workers_lost == 1
            assert not stats.health.degraded_to_thread
        finally:
            sup.close()
