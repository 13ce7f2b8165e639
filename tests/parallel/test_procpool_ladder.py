"""The process pool's degradation ladder runs on the engine's task loop.

Tasks the pool cannot finish (a collapsed fleet, or quarantined poison
tasks) are handed to :meth:`PlanExecutionEngine.run_tasks`, which
writes into the pool's shared output.  These tests pin what that loop
brings to the ladder: every tile is zeroed before an attempt, the
loop's retries and health land in the pool's report, and the pool's
absolute run deadline stops the loop and taints the pool.
"""

import time

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import TaskTimeoutError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.kernels import iter_block_tasks, sketch_spmm
from repro.parallel import WorkerPoolConfig
from repro.parallel.executor import PlanExecutionEngine
from repro.parallel.procpool import ProcessPoolSupervisor
from repro.plan import DEGRADED, EventBus, Planner, Runtime
from repro.sparse import random_sparse

D, B_D, B_N = 36, 12, 10   # 3 x 3 = 9 block tasks over a 120 x 30 input

# Zero replays: a task that kills its worker once is quarantined at once.
POISON_POOL = WorkerPoolConfig(workers=2, heartbeat_timeout=1.0,
                               max_requeues=0, backoff_base=0.0)


@pytest.fixture(scope="module")
def A():
    return random_sparse(120, 30, 0.1, seed=301)


def make_plan(A, *, driver="process", pool=POISON_POOL):
    cfg = SketchConfig(kernel="algo3", rng_kind="philox", seed=9,
                       distribution="rademacher", b_d=B_D, b_n=B_N)
    return Planner().compile(A, cfg, d=D, driver=driver, pool=pool)


def poison(*tasks):
    return [FaultSpec(kind="kill_worker", task=t, max_hits=None)
            for t in tasks]


def test_run_tasks_overwrites_a_dirty_tile(A):
    plan = make_plan(A, driver="engine", pool=None)
    rng = plan.rng_factory()(0)
    assert rng.post_scale == 1.0
    out = np.full((D, A.shape[1]), np.nan)
    engine = PlanExecutionEngine(plan, A, plan.rng_factory())
    engine.run_tasks(list(iter_block_tasks(D, A.shape[1], B_D, B_N)), out)
    want, _ = sketch_spmm(A, D, rng, kernel="algo3", b_d=B_D, b_n=B_N)
    assert np.array_equal(out, want)


def test_ladder_retries_and_reports_into_the_pool_health(A):
    # The poison task reaches the ladder, whose first attempt at it
    # raises (process workers ignore task-level faults): the engine's
    # retry repairs it and counts into the pool's health.
    faults = poison((12, 10)) + [FaultSpec(kind="raise", task=(12, 10))]
    bus_events = []
    rt = Runtime()
    rt.bus.subscribe_observer(DEGRADED,
                              lambda e: bus_events.append(e.get("kind")))
    result = rt.run(make_plan(A), A,
                    injector=FaultInjector(FaultPlan(faults)))
    serial = Runtime().run(make_plan(A, driver="serial"), A).sketch
    assert np.array_equal(result.sketch, serial)
    health = result.stats.health
    assert health.ok and health.degraded_to_thread
    assert health.quarantined_tasks >= 1
    assert health.retries == 1
    assert [(f.task, f.kind) for f in health.failures
            if f.context != "process"] == [((12, 10), "InjectedFaultError")]
    assert bus_events == ["pool_fallback"]


def test_run_deadline_binds_on_the_ladder_and_taints(A):
    # Two poison tasks put at least two tasks on the (one-thread) ladder;
    # the first stalls past the run deadline, so the next one must not
    # start.
    plan = make_plan(A)
    faults = poison((0, 0), (24, 20)) + [
        FaultSpec(kind="stall", sleep_seconds=5.0)]
    bus = EventBus()
    inj = FaultInjector(FaultPlan(faults))
    inj.register(bus)
    bus_events = []
    bus.subscribe_observer(DEGRADED,
                           lambda e: bus_events.append(e.get("kind")))
    sup = ProcessPoolSupervisor(plan, A, plan.rng_factory(), bus=bus,
                                injector=inj)
    try:
        sup.start()
        started = time.monotonic()
        with pytest.raises(TaskTimeoutError, match="deadline") as err:
            sup.execute(deadline=started + 4.0)
        assert bus_events == ["pool_fallback"]
        assert sup.tainted
        # The count names what is left, the ladder's commits included.
        unfinished = sup.health.tasks - sup.health.completed
        assert 0 < unfinished < sup.health.tasks
        assert f"{unfinished}/{sup.health.tasks} task(s) unfinished" \
            in str(err.value)
        # One stalled ladder task, then the deadline: the rest never ran.
        assert time.monotonic() - started < 9.0
    finally:
        sup.close()
