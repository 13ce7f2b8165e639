"""A warm pool's shared output is not cleared between runs.

Every tile of a run is written whole: a worker assigns the tile it
computed, and an in-process rung zeroes a handed-in output's tile before
its attempt.  So whatever an earlier run (or anything else) left in the
segment never reaches a result.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import WorkerPoolConfig
from repro.parallel.procpool import ProcessPoolSupervisor
from repro.plan import Planner, Runtime
from repro.sparse import random_sparse

POOL = WorkerPoolConfig(workers=2, heartbeat_timeout=2.0, max_requeues=0,
                        backoff_base=0.0)


@pytest.fixture(scope="module")
def A():
    return random_sparse(120, 30, 0.1, seed=78)


def make_plan(A, kernel, seed=5):
    cfg = SketchConfig(kernel=kernel, rng_kind="philox", seed=seed,
                       b_d=12, b_n=10)
    return Planner().compile(A, cfg, d=24, driver="process", pool=POOL)


def serial(A, plan):
    return Runtime().run(dataclasses.replace(plan, driver="serial"),
                         A).sketch / plan.scale()


@pytest.mark.parametrize("kernel", ["algo3", "algo4"])
def test_a_dirty_segment_never_reaches_the_result(A, kernel):
    plan = make_plan(A, kernel)
    sup = ProcessPoolSupervisor(plan, A, plan.rng_factory())
    try:
        sup.start()
        first, _ = sup.execute()
        sup.Ahat[...] = np.nan
        again, _ = sup.execute()
        sup.Ahat[...] = np.nan
        other = make_plan(A, kernel, seed=6)
        reseeded, _ = sup.execute(other, other.rng_factory())
    finally:
        sup.close()
    assert np.array_equal(first, serial(A, plan))
    assert np.array_equal(again, serial(A, plan))
    assert np.array_equal(reseeded, serial(A, other))


def test_the_ladder_overwrites_a_dirty_segment(A):
    # A poison task is quarantined at once and finished in-process, into
    # the NaN-filled shared segment.
    plan = make_plan(A, "algo3")
    injector = FaultInjector(FaultPlan([
        FaultSpec(kind="kill_worker", task=(12, 10), max_hits=None)]))
    sup = ProcessPoolSupervisor(plan, A, plan.rng_factory(),
                                injector=injector)
    try:
        sup.start()
        sup.Ahat[...] = np.nan
        result, stats = sup.execute()
    finally:
        sup.close()
    assert stats.health.quarantined_tasks == 1
    assert np.array_equal(result, serial(A, plan))
