"""Fleet floor: a parallel plan gives every lane at least one block task.

When a plan runs on ``W > 1`` lanes (pool workers for the process
driver, threads otherwise) and ``b_n`` is not pinned, the planner
narrows ``b_n`` — never ``b_d`` — until the block grid has ``W`` tasks.
Column stripes cannot move a bit: RNG entries are keyed on (row block,
sparse row), never on the column offset.  So the floored sketch must
equal the serial sketch of the unfloored plan for every kernel,
generator and batch size.
"""

import dataclasses

import numpy as np
import pytest

from repro import Planner, Runtime, SketchConfig
from repro.kernels.blocking import block_task_count
from repro.parallel import WorkerPoolConfig
from repro.sparse import rail_like_sparse, random_sparse
from repro.workloads import ABNORMAL_SUITE, SPMM_SUITE

#: With d = 24 and n = 9 the default heuristic makes one 24 x 9 block.
D = 24
SEED = 21


@pytest.fixture(scope="module")
def A():
    return random_sparse(200, 9, 0.1, seed=5)


def tasks(plan):
    return block_task_count(plan.problem.d, plan.problem.n, plan.b_d,
                            plan.b_n)


def compile_on(A, cfg, driver, lanes, **kw):
    if driver == "process":
        return Planner().compile(A, cfg, d=D, driver="process",
                                 pool=WorkerPoolConfig(workers=lanes), **kw)
    return Planner().compile(A, dataclasses.replace(cfg, threads=lanes),
                             d=D, driver="engine", **kw)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("rng_kind", ["philox", "threefry", "xoshiro"])
@pytest.mark.parametrize("kernel", ["algo3", "algo4"])
@pytest.mark.parametrize("driver", ["engine", "process"])
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_floored_sketch_is_bit_identical(A, lanes, driver, kernel, rng_kind,
                                         batch):
    cfg = SketchConfig(kernel=kernel, rng_kind=rng_kind, seed=SEED)
    seeds = list(range(SEED, SEED + batch)) if batch > 1 else None
    serial = Planner().compile(A, cfg, d=D, driver="serial",
                               batch_seeds=seeds)
    assert tasks(serial) == 1  # the unfloored grid: one block
    plan = compile_on(A, cfg, driver, lanes, batch_seeds=seeds)
    n, row_blocks = plan.problem.n, -(-D // plan.b_d)
    assert tasks(plan) >= min(lanes, n * row_blocks)
    assert plan.b_d == serial.b_d
    if lanes == 1:
        assert plan.b_n == serial.b_n
    else:
        decision = next(x for x in plan.decisions if x.field == "blocking")
        assert decision.data["lanes"] == lanes
        assert decision.data["tasks_before"] == 1
        assert decision.data["tasks"] == tasks(plan)
    got = Runtime().run(plan, A).sketch
    want = Runtime().run(serial, A).sketch
    assert np.array_equal(got, want)


@pytest.mark.parametrize("driver", ["engine", "process"])
def test_explicit_b_n_wins(A, driver):
    cfg = SketchConfig(b_n=9)
    plan = compile_on(A, cfg, driver, 3)
    assert plan.b_n == 9 and tasks(plan) == 1
    assert "narrowed" not in next(
        x for x in plan.decisions if x.field == "blocking").reason


def test_floor_keeps_b_d_when_rows_are_blocked(A):
    # Two row blocks already; three lanes still need more column stripes.
    plan = compile_on(A, SketchConfig(b_d=12), "process", 3)
    assert plan.b_d == 12
    assert tasks(plan) >= 3


def test_rounding_never_leaves_a_lane_idle():
    # ceil(4 / 3) = 2 would make two stripes; the floor narrows to 1.
    A4 = random_sparse(50, 4, 0.3, seed=2)
    plan = Planner().compile(A4, SketchConfig(), d=6, driver="process",
                             pool=WorkerPoolConfig(workers=3))
    assert tasks(plan) >= 3


def test_default_pool_is_the_plan_default(A):
    plan = Planner().compile(A, SketchConfig(), d=D, driver="process")
    assert tasks(plan) >= WorkerPoolConfig().workers


def test_serial_driver_is_one_lane(A):
    plan = Planner().compile(A, SketchConfig(threads=2), d=D,
                             driver="serial")
    assert tasks(plan) == 1


#: Plan digests of the benchmark's library configs, captured before the
#: floor existed (benchmark smoke sizes).  Their plans run on one lane or
#: pin ``b_n``, so the floor must not touch them.
BENCH_DIGESTS = {
    "fixed_a":
        "918e61949383776c82fcdab95d307d2401f6245129a72813aa911062fd4e93c8",
    "rng_bound":
        "580cec69b4e9fc402fe107f32e9acd3ed528157c33fe29615987b0c748235ee3",
    "cold_stream":
        "1ae82428684b4a478715b5f7c69acf2d429050604075eee0fcf392f198dff20d",
}


def bench_plan(name):
    if name == "fixed_a":
        A = ABNORMAL_SUITE["Abnormal_A"].builder(2000, 100, 7)
        cfg = SketchConfig(kernel="algo4", rng_kind="philox", b_d=300,
                           b_n=20, seed=11)
    elif name == "rng_bound":
        A = SPMM_SUITE["mk-12"].builder(200, 20, 7)
        cfg = SketchConfig(kernel="algo3", rng_kind="philox", threads=2,
                           b_d=32, b_n=8, distribution="gaussian", seed=11)
    else:
        # The benchmark plans this config with tune="measure", whose
        # winner is timed; the model path gives a fixed digest, and the
        # floor runs after either with the same single lane.
        A = rail_like_sparse(300, 8, 1200, seed=7)
        cfg = SketchConfig(kernel="algo4", rng_kind="philox", seed=11)
    return Planner().compile(A, cfg, gamma=3)


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_benchmark_library_plans_unchanged(name):
    assert bench_plan(name).digest() == BENCH_DIGESTS[name]
