"""The ``serial`` driver is the engine's scheduler pinned to its serial
rung: it honours a plan's resilience policy and fault hooks, and every
in-process driver returns the sketch in the kernels' apply layout."""

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import ResilienceConfig
from repro.plan import Planner, Runtime
from repro.sparse import random_sparse

D = 24


@pytest.fixture
def A():
    return random_sparse(90, 30, 0.1, seed=17)


def test_explicit_serial_plan_keeps_its_resilience_policy(A):
    cfg = SketchConfig(kernel="algo4", b_d=8, b_n=6,
                       resilience=ResilienceConfig(max_retries=2))
    plan = Planner().compile(A, cfg, d=D, driver="serial")
    clean = Runtime().run(plan, A)
    injector = FaultInjector(FaultPlan([FaultSpec(kind="raise",
                                                  task=(0, 0))]))
    faulted = Runtime().run(plan, A, injector=injector)
    assert faulted.stats.health is not None
    assert faulted.stats.health.retries == 1
    np.testing.assert_array_equal(faulted.sketch, clean.sketch)


@pytest.mark.parametrize("kernel", ["algo3", "algo4"])
def test_in_process_drivers_return_one_layout(A, kernel):
    runs = [("serial", 1), ("engine", 1), ("engine", 2)]
    sketches = [
        Runtime().run(Planner().compile(
            A, SketchConfig(kernel=kernel, b_d=8, b_n=6, threads=threads),
            d=D, driver=driver), A).sketch
        for driver, threads in runs]
    for got in sketches:
        assert got.ndim == 2 and got.flags.f_contiguous
        np.testing.assert_array_equal(got, sketches[0])
