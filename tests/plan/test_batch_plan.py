"""Batched plans: compile, digest, round-trip, and execution bit-identity.

A plan compiled with ``batch_seeds=[s0, ..., sk-1]`` must execute to a
``(k, d, n)`` stack whose slice ``[t]`` is bit-identical to the classic
single-sketch plan seeded with ``s_t`` — on every driver, and with the
process pool losing workers to SIGKILL or hangs mid-run.  The plan
record itself must carry the batch axis (digest-visible, JSON
round-trippable) while single-sketch digests stay exactly as they were.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import ResilienceConfig, WorkerPoolConfig
from repro.plan import Planner, Runtime, SketchPlan
from repro.sparse import random_sparse

SEEDS = (11, 22, 33, 44)
D, B_D, B_N = 64, 32, 40

FAST_POOL = WorkerPoolConfig(workers=2, heartbeat_timeout=1.0,
                             backoff_base=0.0)


@pytest.fixture(scope="module")
def A():
    return random_sparse(300, 120, 0.05, seed=3)


def _cfg(seed=SEEDS[0], kernel="algo3"):
    return SketchConfig(kernel=kernel, rng_kind="philox", seed=seed,
                        b_d=B_D, b_n=B_N)


def compile_batched(A, *, kernel="algo3", driver="auto", pool=None,
                    seeds=SEEDS):
    return Planner().compile(A, _cfg(kernel=kernel), d=D, driver=driver,
                             pool=pool, batch_seeds=seeds)


@pytest.fixture(scope="module")
def solo_sketches(A):
    """Single-sketch reference runs, one per batch seed, per kernel."""
    out = {}
    for kernel in ("algo3", "algo4"):
        for seed in SEEDS:
            plan = Planner().compile(A, _cfg(seed=seed, kernel=kernel),
                                     d=D, driver="serial")
            out[kernel, seed] = Runtime().run(plan, A).sketch
    return out


class TestBatchedCompile:
    def test_batch_axis_recorded(self, A):
        plan = compile_batched(A)
        assert plan.problem.batch == len(SEEDS)
        assert plan.rng.batch_seeds == SEEDS
        assert plan.rng.seed == SEEDS[0]
        fields = {d.field: d for d in plan.decisions}
        assert "batch" in fields
        assert fields["batch"].data["seeds"] == list(SEEDS)

    def test_single_seed_degenerates_to_classic_plan(self, A):
        batched = Planner().compile(A, _cfg(seed=0), d=D,
                                    batch_seeds=[SEEDS[2]])
        classic = Planner().compile(A, _cfg(seed=SEEDS[2]), d=D)
        assert batched.problem.batch == 1
        assert batched.rng.batch_seeds is None
        assert batched.rng.seed == SEEDS[2]
        assert batched.digest() == classic.digest()

    def test_empty_batch_seeds_rejected(self, A):
        with pytest.raises(ConfigError, match="non-empty"):
            Planner().compile(A, _cfg(), d=D, batch_seeds=[])

    def test_digest_sees_the_batch(self, A):
        classic = Planner().compile(A, _cfg(), d=D)
        batched = compile_batched(A)
        other = compile_batched(A, seeds=(11, 22, 33, 45))
        assert batched.digest() != classic.digest()
        assert batched.digest() != other.digest()

    def test_json_round_trip(self, A, tmp_path):
        plan = compile_batched(A)
        path = tmp_path / "batched-plan.json"
        plan.to_json(path)
        back = SketchPlan.from_json(path)
        assert back.problem.batch == len(SEEDS)
        assert back.rng.batch_seeds == SEEDS
        assert back.digest() == plan.digest()

    def test_dict_round_trip_preserves_classic_record(self, A):
        classic = Planner().compile(A, _cfg(), d=D)
        record = classic.to_dict()
        assert "batch" not in record["problem"]
        assert "batch_seeds" not in record["rng"]
        assert SketchPlan.from_dict(record).digest() == classic.digest()


class TestBatchedExecution:
    @pytest.mark.parametrize("driver", ("serial", "engine", "process"))
    @pytest.mark.parametrize("kernel", ("algo3", "algo4"))
    def test_bit_identical_on_every_driver(self, A, solo_sketches, kernel,
                                           driver):
        pool = FAST_POOL if driver == "process" else None
        plan = compile_batched(A, kernel=kernel, driver=driver, pool=pool)
        result = Runtime().run(plan, A)
        assert result.sketch.shape == (len(SEEDS), D, A.shape[1])
        for t, seed in enumerate(SEEDS):
            assert np.array_equal(result.sketch[t],
                                  solo_sketches[kernel, seed]), \
                f"driver={driver} kernel={kernel} seed={seed}"

    def test_stats_record_the_batch(self, A):
        plan = compile_batched(A, driver="engine")
        result = Runtime().run(plan, A)
        assert result.stats.extra.get("batch") == len(SEEDS)

    @pytest.mark.parametrize("kernel", ("algo3", "algo4"))
    def test_rng_fault_is_repaired_by_the_guardrail(self, A, kernel):
        # A corrupted generator on a batched tile yields finite but huge
        # samples in every sketch: the magnitude guardrail must catch it
        # and recompute, exactly as on a single-sketch tile.
        cfg = dataclasses.replace(
            _cfg(kernel=kernel),
            resilience=ResilienceConfig(guardrail="recompute"))
        plan = Planner().compile(A, cfg, d=D, driver="engine",
                                 batch_seeds=(1, 2, 3))
        clean = Runtime().run(plan, A).sketch
        inj = FaultInjector(FaultPlan([FaultSpec(
            kind="rng", task=(0, 0), max_hits=1, magnitude=1e6)]))
        result = Runtime().run(plan, A, injector=inj)
        health = result.stats.health
        assert [f.kind for f in health.failures] == ["guardrail-magnitude"]
        assert health.guardrail_violations == 1
        assert health.corrupted_blocks_repaired == 1
        assert [e.kind for e in inj.events] == ["rng"]
        assert np.array_equal(result.sketch, clean)

    @pytest.mark.parametrize("fault", [
        FaultSpec(kind="kill_worker", task=(32, 40), max_hits=1),
        FaultSpec(kind="hang_worker", task=(0, 40), sleep_seconds=30.0,
                  max_hits=1),
    ], ids=["kill_worker", "hang_worker"])
    @pytest.mark.parametrize("kernel", ("algo3", "algo4"))
    def test_process_faults_stay_bit_identical(self, A, solo_sketches,
                                               kernel, fault):
        plan = compile_batched(A, kernel=kernel, driver="process",
                               pool=FAST_POOL)
        inj = FaultInjector(FaultPlan([fault]))
        result = Runtime().run(plan, A, injector=inj)
        health = result.stats.health
        assert health is not None
        assert health.workers_lost >= 1
        for t, seed in enumerate(SEEDS):
            assert np.array_equal(result.sketch[t],
                                  solo_sketches[kernel, seed]), \
                f"kernel={kernel} fault={fault.kind} seed={seed}"
