"""The partition stage: spec mechanics, shard computation, and the hard
acceptance bit — sharded execution is bit-identical to unsharded for
every strategy, shard count, and driver."""

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachePolicy
from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.parallel import WorkerPoolConfig
from repro.plan import (
    PARTITION_STRATEGIES,
    SHARD_MERGED,
    SHARD_START,
    WORKER_SPAWNED,
    PartitionSpec,
    Planner,
    Runtime,
    SketchPlan,
    compute_shards,
)
from repro.sparse import random_sparse


@pytest.fixture(scope="module")
def A():
    return random_sparse(300, 96, 0.05, seed=3)


def _cfg(**kw):
    base = dict(gamma=2.0, kernel="algo4", rng_kind="philox", seed=11,
                b_d=16, b_n=16)
    base.update(kw)
    return SketchConfig(**base)


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PartitionSpec(shards=0)
        with pytest.raises(ConfigError):
            PartitionSpec(shards=2, strategy="zigzag")

    def test_plan_round_trip_with_partition(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=3, strategy="propagation"))
        back = SketchPlan.from_dict(plan.to_dict())
        assert back.partition == plan.partition
        assert back.digest() == plan.digest()

    def test_digest_stable_across_compiles(self, A):
        p1 = Planner().compile(A, _cfg(), partition=PartitionSpec(shards=4))
        p2 = Planner().compile(A, _cfg(), partition=PartitionSpec(shards=4))
        assert p1.digest() == p2.digest()

    def test_partition_changes_digest(self, A):
        """The partition request is part of the plan's identity."""
        un = Planner().compile(A, _cfg())
        sh = Planner().compile(A, _cfg(), partition=PartitionSpec(shards=4))
        assert un.digest() != sh.digest()

    def test_single_shard_request_drops_to_none(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(shards=1))
        assert plan.partition is None

    def test_planner_records_partition_decision(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(shards=4))
        assert any(d.field == "partition" for d in plan.decisions)

    def test_int_shorthand(self, A):
        plan = Planner().compile(A, _cfg(), partition=3)
        assert plan.partition == PartitionSpec(shards=3, strategy="even")


class TestComputeShards:
    def test_boundaries_tile_and_align(self):
        for strategy in PARTITION_STRATEGIES:
            col_nnz = list(range(96))
            shards = compute_shards(
                PartitionSpec(shards=5, strategy=strategy),
                n=96, b_n=16, col_nnz=col_nnz)
            assert shards[0].col_start == 0
            assert shards[-1].col_stop == 96
            for a, b in zip(shards, shards[1:]):
                assert a.col_stop == b.col_start
            for s in shards:
                assert s.col_start % 16 == 0

    def test_capped_at_block_count(self):
        shards = compute_shards(PartitionSpec(shards=10), n=48, b_n=16)
        assert len(shards) == 3

    def test_nnz_balanced_requires_col_nnz(self):
        with pytest.raises(ConfigError):
            compute_shards(PartitionSpec(shards=2, strategy="nnz_balanced"),
                           n=32, b_n=16)

    def test_nnz_balanced_splits_at_the_mass(self):
        # All the nnz in the first block: it becomes its own shard.
        col_nnz = [100] * 16 + [1] * 48
        shards = compute_shards(
            PartitionSpec(shards=2, strategy="nnz_balanced"),
            n=64, b_n=16, col_nnz=col_nnz)
        assert shards[0].col_stop == 16


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", [2, 5])
    def test_serial_sharded_equals_unsharded(self, A, strategy, shards):
        ref = Runtime().run(Planner().compile(A, _cfg()), A)
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=shards, strategy=strategy))
        res = Runtime().run(plan, A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_engine_sharded_equals_unsharded(self, A, strategy):
        cfg = _cfg(threads=2)
        ref = Runtime().run(Planner().compile(A, cfg), A)
        plan = Planner().compile(A, cfg, partition=PartitionSpec(
            shards=3, strategy=strategy))
        res = Runtime().run(plan, A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)

    def test_process_sharded_equals_unsharded(self, A):
        pool = WorkerPoolConfig(workers=2)
        ref = Runtime().run(
            Planner().compile(A, _cfg(), driver="process", pool=pool), A)
        plan = Planner().compile(A, _cfg(), driver="process", pool=pool,
                                 partition=PartitionSpec(shards=3))
        res = Runtime().run(plan, A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)

    def test_algo3_sharded_equals_unsharded(self, A):
        cfg = _cfg(kernel="algo3")
        ref = Runtime().run(Planner().compile(A, cfg), A)
        plan = Planner().compile(
            A, cfg, partition=PartitionSpec(shards=4, strategy="even"))
        res = Runtime().run(plan, A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)

    def test_normalized_scale_applied_once(self, A):
        cfg = _cfg(distribution="gaussian")
        ref = Runtime().run(Planner().compile(A, cfg), A)
        res = Runtime().run(Planner().compile(
            A, cfg, partition=PartitionSpec(shards=3)), A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)


class TestShardEventsAndStats:
    def test_events_fire_per_shard_in_column_order(self, A):
        rt = Runtime()
        starts, merges = [], []
        rt.bus.subscribe_observer(SHARD_START, starts.append)
        rt.bus.subscribe_observer(SHARD_MERGED, merges.append)
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=4, strategy="propagation"))
        rt.run(plan, A)
        assert len(starts) == 4 and len(merges) == 4
        assert [e.get("shard") for e in starts] == [0, 1, 2, 3]
        # Propagation-blocking merge order: ascending column ranges.
        stops = [e.get("col_stop") for e in merges]
        assert stops == sorted(stops)
        assert all(e.get("strategy") == "propagation" for e in starts)
        assert all(e.get("seconds") >= 0.0 for e in merges)
        assert all(e.get("words") > 0 for e in merges)
        assert rt.bus.dropped_total() == 0

    def test_stats_carry_merge_accounting(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=3, strategy="nnz_balanced"))
        res = Runtime().run(plan, A)
        extra = res.stats.extra
        assert extra["shards"] == 3
        assert extra["partition_strategy"] == "nnz_balanced"
        assert extra["merge_seconds"] >= 0.0
        d = res.sketch.shape[0]
        assert extra["merge_words"] == d * A.shape[1]


class TestOneDriverRun:
    """A partitioned plan is one driver run: one worker fleet, and stats
    that count the batch and the fleet once, not once per stripe."""

    @pytest.mark.parametrize("driver", ["serial", "engine"])
    def test_driver_called_once(self, A, driver):
        from repro.plan.runtime import _DRIVERS

        calls = []

        def counting(*args):
            calls.append(args[-1])
            return _DRIVERS[driver](*args)

        rt = Runtime()
        rt.register_local_driver(driver, counting)
        plan = Planner().compile(A, _cfg(), driver=driver,
                                 partition=PartitionSpec(shards=3))
        rt.run(plan, A)
        assert len(calls) == 1
        assert len(calls[0].bounds) == 3

    def test_process_run_spawns_one_fleet(self, A):
        rt = Runtime()
        spawned = []
        rt.bus.subscribe_observer(WORKER_SPAWNED, spawned.append)
        plan = Planner().compile(A, _cfg(), driver="process",
                                 pool=WorkerPoolConfig(workers=2),
                                 partition=PartitionSpec(shards=3))
        res = rt.run(plan, A)
        assert res.stats.extra["shards"] == 3
        assert len(spawned) == 2
        assert res.stats.health.workers_spawned == 2
        assert res.stats.extra["workers"] == 2

    @pytest.mark.parametrize("driver", ["serial", "engine", "process"])
    def test_batched_run_reports_its_batch_once(self, A, driver):
        kw = {"pool": WorkerPoolConfig(workers=2)} \
            if driver == "process" else {}
        ref = Runtime().run(Planner().compile(
            A, _cfg(), driver=driver, batch_seeds=[1, 2], **kw), A)
        res = Runtime().run(Planner().compile(
            A, _cfg(), driver=driver, batch_seeds=[1, 2],
            partition=PartitionSpec(shards=3), **kw), A)
        np.testing.assert_array_equal(res.sketch, ref.sketch)
        assert res.stats.extra["shards"] == 3
        assert res.stats.extra["batch"] == 2
        assert res.stats.samples_generated == ref.stats.samples_generated
        assert res.stats.blocks_processed == ref.stats.blocks_processed


class TestShardCacheKeys:
    def test_one_blocked_csr_entry_serves_every_shard_count(self, A,
                                                            tmp_path):
        def run(partition):
            cache = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
            plan = Planner().compile(A, _cfg(), cache=cache,
                                     partition=partition)
            return Runtime().run(plan, A, cache=cache), cache

        ref, _ = run(None)
        for shards in (3, 2):
            res, cache = run(PartitionSpec(shards=shards))
            np.testing.assert_array_equal(res.sketch, ref.sketch)
            assert res.stats.extra["shards"] == shards
            assert cache.misses.get("blocked_csr", 0) == 0
