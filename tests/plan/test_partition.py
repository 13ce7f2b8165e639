"""The partition stage: spec mechanics, stripe computation, and the hard
acceptance bit — sharded execution is bit-identical to unsharded for
every shard count and driver.

One stripe rule is left (``even``).  A stored partition record may still
name a retired rule (``nnz_balanced``, ``propagation``); the ``record``
axis below feeds each name through a stored plan: ``even`` loads and
runs, a retired name is refused on load, never re-cut silently."""

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachePolicy
from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.parallel import WorkerPoolConfig
from repro.plan import (
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


#: The partition strategies a stored plan record may name; only the
#: first is still a rule.
RECORDS = ("even", "nnz_balanced", "propagation")


def _stored(plan: SketchPlan, record: str) -> SketchPlan:
    """*plan* as stored under a partition record naming *record*;
    raises :class:`ConfigError` for a retired rule."""
    data = plan.to_dict()
    data["partition"]["strategy"] = record
    return SketchPlan.from_dict(data)


def _sharded_matches(A, cfg, shards: int, record: str) -> None:
    ref = Runtime().run(Planner().compile(A, cfg), A)
    plan = Planner().compile(A, cfg, partition=PartitionSpec(shards=shards))
    if record != "even":
        with pytest.raises(ConfigError, match=record):
            _stored(plan, record)
        return
    res = Runtime().run(_stored(plan, record), A)
    assert res.stats.extra["shards"] == shards
    np.testing.assert_array_equal(res.sketch, ref.sketch)


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PartitionSpec(shards=0)
        with pytest.raises(ConfigError, match="zigzag"):
            PartitionSpec.from_dict({"shards": 2, "strategy": "zigzag"})

    def test_plan_round_trip_with_partition(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=3))
        # The one rule is recorded as a constant, so stored digests hold.
        assert plan.to_dict()["partition"] == {"shards": 3,
                                               "strategy": "even"}
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
        assert plan.partition == PartitionSpec(shards=3)


class TestComputeShards:
    def test_boundaries_tile_and_align(self):
        stripes = compute_shards(PartitionSpec(shards=5), n=96, b_n=16)
        assert stripes[0][0] == 0
        assert stripes[-1][1] == 96
        for a, b in zip(stripes, stripes[1:]):
            assert a[1] == b[0]
        for c0, _c1 in stripes:
            assert c0 % 16 == 0

    def test_capped_at_block_count(self):
        stripes = compute_shards(PartitionSpec(shards=10), n=48, b_n=16)
        assert len(stripes) == 3

    def test_boundaries_pinned(self):
        """Lineage directories are named by column range, so the cuts
        of stored checkpoints must not move."""
        assert compute_shards(PartitionSpec(shards=4), n=96, b_n=16) == (
            (0, 32), (32, 48), (48, 80), (80, 96))
        assert compute_shards(PartitionSpec(shards=3), n=24, b_n=6) == (
            (0, 12), (12, 18), (18, 24))
        assert compute_shards(PartitionSpec(shards=2), n=30, b_n=16) == (
            (0, 16), (16, 30))


class TestBitIdentity:
    @pytest.mark.parametrize("record", RECORDS)
    @pytest.mark.parametrize("shards", [2, 5])
    def test_serial_sharded_equals_unsharded(self, A, record, shards):
        _sharded_matches(A, _cfg(), shards, record)

    @pytest.mark.parametrize("record", RECORDS)
    def test_engine_sharded_equals_unsharded(self, A, record):
        _sharded_matches(A, _cfg(threads=2), 3, record)

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
        plan = Planner().compile(A, cfg, partition=PartitionSpec(shards=4))
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
            shards=4))
        rt.run(plan, A)
        assert len(starts) == 4 and len(merges) == 4
        assert [e.get("shard") for e in starts] == [0, 1, 2, 3]
        # Stripes merge in ascending column order.
        stops = [e.get("col_stop") for e in merges]
        assert stops == sorted(stops)
        assert [(e.get("col_start"), e.get("col_stop")) for e in starts] \
            == list(compute_shards(PartitionSpec(shards=4), n=96, b_n=16))
        assert all(e.get("seconds") >= 0.0 for e in merges)
        assert all(e.get("words") > 0 for e in merges)
        assert rt.bus.dropped_total() == 0

    def test_stats_carry_merge_accounting(self, A):
        plan = Planner().compile(A, _cfg(), partition=PartitionSpec(
            shards=3))
        res = Runtime().run(plan, A)
        extra = res.stats.extra
        assert extra["shards"] == 3
        assert "partition_strategy" not in extra
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
