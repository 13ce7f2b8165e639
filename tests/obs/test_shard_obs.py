"""Shard events → observer metrics and tracer spans."""

from repro.core import SketchConfig
from repro.obs import RunObserver
from repro.plan import (
    SHARD_MERGED,
    SHARD_RESUMED,
    SHARD_START,
    TASK_REQUEUED,
    EventBus,
    PartitionSpec,
    Planner,
    Runtime,
)
from repro.sparse import random_sparse


def _run_sharded(observer_kwargs=None):
    A = random_sparse(300, 96, 0.05, seed=3)
    cfg = SketchConfig(gamma=2.0, kernel="algo4", rng_kind="philox",
                       seed=11, b_d=16, b_n=16)
    rt = Runtime()
    obs = RunObserver(**(observer_kwargs or {})).attach(rt.bus)
    plan = Planner().compile(A, cfg, partition=PartitionSpec(shards=4))
    result = rt.run(plan, A)
    assert rt.bus.dropped_total() == 0
    return obs, result


class TestShardMetrics:
    def test_sharded_run_populates_shard_families(self):
        obs, result = _run_sharded()
        snap = obs.metrics_dict()
        by_name = {f["name"]: f for f in snap["metrics"]}
        shards = by_name["repro_shards_total"]["samples"]
        assert shards == [{"labels": {}, "value": 4.0}]
        merge = by_name["repro_shard_merge_seconds"]["samples"][0]
        assert merge["count"] == 4
        assert merge["sum"] >= 0.0
        words = by_name["repro_shard_merge_words_total"]["samples"][0]
        d = result.sketch.shape[0]
        assert words["value"] == float(d * 96)
        obs.detach()

    def test_requeues_labeled_by_active_shard(self):
        bus = EventBus()
        obs = RunObserver(trace=False).attach(bus)
        bus.emit(SHARD_START, shard=2, shards=4, col_start=32, col_stop=48)
        bus.emit(TASK_REQUEUED, reason="worker_crashed", task=(0, 0))
        bus.emit(SHARD_MERGED, shard=2, col_start=32, col_stop=48,
                 seconds=0.001, words=100)
        # Requeues outside any shard stay unlabeled.
        bus.emit(TASK_REQUEUED, reason="worker_crashed", task=(0, 1))
        snap = obs.metrics_dict()
        by_name = {f["name"]: f for f in snap["metrics"]}
        samples = by_name["repro_shard_requeues_total"]["samples"]
        assert samples == [{"labels": {"shard": "2"}, "value": 1.0}]
        pool = by_name["repro_pool_requeues_total"]["samples"]
        assert sum(s["value"] for s in pool) == 2.0
        obs.detach()

    def test_resumed_shards_counted_by_repartition(self):
        bus = EventBus()
        obs = RunObserver(trace=False).attach(bus)
        bus.emit(SHARD_RESUMED, shard=0, rows=(0, 8), repartitioned=True,
                 source="shard-00000000-00000016/snapshot-00000001")
        bus.emit(SHARD_RESUMED, shard=1, rows=(0, 8), repartitioned=False,
                 source="shard-00000016-00000032/snapshot-00000002")
        snap = obs.metrics_dict()
        by_name = {f["name"]: f for f in snap["metrics"]}
        samples = {s["labels"]["repartitioned"]: s["value"]
                   for s in by_name["repro_shards_resumed_total"]["samples"]}
        assert samples == {"yes": 1.0, "no": 1.0}
        obs.detach()


class TestShardSpans:
    def test_one_closed_span_per_shard_with_merge_attrs(self):
        obs, _ = _run_sharded()
        spans = [s for s in obs.tracer.spans if s.name == "shard"]
        assert len(spans) == 4
        for s in spans:
            assert s.end is not None
            assert set(s.attrs) >= {"shard", "shards", "col_start",
                                    "col_stop"}
            assert s.attrs["merge_seconds"] >= 0.0
            assert s.attrs["merge_words"] > 0
            assert "unfinished" not in s.attrs
        ranges = sorted((s.attrs["col_start"], s.attrs["col_stop"])
                        for s in spans)
        assert ranges[0][0] == 0 and ranges[-1][1] == 96
        obs.detach()

    def test_shard_resumed_becomes_an_annotation(self):
        bus = EventBus()
        obs = RunObserver().attach(bus)
        bus.emit(SHARD_RESUMED, shard=0, repartitioned=True,
                 source="shard-00000000-00000016/snapshot-00000001")
        names = [a.name for a in obs.tracer.annotations]
        assert "shard_resumed" in names
        obs.detach()

    def test_unmerged_shard_closes_unfinished_on_done(self):
        from repro.plan import DONE

        bus = EventBus()
        obs = RunObserver().attach(bus)
        bus.emit(SHARD_START, shard=0, shards=2, col_start=0, col_stop=48)
        bus.emit(DONE, stats=None)
        spans = [s for s in obs.tracer.spans if s.name == "shard"]
        assert len(spans) == 1
        assert spans[0].attrs.get("unfinished") is True
        obs.detach()
