"""KernelStats.merge aggregation: no aliasing, no double counting.

A sharded run folds per-shard records into a run aggregate, and a
service folds run aggregates into service totals.  Both levels rely on
the same two guarantees: the aggregate is a *fresh* record (never an
alias of a constituent — the old behaviour adopted shard 0's record as
the run total, so sum-of-parts reconciliation double-counted it), and
the ``merge_seconds``/``merge_words`` extras attached by the shard
sweep add exactly once per level.  The observability bar on top: the
exported shard-merge metrics equal the aggregate's extras bit for bit.
"""

import copy

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.errors import ConfigError
from repro.kernels import KernelStats
from repro.obs import RunObserver
from repro.plan import SHARD_MERGED, PartitionSpec, Planner, Runtime
from repro.sparse import random_sparse

SHARDS = 4


@pytest.fixture(scope="module")
def A():
    return random_sparse(300, 96, 0.05, seed=3)


def sharded_run(A, seed=11, observe=False):
    cfg = SketchConfig(gamma=2.0, kernel="algo4", rng_kind="philox",
                       seed=seed, b_d=16, b_n=16)
    rt = Runtime()
    obs = RunObserver(trace=False).attach(rt.bus) if observe else None
    merged = []
    rt.bus.subscribe(SHARD_MERGED, lambda e: merged.append(e.payload))
    plan = Planner().compile(A, cfg, partition=PartitionSpec(shards=SHARDS))
    result = rt.run(plan, A)
    return result, merged, obs


class TestSelfMergeGuard:
    def test_merge_into_itself_rejected(self):
        st = KernelStats(kernel="algo3")
        with pytest.raises(ConfigError, match="into itself"):
            st.merge(st)

    def test_merge_of_equal_copy_still_allowed(self):
        st = KernelStats(kernel="algo3", sample_seconds=0.5,
                         extra={"merge_words": 10})
        st.merge(copy.deepcopy(st))
        assert st.sample_seconds == 1.0
        assert st.extra["merge_words"] == 20


class TestShardedAggregate:
    def test_aggregate_extras_equal_shard_event_sums(self, A):
        """Bit-for-bit: the aggregate's merge extras are exactly the
        sums the SHARD_MERGED event stream reports, once each."""
        result, merged, _ = sharded_run(A)
        st = result.stats
        assert len(merged) == SHARDS
        assert st.extra["shards"] == SHARDS
        # Same addition order as the runtime's accumulation → exact.
        seconds = 0.0
        for payload in merged:
            seconds += payload["seconds"]
        assert st.extra["merge_seconds"] == seconds
        assert st.extra["merge_words"] == \
            sum(p["words"] for p in merged)
        d = result.sketch.shape[0]
        assert st.extra["merge_words"] == d * A.shape[1]

    def test_aggregate_matches_unsharded_totals(self, A):
        """The fresh-record aggregate counts each shard exactly once:
        its work totals equal the unsharded run's."""
        result, _, _ = sharded_run(A)
        cfg = SketchConfig(gamma=2.0, kernel="algo4", rng_kind="philox",
                           seed=11, b_d=16, b_n=16)
        plain = Runtime().run(Planner().compile(A, cfg), A)
        assert np.array_equal(result.sketch, plain.sketch)
        assert result.stats.samples_generated \
            == plain.stats.samples_generated
        assert result.stats.flops == plain.stats.flops
        assert result.stats.blocks_processed \
            == plain.stats.blocks_processed

    def test_exported_metrics_equal_aggregate_extras(self, A):
        """The scrape never invents merge traffic: exported shard-merge
        families equal the returned aggregate's extras bit for bit."""
        result, _, obs = sharded_run(A, observe=True)
        st = result.stats
        snap = obs.metrics_dict()
        by_name = {f["name"]: f for f in snap["metrics"]}
        words = by_name["repro_shard_merge_words_total"]["samples"][0]
        assert words["value"] == float(st.extra["merge_words"])
        secs = by_name["repro_shard_merge_seconds"]["samples"][0]
        assert secs["count"] == SHARDS
        assert secs["sum"] == st.extra["merge_seconds"]
        obs.detach()


class TestSecondLevelMerge:
    def test_service_total_adds_each_run_once(self, A):
        """Folding sharded runs into a service aggregate must yield
        sum-of-runs extras — the regression the aliased-aggregate bug
        broke (shard 0's record doubling under a second-level merge)."""
        r1, _, _ = sharded_run(A, seed=11)
        r2, _, _ = sharded_run(A, seed=12)
        before = (r1.stats.extra["merge_seconds"],
                  r1.stats.extra["merge_words"])
        total = KernelStats(kernel=r1.stats.kernel)
        total.merge(r1.stats)
        total.merge(r2.stats)
        assert total.extra["merge_seconds"] == \
            r1.stats.extra["merge_seconds"] + r2.stats.extra["merge_seconds"]
        assert total.extra["merge_words"] == \
            r1.stats.extra["merge_words"] + r2.stats.extra["merge_words"]
        assert total.samples_generated == \
            r1.stats.samples_generated + r2.stats.samples_generated
        # Folding into the aggregate never mutates the constituents.
        assert (r1.stats.extra["merge_seconds"],
                r1.stats.extra["merge_words"]) == before

    def test_aggregate_never_aliases_a_constituent(self, A):
        result, _, _ = sharded_run(A)
        total = KernelStats(kernel=result.stats.kernel)
        total.merge(result.stats)
        assert total is not result.stats
        assert total.extra is not result.stats.extra
        # A second fold of a *different* record works; re-merging the
        # aggregate into itself is the rejected aliasing pattern.
        with pytest.raises(ConfigError):
            total.merge(total)
