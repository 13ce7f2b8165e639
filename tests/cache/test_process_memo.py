"""The process-wide memo: every cache ``ArtifactCache.ensure`` opens for a
policy shares one verified, byte-bounded memo per cache directory."""

import numpy as np
import pytest

import repro.plan.runtime as runtime_module
from repro.cache import ArtifactCache, CachePolicy
from repro.core import SketchConfig, sketch
from repro.plan import CACHE_HIT, CACHE_MISS, EventBus, Runtime
from repro.sparse import random_sparse


@pytest.fixture(scope="module")
def A():
    return random_sparse(150, 36, 0.08, seed=44)


def _blocked_events(events):
    return [(e.name, e.payload.get("source") or e.payload.get("reason"))
            for e in events if e.payload["artifact"] == "blocked_csr"]


class TestSharing:
    def test_equal_policies_share_verified_objects(self, tmp_path, A,
                                                   monkeypatch):
        """Two ``sketch()`` calls with equal but distinct policies: the
        second is served the first call's blocked CSR from memory, and
        each call's cache events reach its own runtime's bus only."""
        seen = []

        class RecordingRuntime(Runtime):
            def __init__(self, bus=None):
                super().__init__(bus)
                events = []
                seen.append(events)
                for name in (CACHE_HIT, CACHE_MISS):
                    self.bus.subscribe_observer(name, events.append)

        monkeypatch.setattr(runtime_module, "Runtime", RecordingRuntime)
        cfg = SketchConfig(gamma=2.0, seed=1, kernel="algo4", b_n=9)
        first = sketch(A, config=cfg,
                       cache=CachePolicy(cache_dir=str(tmp_path)))
        second = sketch(A, config=cfg,
                        cache=CachePolicy(cache_dir=str(tmp_path)))
        assert [_blocked_events(events) for events in seen] == [
            [("cache_miss", "absent")], [("cache_hit", "memory")]]
        assert first.stats.extra["blocked_csr_source"] == "converted"
        assert second.stats.extra["blocked_csr_source"] == "cache"
        np.testing.assert_array_equal(second.sketch, first.sketch)

    def test_direct_cache_keeps_a_private_memo(self, tmp_path):
        ArtifactCache.ensure(CachePolicy(cache_dir=str(tmp_path))).insert(
            "tune", "k", payloads={"x.bin": b"v"}, obj="shared")
        direct = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
        assert direct.fetch("tune", "k", lambda e: "from disk") \
            == "from disk"
        other = ArtifactCache.ensure(CachePolicy(cache_dir=str(tmp_path)))
        assert other.fetch("tune", "k") == "shared"

    def test_counters_stay_per_cache(self, tmp_path):
        policy = CachePolicy(cache_dir=str(tmp_path))
        first = ArtifactCache.ensure(policy)
        first.insert("tune", "k", payloads={"x.bin": b"v"})
        second = ArtifactCache.ensure(policy)
        assert second.fetch("tune", "k") is not None
        assert (first.hit_total(), second.hit_total()) == (0, 1)


class TestBound:
    def test_memo_stays_within_max_bytes_dropping_lru_first(self, tmp_path):
        """Each object is charged its entry's payload bytes; beyond
        ``max_bytes`` the least recently used object goes first."""
        writer = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
        for key in "abc":
            writer.insert("tune", key, payloads={"x.bin": b"x" * 1500})
        policy = CachePolicy(cache_dir=str(tmp_path), max_bytes=4000)
        cache = ArtifactCache.ensure(policy)
        for key in "aba":  # a, b from disk; a again from memory
            assert cache.fetch("tune", key) is not None
        assert cache.fetch("tune", "c") is not None  # drops b, not a
        memo = cache._memo
        assert list(memo._items) == [("tune", "a"), ("tune", "c")]
        assert memo.nbytes == 3000 <= policy.max_bytes

        bus = EventBus()
        hits = []
        bus.subscribe_observer(CACHE_HIT, hits.append)
        probe = ArtifactCache.ensure(policy, bus=bus)
        for key in "ab":
            probe.fetch("tune", key)
        assert [e.payload["source"] for e in hits] == ["memory", "disk"]
        assert memo.nbytes <= policy.max_bytes

    def test_object_larger_than_the_bound_is_not_kept(self, tmp_path):
        policy = CachePolicy(cache_dir=str(tmp_path), max_bytes=100,
                             readonly=True)
        cache = ArtifactCache.ensure(policy)
        cache.insert("tune", "small", payloads={"x.bin": b"x" * 60})
        cache.insert("tune", "big", payloads={"x.bin": b"x" * 101})
        assert cache.fetch("tune", "big") is None
        assert list(cache._memo._items) == [("tune", "small")]
        assert cache._memo.nbytes == 60


    def test_memos_of_removed_directories_are_dropped(self, tmp_path):
        """A temporary cache directory per call must not leave its memo
        behind once the directory is gone."""
        import shutil

        from repro.cache import store

        for i in range(3):
            directory = tmp_path / f"call{i}"
            ArtifactCache.ensure(CachePolicy(cache_dir=str(directory))
                                 ).insert("tune", "k", payloads={"x": b"v"})
            shutil.rmtree(directory)
        ArtifactCache.ensure(CachePolicy(cache_dir=str(tmp_path / "kept")))
        assert not [d for d in store._SHARED_MEMOS
                    if d.startswith(str(tmp_path.resolve()))
                    and not d.endswith("kept")]


class TestBits:
    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    def test_warm_cold_and_uncached_agree(self, tmp_path, A, kernel):
        cfg = SketchConfig(gamma=2.0, seed=6, kernel=kernel,
                           rng_kind="philox", b_d=12, b_n=9)
        uncached = sketch(A, config=cfg)
        cold = sketch(A, config=cfg,
                      cache=CachePolicy(cache_dir=str(tmp_path)))
        warm = sketch(A, config=cfg,
                      cache=CachePolicy(cache_dir=str(tmp_path)))
        np.testing.assert_array_equal(cold.sketch, uncached.sketch)
        np.testing.assert_array_equal(warm.sketch, uncached.sketch)
        if kernel == "algo4":
            assert warm.stats.extra["blocked_csr_source"] == "cache"

    def test_threads_sketching_through_one_policy(self, tmp_path, A,
                                                   run_threads):
        """More threads than cores share one directory's memo (and its
        blocks' apply patterns): every sketch matches the uncached one
        of its seed."""
        policy = CachePolicy(cache_dir=str(tmp_path))
        seeds = range(3)

        def cfg(seed):
            return SketchConfig(gamma=2.0, seed=seed, kernel="algo4",
                                rng_kind="philox", b_d=12, b_n=9)

        want = {seed: sketch(A, config=cfg(seed)).sketch for seed in seeds}
        got = []

        def worker():
            for seed in seeds:
                got.append((seed, sketch(A, config=cfg(seed),
                                         cache=policy).sketch))

        assert run_threads(worker) == []
        assert len(got) == 4 * len(seeds)
        for seed, out in got:
            np.testing.assert_array_equal(out, want[seed])
