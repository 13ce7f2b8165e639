"""ArtifactCache store mechanics: round trips, LRU, readonly, maintenance."""

import json

import pytest

from repro.cache import ArtifactCache, CachePolicy
from repro.cache.store import ENTRY_MANIFEST_NAME
from repro.errors import ConfigError


def make_cache(tmp_path, **kw):
    return ArtifactCache(CachePolicy(cache_dir=str(tmp_path), **kw))


class TestRoundTrip:
    def test_memory_hit_after_insert(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "k1", meta={"a": 1},
                     payloads={"x.bin": b"hello"}, obj={"deser": True})
        assert cache.fetch("tune", "k1") == {"deser": True}
        assert cache.hit_total() == 1
        assert cache.miss_total() == 0

    def test_disk_hit_from_a_fresh_process(self, tmp_path):
        make_cache(tmp_path).insert("tune", "k1", meta={"a": 1},
                                    payloads={"x.bin": b"hello"})
        fresh = make_cache(tmp_path)  # simulates a new process: empty memo
        entry = fresh.fetch("tune", "k1")
        assert entry.meta == {"a": 1}
        assert entry.payloads == {"x.bin": b"hello"}
        # Second fetch is served from memory, no disk re-verification.
        assert fresh.fetch("tune", "k1") is entry
        assert fresh.hits == {"tune": 2}

    def test_absent_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.fetch("tune", "nope") is None
        assert cache.misses == {"tune": 1}

    def test_deserialize_callback_applies(self, tmp_path):
        make_cache(tmp_path).insert("tune", "k", payloads={"n.txt": b"7"})
        got = make_cache(tmp_path).fetch(
            "tune", "k", lambda e: int(e.payloads["n.txt"]))
        assert got == 7

    def test_insert_rejects_reserved_payload_names(self, tmp_path):
        cache = make_cache(tmp_path)
        for bad in (ENTRY_MANIFEST_NAME, "../escape", ".hidden"):
            with pytest.raises(ConfigError):
                cache.insert("tune", "k", payloads={bad: b""})

    def test_reinsert_overwrites(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "k", payloads={"x.bin": b"old"})
        cache.insert("tune", "k", payloads={"x.bin": b"new"})
        assert make_cache(tmp_path).fetch("tune", "k").payloads["x.bin"] \
            == b"new"


class TestEvents:
    def test_lookups_emit_lifecycle_events(self, tmp_path):
        from repro.plan import CACHE_HIT, CACHE_MISS, EventBus

        bus = EventBus()
        seen = []
        bus.subscribe_observer(CACHE_HIT, lambda e: seen.append(e))
        bus.subscribe_observer(CACHE_MISS, lambda e: seen.append(e))
        cache = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)), bus=bus)
        cache.fetch("tune", "k")
        cache.insert("tune", "k", payloads={"x.bin": b"v"})
        cache.fetch("tune", "k")
        assert [(e.name, e.payload.get("reason") or e.payload.get("source"))
                for e in seen] == [("cache_miss", "absent"),
                                   ("cache_hit", "memory")]


class TestEviction:
    def test_lru_drops_oldest_first(self, tmp_path):
        import os
        import time

        cache = make_cache(tmp_path, max_bytes=4096)
        for i in range(4):
            cache.insert("tune", f"k{i}", payloads={"x.bin": b"a" * 1500})
            # mtime is the LRU clock; space the writes out explicitly so
            # coarse filesystem timestamps cannot tie.
            manifest = cache._entry_dir("tune", f"k{i}") / ENTRY_MANIFEST_NAME
            when = time.time() - 100 + i
            os.utime(manifest, (when, when))
        cache.insert("tune", "fresh", payloads={"x.bin": b"a" * 1500})
        fresh = make_cache(tmp_path)
        assert fresh.fetch("tune", "fresh") is not None
        assert fresh.fetch("tune", "k0") is None  # oldest: evicted
        assert cache.eviction_total() >= 1

    def test_hit_refreshes_recency(self, tmp_path):
        import os
        import time

        cache = make_cache(tmp_path, max_bytes=4000)
        cache.insert("tune", "a", payloads={"x.bin": b"a" * 1500})
        cache.insert("tune", "b", payloads={"x.bin": b"a" * 1500})
        for i, key in enumerate(("a", "b")):
            manifest = cache._entry_dir("tune", key) / ENTRY_MANIFEST_NAME
            when = time.time() - 100 + i
            os.utime(manifest, (when, when))
        # Touch "a" (the older entry) through a disk hit...
        make_cache(tmp_path, max_bytes=4000).fetch("tune", "a")
        # ...then overflow: "b" is now least recently used and must go.
        cache.insert("tune", "c", payloads={"x.bin": b"a" * 1500})
        fresh = make_cache(tmp_path)
        assert fresh.fetch("tune", "a") is not None
        assert fresh.fetch("tune", "b") is None


    def test_memory_hit_refreshes_recency(self, tmp_path, monkeypatch):
        """A hot entry served from memory must not look as old as its
        first use to the disk LRU."""
        import os
        import time

        from repro.cache import store

        monkeypatch.setattr(store, "_TOUCH_INTERVAL", 0.0)
        cache = make_cache(tmp_path, max_bytes=4000)
        cache.insert("tune", "a", payloads={"x.bin": b"a" * 1500})
        cache.insert("tune", "b", payloads={"x.bin": b"a" * 1500})
        for i, key in enumerate(("a", "b")):
            manifest = cache._entry_dir("tune", key) / ENTRY_MANIFEST_NAME
            when = time.time() - 100 + i
            os.utime(manifest, (when, when))
        hits = cache.hit_total()
        assert cache.fetch("tune", "a") is not None  # from memory
        assert cache.hit_total() == hits + 1
        cache.insert("tune", "c", payloads={"x.bin": b"a" * 1500})
        fresh = make_cache(tmp_path)
        assert fresh.fetch("tune", "a") is not None
        assert fresh.fetch("tune", "b") is None

    def test_memory_hits_touch_once_per_interval(self, tmp_path,
                                                 monkeypatch):
        import os

        from repro.cache import store

        cache = make_cache(tmp_path)
        cache.insert("tune", "a", payloads={"x.bin": b"a"})
        manifest = cache._entry_dir("tune", "a") / ENTRY_MANIFEST_NAME
        os.utime(manifest, (1000.0, 1000.0))
        for _ in range(3):  # inside the interval the insert started
            assert cache.fetch("tune", "a") is not None
        assert manifest.stat().st_mtime == 1000.0
        monkeypatch.setattr(store, "_TOUCH_INTERVAL", 0.0)
        assert cache.fetch("tune", "a") is not None
        assert manifest.stat().st_mtime > 1000.0


class TestReadonly:
    def test_serves_hits_but_never_writes(self, tmp_path):
        make_cache(tmp_path).insert("tune", "k", payloads={"x.bin": b"v"})
        ro = make_cache(tmp_path, readonly=True)
        assert ro.fetch("tune", "k") is not None
        assert not ro.insert("tune", "other", payloads={"x.bin": b"w"})
        assert not (tmp_path / "tune" / "other").exists()
        # The readonly insert still memoizes for this process.
        assert ro.fetch("tune", "other") is not None

    def test_clear_refused(self, tmp_path):
        make_cache(tmp_path).insert("tune", "k", payloads={})
        with pytest.raises(ConfigError):
            make_cache(tmp_path, readonly=True).clear()

    def test_corrupt_entry_left_in_place(self, tmp_path):
        make_cache(tmp_path).insert("tune", "k", payloads={"x.bin": b"vvvv"})
        victim = tmp_path / "tune" / "k" / "x.bin"
        victim.write_bytes(b"vv")
        ro = make_cache(tmp_path, readonly=True)
        assert ro.fetch("tune", "k") is None
        assert victim.exists()  # quarantine must not delete in readonly


class TestMaintenance:
    def test_stats_inventory(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "k1", payloads={"x.bin": b"abc"})
        cache.insert("blocked_csr", "k2", payloads={"y.bin": b"defg"})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert set(stats["artifacts"]) == {"tune", "blocked_csr"}
        assert stats["total_bytes"] > 7  # payloads plus manifests

    def test_clear_removes_everything(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "k1", payloads={"x.bin": b"abc"})
        cache.insert("tune", "k2", payloads={"x.bin": b"abc"})
        assert cache.clear() == 2
        fresh = make_cache(tmp_path)
        assert fresh.fetch("tune", "k1") is None
        assert fresh.stats()["entries"] == 0

    def test_verify_reports_and_quarantines(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "good", payloads={"x.bin": b"abcd"})
        cache.insert("tune", "bad", payloads={"x.bin": b"abcd"})
        (tmp_path / "tune" / "bad" / "x.bin").write_bytes(b"abXd")
        report = make_cache(tmp_path).verify()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == ["tune/bad"]
        assert not (tmp_path / "tune" / "bad").exists()

    def test_old_shard_scoped_entries_are_ordinary(self, tmp_path):
        """Per-stripe entries an older release wrote (``meta.shard``)
        verify, count and clear like any other entry."""
        cache = make_cache(tmp_path)
        cache.insert("blocked_csr", "stripe",
                     meta={"shard": {"col_start": 0, "col_stop": 48}},
                     payloads={"x.bin": b"abcd"})
        fresh = make_cache(tmp_path)
        assert fresh.verify() == {"checked": 1, "ok": 1, "corrupt": []}
        assert fresh.stats()["artifacts"]["blocked_csr"]["entries"] == 1
        assert fresh.clear() == 1

    def test_manifest_identity_is_checked(self, tmp_path):
        """An entry copied/renamed to the wrong key must not be served."""
        cache = make_cache(tmp_path)
        cache.insert("tune", "original", payloads={"x.bin": b"v"})
        src = tmp_path / "tune" / "original"
        dst = tmp_path / "tune" / "imposter"
        dst.mkdir()
        for f in src.iterdir():
            (dst / f.name).write_bytes(f.read_bytes())
        assert make_cache(tmp_path).fetch("tune", "imposter") is None

    def test_unknown_entry_version_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.insert("tune", "k", payloads={})
        manifest = tmp_path / "tune" / "k" / ENTRY_MANIFEST_NAME
        record = json.loads(manifest.read_text())
        record["version"] = 999
        manifest.write_text(json.dumps(record))
        assert make_cache(tmp_path).fetch("tune", "k") is None


class TestConcurrentStores:
    def test_threads_storing_the_same_keys(self, tmp_path, run_threads):
        """Threads of one process storing the same keys at once: no store
        raises, and every key is then on disk, whole."""

        def worker():
            for i in range(100):
                make_cache(tmp_path).insert(
                    "tune", f"k{i}", payloads={"x.bin": b"v" * 100})

        assert run_threads(worker) == []
        fresh = make_cache(tmp_path)
        for i in range(100):
            entry = fresh.fetch("tune", f"k{i}")
            assert entry is not None and entry.payloads["x.bin"] == b"v" * 100
