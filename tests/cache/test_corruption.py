"""Damaged cache entries: loud detection, clean recompute, right answers.

The failure contract under test is the inverse of the checkpoint
subsystem's — a cache is an optimization, so corruption must cost a
recompute and a WARNING, never an exception and never a wrong answer.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ArtifactCache, CachePolicy
from repro.cache.artifacts import (
    blocked_csr_key,
    fetch_blocked_csr,
    store_blocked_csr,
)
from repro.cache.store import ENTRY_MANIFEST_NAME
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sparse import csc_to_blocked_csr, random_sparse


@pytest.fixture
def A():
    return random_sparse(120, 40, 0.08, seed=31)


def _store_blocked(tmp_path, A, *, injector=None):
    cache = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)),
                          injector=injector)
    key = blocked_csr_key(A, 8)
    store_blocked_csr(cache, key, csc_to_blocked_csr(A, 8)[0], b_n=8)
    return key


def _assert_recovers(tmp_path, A, key, caplog):
    """A fresh cache must miss loudly, and a recompute-and-restore cycle
    must produce the bit-identical conversion."""
    fresh = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert fetch_blocked_csr(fresh, key, A.shape) is None
    assert any("corrupt" in rec.message for rec in caplog.records)
    assert fresh.misses == {"blocked_csr": 1}
    # The damaged entry was quarantined, so the recompute heals the cache.
    blocked, _ = csc_to_blocked_csr(A, 8)
    store_blocked_csr(fresh, key, blocked, b_n=8)
    healed = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
    roundtrip = fetch_blocked_csr(healed, key, A.shape)
    assert roundtrip is not None
    ref, _ = csc_to_blocked_csr(A, 8)
    np.testing.assert_array_equal(roundtrip.block_starts, ref.block_starts)
    for got, want in zip(roundtrip.blocks, ref.blocks):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


class TestDirectDamage:
    def test_bitflip_detected(self, tmp_path, A, caplog):
        key = _store_blocked(tmp_path, A)
        victim = tmp_path / "blocked_csr" / key / "data.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victim.write_bytes(bytes(raw))
        _assert_recovers(tmp_path, A, key, caplog)

    def test_truncation_detected(self, tmp_path, A, caplog):
        key = _store_blocked(tmp_path, A)
        victim = tmp_path / "blocked_csr" / key / "indices.npy"
        victim.write_bytes(victim.read_bytes()[:10])
        _assert_recovers(tmp_path, A, key, caplog)

    def test_garbage_manifest_detected(self, tmp_path, A, caplog):
        key = _store_blocked(tmp_path, A)
        (tmp_path / "blocked_csr" / key / ENTRY_MANIFEST_NAME) \
            .write_text("{not json")
        _assert_recovers(tmp_path, A, key, caplog)

    def test_missing_payload_detected(self, tmp_path, A, caplog):
        key = _store_blocked(tmp_path, A)
        (tmp_path / "blocked_csr" / key / "indptr.npy").unlink()
        _assert_recovers(tmp_path, A, key, caplog)


class TestInjectedDamage:
    """The same damage, driven by the deterministic fault machinery."""

    def test_injected_bitflip(self, tmp_path, A, caplog):
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="bitflip", kernel="cache", task=(1, 0))]))
        key = _store_blocked(tmp_path, A, injector=inj)
        assert inj.events_by_kind() == {"bitflip": 1}
        _assert_recovers(tmp_path, A, key, caplog)

    def test_injected_torn_write(self, tmp_path, A, caplog):
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", kernel="cache", task=(1, 0))]))
        key = _store_blocked(tmp_path, A, injector=inj)
        assert inj.events_by_kind() == {"torn_write": 1}
        _assert_recovers(tmp_path, A, key, caplog)

    def test_fault_addresses_store_order(self, tmp_path, A):
        """task=(seq, 0) counts entry stores; the second store is hit,
        the first survives intact."""
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="bitflip", kernel="cache", task=(2, 0))]))
        cache = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)),
                              injector=inj)
        cache.insert("tune", "first", payloads={"x.bin": b"aaaa"})
        cache.insert("tune", "second", payloads={"x.bin": b"bbbb"})
        fresh = ArtifactCache(CachePolicy(cache_dir=str(tmp_path)))
        assert fresh.fetch("tune", "first") is not None
        assert fresh.fetch("tune", "second") is None


#: One ``sketch()`` of the ``A`` fixture in a fresh interpreter, through a
#: cache at argv[1], saving the sketch to argv[2]; ``repro.cache`` log
#: records go to stderr.
_CHILD_SKETCH = """
import logging, sys
import numpy as np
from repro.cache import CachePolicy
from repro.core import SketchConfig, sketch
from repro.sparse import random_sparse

logging.basicConfig(level=logging.WARNING, format="%(name)s %(message)s")
A = random_sparse(120, 40, 0.08, seed=31)
cfg = SketchConfig(gamma=2.0, seed=3, kernel="algo4")
result = sketch(A, config=cfg, cache=CachePolicy(cache_dir=sys.argv[1]))
np.save(sys.argv[2], result.sketch)
"""


def _sketch_in_new_process(cache_dir, out):
    """The child's sketch and its ``repro.cache`` log lines."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SKETCH, str(cache_dir), str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True)
    log = [line for line in proc.stderr.splitlines()
           if line.startswith("repro.cache ")]
    return np.load(out), log


def _flip_blocked_payloads(cache_dir):
    """Flip one payload bit in every cached blocked-CSR entry."""
    victims = list((cache_dir / "blocked_csr").glob("*/data.npy"))
    assert victims
    for victim in victims:
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victim.write_bytes(bytes(raw))


class TestEndToEndFallback:
    def test_sketch_after_corruption_is_bit_identical(self, tmp_path, A):
        """A damaged blocked-CSR entry must not change the sketch: the
        warm run falls back to a recompute and matches the cold run.  The
        warm and healed runs are new processes, the first to read the
        entry after the damage (this process keeps the entry it verified
        in its memo)."""
        from repro.core import SketchConfig, sketch

        cache_dir = tmp_path / "cache"
        cfg = SketchConfig(gamma=2.0, seed=3, kernel="algo4")
        cold = sketch(A, config=cfg,
                      cache=CachePolicy(cache_dir=str(cache_dir)))
        _flip_blocked_payloads(cache_dir)
        warm, log = _sketch_in_new_process(cache_dir, tmp_path / "warm.npy")
        assert any("corrupt" in line for line in log)
        np.testing.assert_array_equal(warm, cold.sketch)
        # The fallback healed the entry: the next run hits cleanly.
        healed, log = _sketch_in_new_process(cache_dir,
                                             tmp_path / "healed.npy")
        assert not any("corrupt" in line for line in log)
        np.testing.assert_array_equal(healed, cold.sketch)

    def test_damage_after_verification_keeps_this_process_right(
            self, tmp_path, A, caplog):
        """Within one process a warm call is served the object verified
        before the damage, so it still returns the cold bits; the damage
        waits for the next reader, here the offline audit."""
        from repro.core import SketchConfig, sketch

        cfg = SketchConfig(gamma=2.0, seed=3, kernel="algo4")
        cold = sketch(A, config=cfg,
                      cache=CachePolicy(cache_dir=str(tmp_path)))
        _flip_blocked_payloads(tmp_path)
        warm = sketch(A, config=cfg,
                      cache=CachePolicy(cache_dir=str(tmp_path)))
        np.testing.assert_array_equal(warm.sketch, cold.sketch)
        assert warm.stats.extra["blocked_csr_source"] == "cache"
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            report = ArtifactCache(CachePolicy(cache_dir=str(tmp_path))
                                   ).verify()
        assert [c.split("/")[0] for c in report["corrupt"]] \
            == ["blocked_csr"]
        assert any("corrupt" in rec.message for rec in caplog.records)
