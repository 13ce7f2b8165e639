"""Atomic snapshot write/load, manifest verification, and retention."""

import json

import numpy as np
import pytest

from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
)
from repro.persist import (
    MANIFEST_NAME,
    CheckpointManager,
    check_fingerprint,
    list_snapshots,
    load_snapshot,
    run_fingerprint,
    write_snapshot,
)


def _fp(**overrides):
    base = dict(mode="streaming", d=8, n=6, b_d=8, b_n=6, kernel="algo3",
                rng_kind="philox", seed=7, distribution="uniform")
    base.update(overrides)
    return run_fingerprint(**base)


def _blocks(d=8, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return [(0, rng.standard_normal((d, n)))]


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        blocks = _blocks()
        state = {"rows_seen": 12, "batches": [[0, 12]]}
        path = write_snapshot(tmp_path, 1, blocks, _fp(), state)
        snap = load_snapshot(path)
        assert snap.seq == 1
        assert snap.fingerprint == _fp()
        assert snap.state == state
        np.testing.assert_array_equal(snap.load_array(), blocks[0][1])

    def test_partial_blocks_fill_zeros(self, tmp_path):
        arr = np.ones((4, 6))
        path = write_snapshot(tmp_path, 1, [(4, arr)], _fp(), {})
        out = load_snapshot(path).load_array()
        assert out.shape == (8, 6)
        np.testing.assert_array_equal(out[:4], 0.0)
        np.testing.assert_array_equal(out[4:], arr)

    def test_refuses_existing_seq(self, tmp_path):
        write_snapshot(tmp_path, 3, _blocks(), _fp(), {})
        with pytest.raises(CheckpointError, match="already exists"):
            write_snapshot(tmp_path, 3, _blocks(), _fp(), {})

    def test_tmp_dirs_invisible_to_listing(self, tmp_path):
        write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        torn = tmp_path / ".snapshot-00000002.tmp-999"
        torn.mkdir()
        (torn / "block-r00000000.npy").write_bytes(b"garbage")
        assert [seq for seq, _ in list_snapshots(tmp_path)] == [1]


class TestDamageDetection:
    def test_torn_block_file_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        bfile = next(path.glob("block-*.npy"))
        data = bfile.read_bytes()
        bfile.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptionError, match="torn write"):
            load_snapshot(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        bfile = next(path.glob("block-*.npy"))
        data = bytearray(bfile.read_bytes())
        data[-1] ^= 0xFF  # same length, different content
        bfile.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptionError, match="checksum mismatch"):
            load_snapshot(path)

    def test_torn_manifest_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        mpath = path / MANIFEST_NAME
        mpath.write_text(mpath.read_text()[:40])
        with pytest.raises(CheckpointCorruptionError, match="JSON"):
            load_snapshot(path)

    def test_missing_manifest_key_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        mpath = path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        del manifest["fingerprint"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptionError, match="fingerprint"):
            load_snapshot(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        mpath = path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptionError, match="version"):
            load_snapshot(path)

    def test_unknown_checksum_algo_is_loud(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        mpath = path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        manifest["checksum_algo"] = "no-such-algo"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_snapshot(path)

    def test_shape_drift_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, 1, _blocks(), _fp(), {})
        mpath = path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        manifest["blocks"][0]["rows"] = 5
        # keep nbytes/checksum honest so only the shape check can fire
        mpath.write_text(json.dumps(manifest))
        snap = load_snapshot(path, verify=False)
        with pytest.raises(CheckpointCorruptionError, match="shape"):
            snap.load_block(snap.manifest["blocks"][0], verify=False)


class TestFingerprint:
    def test_equal_passes(self):
        check_fingerprint(_fp(), _fp())

    def test_drift_reports_every_key(self):
        with pytest.raises(CheckpointMismatchError) as err:
            check_fingerprint(_fp(), _fp(seed=8, kernel="algo4"))
        assert "seed" in str(err.value)
        assert "kernel" in str(err.value)

    def test_partial_keys_ignore_unpinned_drift(self):
        check_fingerprint(_fp(), _fp(seed=8), keys=("kernel", "d"))
        with pytest.raises(CheckpointMismatchError):
            check_fingerprint(_fp(), _fp(seed=8), keys=("seed",))


class TestCheckpointManager:
    def test_sequencing_and_retention(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for _ in range(4):
            mgr.save(_blocks(), _fp(), {})
        assert mgr.last_seq == 4
        assert mgr.snapshots_written == 4
        assert [seq for seq, _ in list_snapshots(tmp_path)] == [3, 4]

    def test_resumes_numbering_from_disk(self, tmp_path):
        CheckpointManager(tmp_path).save(_blocks(), _fp(), {})
        mgr2 = CheckpointManager(tmp_path)
        assert mgr2.last_seq == 1
        mgr2.save(_blocks(), _fp(), {})
        assert mgr2.last_seq == 2

    def test_damaged_leftover_cannot_collide(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=10)
        mgr.save(_blocks(), _fp(), {})
        # A crashed writer (or another process) left a higher-seq dir.
        leftover = tmp_path / "snapshot-00000005"
        leftover.mkdir()
        path = mgr.save(_blocks(), _fp(), {})
        assert path.name == "snapshot-00000006"

    def test_gcs_stale_tmp_dirs(self, tmp_path):
        torn = tmp_path / ".snapshot-00000001.tmp-12345"
        torn.mkdir(parents=True)
        CheckpointManager(tmp_path)
        assert not torn.exists()

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep"):
            CheckpointManager(tmp_path, keep=0)
