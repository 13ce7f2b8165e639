"""RNG-replay integrity audits: detection, quarantine, and repair."""

import json

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.core.streaming import StreamingSketch
from repro.persist import (
    MANIFEST_NAME,
    CheckpointManager,
    latest_verified_snapshot,
    load_snapshot,
    resume_streaming,
    verify_snapshot,
)
from repro.persist.checksum import checksum_bytes
from repro.plan import PersistencePolicy, Planner, Runtime
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse


@pytest.fixture
def A():
    return random_sparse(80, 30, 0.15, seed=5)


def _checkpointed_stream(A, tmp_path, *, family="philox", batch=16):
    st = StreamingSketch(12, A.shape[1], make_rng(family, 9), kernel="algo3",
                         b_d=4, b_n=8, persistence=PersistencePolicy(
                             checkpoint_dir=str(tmp_path), every=batch))
    dense = A.to_dense()
    for s in range(0, A.shape[0], batch):
        st.absorb(CSCMatrix.from_dense(dense[s:s + batch]))
    return st


def _collude_flip(snapshot_dir, byte_offset=200):
    """Flip a payload byte AND patch the manifest checksum — the damage a
    checksum pass cannot see."""
    mpath = snapshot_dir / MANIFEST_NAME
    manifest = json.loads(mpath.read_text())
    block = manifest["blocks"][0]
    bfile = snapshot_dir / block["file"]
    data = bytearray(bfile.read_bytes())
    data[min(byte_offset, len(data) - 1)] ^= 0x04
    bfile.write_bytes(bytes(data))
    block["checksum"] = checksum_bytes(bytes(data), manifest["checksum_algo"])
    block["nbytes"] = len(data)
    mpath.write_text(json.dumps(manifest))
    return int(block["row_offset"])


class TestVerify:
    @pytest.mark.parametrize("family", ["philox", "xoshiro"])
    def test_clean_snapshot_passes_exhaustive_replay(self, tmp_path, A, family):
        _checkpointed_stream(A, tmp_path, family=family)
        report = verify_snapshot(tmp_path, A, exhaustive=True)
        assert report.ok
        assert report.method == "replay"
        assert report.tiles_audited == report.tiles_total
        assert not report.quarantined_row_offsets

    def test_sampled_audit_is_cheaper(self, tmp_path, A):
        _checkpointed_stream(A, tmp_path)
        full = verify_snapshot(tmp_path, A, exhaustive=True)
        sampled = verify_snapshot(tmp_path, A)
        assert sampled.ok
        assert sampled.tiles_audited < full.tiles_audited

    def test_colluding_bitflip_caught_only_by_replay(self, tmp_path, A):
        _checkpointed_stream(A, tmp_path)
        snap_dir = latest_verified_snapshot(tmp_path).path
        bad_row = _collude_flip(snap_dir)

        # checksums still pass: the corruption colludes with the manifest
        load_snapshot(snap_dir)  # does not raise

        report = verify_snapshot(snap_dir, A, exhaustive=True)
        assert not report.ok
        assert bad_row in report.quarantined_row_offsets

    def test_repair_recomputes_quarantined_blocks(self, tmp_path, A):
        ref = _checkpointed_stream(A, tmp_path)
        snap_dir = latest_verified_snapshot(tmp_path).path
        _collude_flip(snap_dir)

        report = verify_snapshot(snap_dir, A, exhaustive=True, repair=True)
        assert not report.ok
        assert report.repaired_path is not None

        healed = verify_snapshot(report.repaired_path, A, exhaustive=True)
        assert healed.ok
        resumed = resume_streaming(tmp_path)
        np.testing.assert_array_equal(resumed.sketch, ref.sketch)

    def test_checksum_only_without_matrix(self, tmp_path, A):
        _checkpointed_stream(A, tmp_path)
        report = verify_snapshot(tmp_path, None)
        assert report.ok
        assert report.method == "checksum-only"

    def test_entry_mode_downgrades_to_checksum_only(self, tmp_path, A):
        coo = A.to_coo()
        st = StreamingSketch(12, A.shape[1], make_rng("philox", 9),
                             kernel="algo3", persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path)))
        st.absorb_entries(coo.rows, coo.cols, coo.vals)
        st.save_checkpoint()
        report = verify_snapshot(tmp_path, A)
        assert report.ok
        assert report.method == "checksum-only"

    def test_blocked_mode_snapshot_verifies(self, tmp_path, A):
        ck = CheckpointManager(tmp_path)
        cfg = SketchConfig(rng_kind="philox", seed=9, kernel="algo3",
                           b_d=4, b_n=8, threads=2)
        plan = Planner().compile(A, cfg, d=12, driver="engine",
                                 persistence=PersistencePolicy(manager=ck))
        Runtime().run(plan, A)
        report = verify_snapshot(tmp_path, A, exhaustive=True)
        assert report.ok
        assert report.mode == "blocked"
        assert report.method == "replay"

    def test_wrong_matrix_is_detected(self, tmp_path, A):
        _checkpointed_stream(A, tmp_path)
        other = random_sparse(80, 30, 0.15, seed=6)
        report = verify_snapshot(tmp_path, other, exhaustive=True)
        assert not report.ok
