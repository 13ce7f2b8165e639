"""Resuming streaming sketches from verified-good snapshots."""

import numpy as np
import pytest

from repro.core.streaming import StreamingSketch
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
)
from repro.persist import (
    latest_verified_snapshot,
    list_snapshots,
    resume_streaming,
    try_resume_streaming,
)
from repro.plan import PersistencePolicy
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse


def _batches(A: CSCMatrix, size: int):
    dense = A.to_dense()
    return [CSCMatrix.from_dense(dense[s:s + size])
            for s in range(0, A.shape[0], size)]


@pytest.fixture
def A():
    return random_sparse(96, 24, 0.15, seed=3)


def _one_shot(A, d=10, family="philox"):
    st = StreamingSketch(d, A.shape[1], make_rng(family, 7), kernel="algo3")
    for b in _batches(A, 16):
        st.absorb(b)
    return st


class TestResume:
    @pytest.mark.parametrize("family", ["philox", "xoshiro"])
    def test_bit_identical_after_interrupt(self, tmp_path, A, family):
        ref = _one_shot(A, family=family)

        st = StreamingSketch(10, A.shape[1], make_rng(family, 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=16))
        batches = _batches(A, 16)
        for b in batches[:3]:
            st.absorb(b)
        del st  # "crash" after three batches (snapshots are on disk)

        resumed = resume_streaming(tmp_path)
        assert resumed.rows_seen == 48
        assert resumed.resumed_from is not None
        for b in batches[3:]:
            resumed.absorb(b)
        np.testing.assert_array_equal(resumed.sketch, ref.sketch)

    def test_falls_back_past_damaged_newest(self, tmp_path, A):
        st = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=16,
                                 keep=4))
        batches = _batches(A, 16)
        for b in batches[:3]:
            st.absorb(b)
        snaps = list_snapshots(tmp_path)
        assert len(snaps) == 3
        newest = snaps[-1][1]
        bfile = next(newest.glob("block-*.npy"))
        bfile.write_bytes(bfile.read_bytes()[:10])  # torn at rest

        snap = latest_verified_snapshot(tmp_path)
        assert snap.seq == snaps[-2][0]
        resumed = resume_streaming(tmp_path)
        assert resumed.rows_seen == 32
        for b in batches[2:]:
            resumed.absorb(b)
        np.testing.assert_array_equal(resumed.sketch, _one_shot(A).sketch)

    def test_all_damaged_raises_listing_failures(self, tmp_path, A):
        st = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=16))
        for b in _batches(A, 16)[:2]:
            st.absorb(b)
        for _seq, path in list_snapshots(tmp_path):
            bfile = next(path.glob("block-*.npy"))
            bfile.write_bytes(bfile.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptionError):
            resume_streaming(tmp_path)

    def test_empty_dir(self, tmp_path):
        assert try_resume_streaming(tmp_path) is None
        assert latest_verified_snapshot(tmp_path) is None
        with pytest.raises(CheckpointError, match="no snapshot"):
            resume_streaming(tmp_path)

    def test_config_drift_is_loud(self, tmp_path, A):
        st = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=16))
        for b in _batches(A, 16)[:2]:
            st.absorb(b)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            resume_streaming(tmp_path, expect={"seed": 8})
        with pytest.raises(CheckpointMismatchError, match="kernel"):
            resume_streaming(tmp_path, expect={"kernel": "algo4"})
        # the matching expectation resumes fine
        resumed = resume_streaming(tmp_path,
                                   expect={"seed": 7, "kernel": "algo3"})
        assert resumed.rows_seen == 32

    def test_foreign_backend_is_refused(self, tmp_path, A, monkeypatch):
        # A snapshot whose fingerprint names a backend other than numpy
        # comes from another build: neither resume nor the replay audit
        # may trust it.
        from repro.errors import ConfigError
        from repro.persist import verify_snapshot

        st = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path), every=16))
        monkeypatch.setattr(st, "fingerprint",
                            lambda: {**type(st).fingerprint(st),
                                     "backend": "numba"})
        st.absorb(_batches(A, 16)[0])
        with pytest.raises(CheckpointMismatchError, match="backend"):
            resume_streaming(tmp_path)
        with pytest.raises(ConfigError, match="backend"):
            verify_snapshot(tmp_path, A)

    def test_entry_mode_round_trip(self, tmp_path, A):
        coo = A.to_coo()
        ref = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                              kernel="algo3")
        ref.absorb_entries(coo.rows, coo.cols, coo.vals)

        st = StreamingSketch(10, A.shape[1], make_rng("philox", 7),
                             kernel="algo3",
                             persistence=PersistencePolicy(
                                 checkpoint_dir=str(tmp_path)))
        half = coo.rows.size // 2
        st.absorb_entries(coo.rows[:half], coo.cols[:half], coo.vals[:half])
        st.save_checkpoint()
        del st

        resumed = resume_streaming(tmp_path)
        resumed.absorb_entries(coo.rows[half:], coo.cols[half:],
                               coo.vals[half:])
        np.testing.assert_allclose(resumed.sketch, ref.sketch, rtol=1e-12)
