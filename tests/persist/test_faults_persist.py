"""Injected storage faults (torn_write / bitflip) against the snapshot path."""

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.core.streaming import StreamingSketch
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import InjectedCrashError, InjectedFaultError
from repro.persist import (
    CheckpointManager,
    latest_verified_snapshot,
    list_snapshots,
    load_snapshot,
    resume_streaming,
    verify_snapshot,
)
from repro.plan import PersistencePolicy, Planner, Runtime
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse


@pytest.fixture
def A():
    return random_sparse(80, 30, 0.15, seed=5)


def _injected_manager(tmp_path, *specs, keep=10):
    inj = FaultInjector(FaultPlan(specs))
    return CheckpointManager(tmp_path, keep=keep, injector=inj), inj


def _stream(A, ck, *, batch=16, stop_after=None):
    st = StreamingSketch(12, A.shape[1], make_rng("philox", 9), kernel="algo3",
                         b_d=4, b_n=8, persistence=PersistencePolicy(
                             manager=ck, every=batch))
    dense = A.to_dense()
    n_batches = 0
    for s in range(0, A.shape[0], batch):
        st.absorb(CSCMatrix.from_dense(dense[s:s + batch]))
        n_batches += 1
        if stop_after is not None and n_batches >= stop_after:
            break
    return st


def _engine(A, *, persistence=None, injector=None, resilience=None):
    cfg = SketchConfig(rng_kind="philox", seed=9, kernel="algo3", b_d=4,
                       b_n=8, threads=2, resilience=resilience)
    plan = Planner().compile(A, cfg, d=12, driver="engine",
                             persistence=persistence)
    result = Runtime().run(plan, A, injector=injector)
    return result.sketch, result.stats


class TestBitflip:
    def test_colluding_bitflip_survives_checksums_but_not_replay(
            self, tmp_path, A):
        # Target block 0 of the final snapshot (seq 5: 80 rows / 16 batch).
        ck, inj = _injected_manager(
            tmp_path, FaultSpec(kind="bitflip", task=(5, 0)))
        _stream(A, ck)
        assert inj.events_by_kind() == {"bitflip": 1}

        # The collusion defeats checksum verification...
        snap = latest_verified_snapshot(tmp_path)
        assert snap.seq == 5
        load_snapshot(snap.path)  # does not raise

        # ...but the replay audit quarantines the corrupted row block.
        report = verify_snapshot(snap.path, A, exhaustive=True)
        assert not report.ok
        assert 0 in report.quarantined_row_offsets

    def test_repair_then_resume_is_bit_identical(self, tmp_path, A):
        ck, _inj = _injected_manager(
            tmp_path, FaultSpec(kind="bitflip", task=(5, 0)))
        ref = _stream(A, ck)
        snap = latest_verified_snapshot(tmp_path)
        report = verify_snapshot(snap.path, A, exhaustive=True, repair=True)
        assert report.repaired_path is not None
        resumed = resume_streaming(tmp_path)
        np.testing.assert_array_equal(resumed.sketch, ref.sketch)


class TestTornWrite:
    def test_crash_mid_snapshot_falls_back_to_previous(self, tmp_path, A):
        ck, inj = _injected_manager(
            tmp_path, FaultSpec(kind="torn_write", task=(3, 0)))
        with pytest.raises(InjectedCrashError):
            _stream(A, ck)
        assert inj.events_by_kind() == {"torn_write": 1}

        # The torn snapshot is on disk but must never verify.
        seqs = [seq for seq, _ in list_snapshots(tmp_path)]
        assert 3 in seqs
        snap = latest_verified_snapshot(tmp_path)
        assert snap.seq == 2

        resumed = resume_streaming(tmp_path)
        assert resumed.rows_seen == 32
        dense = A.to_dense()
        for s in range(32, A.shape[0], 16):
            resumed.absorb(CSCMatrix.from_dense(dense[s:s + 16]))

        clean = _stream(A, CheckpointManager(tmp_path / "clean"))
        np.testing.assert_array_equal(resumed.sketch, clean.sketch)

    def test_next_save_skips_past_torn_seq(self, tmp_path, A):
        ck, _inj = _injected_manager(
            tmp_path, FaultSpec(kind="torn_write", task=(2, 0)))
        with pytest.raises(InjectedCrashError):
            _stream(A, ck)
        resumed = resume_streaming(tmp_path)
        dense = A.to_dense()
        resumed.absorb(CSCMatrix.from_dense(dense[16:32]))
        resumed.save_checkpoint()
        # The damaged snapshot-2 dir still exists; the new snapshot must
        # take a fresh sequence number, not collide with it.
        assert resumed.checkpoint.last_seq == 3
        assert latest_verified_snapshot(tmp_path).seq == 3


class TestExecutorCrash:
    def test_crash_is_not_swallowed_by_retry_machinery(self, tmp_path, A):
        """A torn_write during an executor checkpoint must surface as a
        crash, not be retried away as a transient task failure."""
        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="torn_write", task=(1, 0))]))
        with pytest.raises(InjectedCrashError):
            _engine(A, persistence=PersistencePolicy(
                checkpoint_dir=str(tmp_path)), injector=inj)
        assert inj.events_by_kind() == {"torn_write": 1}

        ref, _ = _engine(A)
        out, stats = _engine(A, persistence=PersistencePolicy(
            checkpoint_dir=str(tmp_path), resume=True))
        np.testing.assert_array_equal(out, ref)

    def test_plain_injected_faults_stay_retryable(self, tmp_path, A):
        """Sanity: ordinary 'raise' faults are still absorbed by retries
        even on a checkpointed run."""
        from repro.parallel import ResilienceConfig

        inj = FaultInjector(FaultPlan([
            FaultSpec(kind="raise", task=(0, 0), max_hits=1)]))
        ref, _ = _engine(A)
        out, stats = _engine(
            A, persistence=PersistencePolicy(checkpoint_dir=str(tmp_path)),
            injector=inj, resilience=ResilienceConfig(max_retries=2))
        np.testing.assert_array_equal(out, ref)
        assert inj.events_by_kind() == {"raise": 1}


class TestCrashErrorHierarchy:
    def test_crash_is_an_injected_fault(self):
        assert issubclass(InjectedCrashError, InjectedFaultError)
