"""The checkpoint owner of a blocked run, driven directly.

:class:`repro.persist.shards.StripeCheckpoints` persists a row block
only once its last column tile committed, on its ``every`` cadence and
once more when the stripe is sealed, and a resume hands back exactly the
tasks of the rows still unfinished.  Commits arrive here in any order,
as they do from the scheduler's rungs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.kernels import iter_block_tasks
from repro.parallel import RunHealth
from repro.persist import latest_verified_snapshot
from repro.persist.shards import StripeCheckpoints, stripe_dir
from repro.plan import (
    CHECKPOINT_WRITTEN,
    EventBus,
    PartitionSpec,
    PersistencePolicy,
    Planner,
    compute_shards,
)
from repro.plan.runtime import Stripes
from repro.sparse import random_sparse

D, B_D, B_N = 12, 4, 10   # row blocks 0, 4, 8 x column tiles 0, 10, 20


@pytest.fixture(scope="module")
def A():
    return random_sparse(60, 30, 0.1, seed=3)


def owner(A, tmp_path, *, every=1, resume=False, partition=None,
          health=None):
    plan = Planner().compile(
        A, SketchConfig(kernel="algo3", seed=5, b_d=B_D, b_n=B_N), d=D,
        driver="engine", partition=partition,
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path),
                                      every=every, resume=resume))
    bus = EventBus()
    saves = []
    bus.subscribe(CHECKPOINT_WRITTEN, lambda e: saves.append(e.get("rows")))
    shards = () if partition is None else compute_shards(
        partition, n=A.shape[1], b_n=B_N)
    stripes = Stripes(plan, bus, shards)
    return StripeCheckpoints(plan, plan.rng_factory()(0), stripes, bus,
                             health=health), stripes, saves


def tasks():
    return list(iter_block_tasks(D, 30, B_D, B_N))


def accumulator():
    return np.asfortranarray(np.arange(D * 30, dtype=np.float64)
                             .reshape(D, 30))


def test_a_row_block_is_saved_only_after_its_last_tile(A, tmp_path):
    ck, _stripes, saves = owner(A, tmp_path)
    out = accumulator()
    left, resumed = ck.enter(0, tasks(), out)
    assert resumed is None and len(left) == 9
    # Out of order: two tiles of row 4, one of row 0, the last of row 4.
    for i in (4, 4, 0):
        ck.commit(i)
    assert saves == []
    ck.commit(4)
    assert saves == [[4]]
    snap = latest_verified_snapshot(tmp_path)
    assert snap.state["completed_rows"] == [4]
    np.testing.assert_array_equal(snap.load_array()[4:8], out[4:8])
    for i in (8, 0, 8, 0, 8):
        ck.commit(i)
    assert saves == [[4], [0, 4], [0, 4, 8]]
    ck.seal()  # nothing new since the last save
    assert len(saves) == 3 and ck.snapshots_written == 3


def test_every_sets_the_cadence(A, tmp_path):
    ck, _stripes, saves = owner(A, tmp_path, every=2)
    ck.enter(0, tasks(), accumulator())
    for i, _d1, _j, _n1 in tasks():  # column-outer: rows finish at the end
        ck.commit(i)
    # Rows 0 and 4 complete together on the cadence; row 8 waits.
    assert saves == [[0, 4]]


def test_seal_forces_the_final_save(A, tmp_path):
    ck, _stripes, saves = owner(A, tmp_path, every=5)
    out = accumulator()
    ck.enter(0, tasks(), out)
    for i in (0, 0, 0, 8):
        ck.commit(i)
    assert saves == []
    ck.seal()
    assert saves == [[0]]
    stats = SimpleNamespace(extra={})
    ck.record(stats)
    assert stats.extra == {"snapshots_written": 1, "resumed_from": None}


def test_resume_returns_exactly_the_unfinished_rows(A, tmp_path):
    ck, _stripes, _saves = owner(A, tmp_path)
    out = accumulator()
    ck.enter(0, tasks(), out)
    for i in (0, 8, 0, 8, 0, 8, 4):
        ck.commit(i)

    again, _stripes, _saves = owner(A, tmp_path, resume=True)
    fresh = np.zeros((D, 30), order="F")
    left, resumed = again.enter(0, tasks(), fresh)
    assert left == [t for t in tasks() if t[0] == 4]
    assert resumed["rows"] == 2 and not resumed["repartitioned"]
    np.testing.assert_array_equal(fresh[0:4], out[0:4])
    np.testing.assert_array_equal(fresh[8:12], out[8:12])
    assert not fresh[4:8].any()


def test_a_lineage_with_no_verifiable_snapshot_is_recomputed(A, tmp_path):
    ck, _stripes, _saves = owner(A, tmp_path)
    ck.enter(0, tasks(), accumulator())
    for i, _d1, _j, _n1 in tasks():
        ck.commit(i)
    for payload in tmp_path.glob("snapshot-*/block-*.npy"):
        payload.write_bytes(payload.read_bytes()[:10])  # tear every one

    health = RunHealth()
    again, _stripes, _saves = owner(A, tmp_path, resume=True, health=health)
    left, resumed = again.enter(0, tasks(), np.zeros((D, 30), order="F"))
    assert left == tasks() and resumed is None
    assert len(health.decisions) == 1
    assert str(tmp_path) in health.decisions[0]
    assert "recomputed" in health.decisions[0]


def test_each_stripe_has_its_own_lineage(A, tmp_path):
    ck, stripes, saves = owner(
        A, tmp_path, partition=PartitionSpec(shards=3))
    out = accumulator()
    for k, (c0, c1) in enumerate(stripes.bounds):
        group = tasks()[stripes.tasks(k)]
        left, _resumed = ck.enter(k, group, out)
        assert left == group
        for i, _d1, _j, _n1 in group:
            ck.commit(i)
        ck.seal()
        snap = latest_verified_snapshot(stripe_dir(tmp_path, c0, c1))
        assert snap.fingerprint["shard_col_start"] == c0
        np.testing.assert_array_equal(snap.load_array(), out[:, c0:c1])
    assert ck.snapshots_written == len(saves) == 9
