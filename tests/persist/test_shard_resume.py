"""Crash recovery across a shard-count change: SIGKILL a sharded,
checkpointing run, resume with a *different* shard count, and demand a
bit-identical sketch.

The child runs ``--shards 4`` with per-shard checkpoints; an
intervention subscriber stalls it right after the second shard merges,
so the parent SIGKILLs a process whose disk state holds two complete
shard lineages and nothing for the rest.  The parent then resumes with
``--shards 2``: the first new stripe must be re-partitioned from the two
verified old stripes (no kernel work), the second computed fresh, and
the merged sketch must equal the never-crashed unsharded run exactly.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SketchConfig
from repro.parallel import WorkerPoolConfig
from repro.plan import (
    SHARD_RESUMED,
    PartitionSpec,
    PersistencePolicy,
    Planner,
    Runtime,
)
from repro.sparse import random_sparse

_CHILD = """
import sys, time
from pathlib import Path
from repro.core import SketchConfig
from repro.plan import PartitionSpec, PersistencePolicy, Planner, Runtime, \\
    SHARD_MERGED
from repro.sparse import random_sparse

ckdir = sys.argv[1]
A = random_sparse(160, 48, 0.1, seed=13)
cfg = SketchConfig(gamma=2.0, kernel="algo4", rng_kind="philox", seed=7,
                   b_d=8, b_n=8)
rt = Runtime()

def stall(event):
    if event.get("shard") == 1:
        Path(ckdir, "CHILD_READY").touch()
        time.sleep(120)  # hold until the parent SIGKILLs us mid-run

rt.bus.subscribe(SHARD_MERGED, stall)
plan = Planner().compile(
    A, cfg, persistence=PersistencePolicy(checkpoint_dir=ckdir, every=1),
    partition=PartitionSpec(shards=4))
rt.run(plan, A)
"""


def _cfg():
    return SketchConfig(gamma=2.0, kernel="algo4", rng_kind="philox",
                        seed=7, b_d=8, b_n=8)


def _sigkill_child(tmp_path):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), env.get("PYTHONPATH", "")])
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        sentinel = tmp_path / "CHILD_READY"
        deadline = time.monotonic() + 60
        while not sentinel.exists():
            if child.poll() is not None:
                _out, err = child.communicate()
                pytest.fail(f"child exited early: {err.decode()}")
            if time.monotonic() > deadline:
                pytest.fail("child never reached its shard sentinel")
            time.sleep(0.05)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on failure
            child.kill()
            child.wait()


def test_sigkill_then_resume_with_fewer_shards_bit_identical(tmp_path):
    A = random_sparse(160, 48, 0.1, seed=13)
    _sigkill_child(tmp_path)

    # Exactly the first two shard lineages reached the disk.
    shard_dirs = sorted(p.name for p in tmp_path.glob("shard-*"))
    assert shard_dirs == ["shard-00000000-00000016",
                         "shard-00000016-00000024"]

    rt = Runtime()
    resumed_events = []
    rt.bus.subscribe_observer(SHARD_RESUMED, resumed_events.append)
    plan = Planner().compile(
        A, _cfg(),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path), every=1,
                                      resume=True),
        partition=PartitionSpec(shards=2))
    res = rt.run(plan, A)

    ref = Runtime().run(Planner().compile(A, _cfg()), A)
    np.testing.assert_array_equal(res.sketch, ref.sketch)

    # The first new stripe (0, 24) was assembled from the two old
    # stripes (0, 16) + (16, 24); the second had no prior state.
    assert len(resumed_events) == 1
    ev = resumed_events[0]
    assert ev.get("shard") == 0
    assert ev.get("repartitioned") is True
    assert ev.get("rows")  # verified completed rows carried over
    assert res.stats.extra.get("shards_resumed") == 1


def test_clean_resume_with_different_shard_count(tmp_path):
    """No crash: a completed --shards 4 run resumes under --shards 2 with
    every stripe re-partitioned from verified state, bit-identically."""
    A = random_sparse(160, 48, 0.1, seed=13)
    first = Runtime().run(Planner().compile(
        A, _cfg(),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path), every=1),
        partition=PartitionSpec(shards=4)), A)

    rt = Runtime()
    resumed_events = []
    rt.bus.subscribe_observer(SHARD_RESUMED, resumed_events.append)
    plan = Planner().compile(
        A, _cfg(),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path), every=1,
                                      resume=True),
        partition=PartitionSpec(shards=2))
    res = rt.run(plan, A)
    np.testing.assert_array_equal(res.sketch, first.sketch)
    assert len(resumed_events) == 2
    assert all(e.get("repartitioned") for e in resumed_events)
    assert res.stats.extra.get("shards_resumed") == 2


def test_legacy_unsharded_checkpoints_seed_a_sharded_resume(tmp_path):
    """Snapshots written by an unsharded run are one full-width stripe;
    a sharded resume re-partitions them instead of recomputing."""
    A = random_sparse(160, 48, 0.1, seed=13)
    first = Runtime().run(Planner().compile(
        A, _cfg(),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path),
                                      every=1)), A)

    rt = Runtime()
    resumed_events = []
    rt.bus.subscribe_observer(SHARD_RESUMED, resumed_events.append)
    plan = Planner().compile(
        A, _cfg(),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path), every=1,
                                      resume=True),
        partition=PartitionSpec(shards=3))
    res = rt.run(plan, A)
    np.testing.assert_array_equal(res.sketch, first.sketch)
    assert len(resumed_events) == 3
    assert all(e.get("repartitioned") for e in resumed_events)


@pytest.mark.parametrize("shards", [None, 2])
def test_a_process_lineage_resumes_on_the_serial_driver(tmp_path, shards):
    """The planner narrows an unpinned ``b_n`` for a worker fleet.  The
    column blocking moves no bit, so a checkpointed process run resumes
    on the serial driver, whose ``b_n`` is wider, with every row
    restored."""
    A = random_sparse(200, 60, 0.05, seed=13)
    cfg = SketchConfig(kernel="algo4", rng_kind="philox", seed=7)

    def plan(driver, **policy):
        return Planner().compile(
            A, cfg, driver=driver, partition=shards,
            pool=WorkerPoolConfig(workers=2) if driver == "process" else None,
            persistence=PersistencePolicy(checkpoint_dir=str(tmp_path),
                                          every=1, **policy))

    fleet = plan("process")
    Runtime().run(fleet, A)
    serial = plan("serial", resume=True)
    assert serial.b_n != fleet.b_n
    res = Runtime().run(serial, A)
    assert res.stats.extra["resumed_from"] is not None
    ref = Runtime().run(Planner().compile(A, cfg, driver="serial"), A)
    np.testing.assert_array_equal(res.sketch, ref.sketch)
