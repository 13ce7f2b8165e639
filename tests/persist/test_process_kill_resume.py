"""SIGKILL a checkpointing ``process``-driver run, then resume it.

The child process runs a ``driver="process"`` plan that writes a durable
snapshot after every finished row block.  After its second snapshot it
drops a sentinel naming its worker PIDs and idles inside the event
handler, with the fleet idle and waiting for its next task; the parent
SIGKILLs it, exactly like a node failure.  Its workers must not outlive
it (they would hold the shared segments forever), and a resumed run
must be bit-identical to the uninterrupted serial one.
"""

import json
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
from repro.plan import PersistencePolicy, Planner, Runtime
from repro.sparse import random_sparse

D = 36  # 3 row blocks of 12: two snapshots leave one to resume
CONFIG = dict(kernel="algo3", rng_kind="philox", seed=9, b_d=12, b_n=10)

_CHILD = """
import json, os, sys, time
from pathlib import Path
from repro.core import SketchConfig
from repro.parallel import WorkerPoolConfig
from repro.plan import (CHECKPOINT_WRITTEN, WORKER_SPAWNED,
                        PersistencePolicy, Planner, Runtime)
from repro.sparse import random_sparse

ckdir, config = sys.argv[1], json.loads(sys.argv[2])
A = random_sparse(120, 30, 0.1, seed=301)
plan = Planner().compile(
    A, SketchConfig(**config), d=%d, driver="process",
    pool=WorkerPoolConfig(workers=2, start_method="fork"),
    persistence=PersistencePolicy(checkpoint_dir=ckdir, every=1))
rt = Runtime()
pids = []
rt.bus.subscribe(WORKER_SPAWNED, lambda e: pids.append(e["pid"]))

def on_snapshot(event):
    if event["snapshots_written"] == 2:
        maps = Path("/proc/self/maps").read_text()
        segments = sorted({line.rsplit("/", 1)[1] for line in
                           maps.splitlines() if "/dev/shm/psm_" in line})
        tmp = Path(ckdir, "CHILD_READY.tmp")
        tmp.write_text(json.dumps({"workers": pids, "segments": segments}))
        os.replace(tmp, Path(ckdir, "CHILD_READY"))
        time.sleep(120)  # hold the run until the parent SIGKILLs it

rt.bus.subscribe(CHECKPOINT_WRITTEN, on_snapshot)
rt.run(plan, A)
""" % D


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie awaiting its reaper counts as
    gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return True
    return state.split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/maps").exists()
                    or not Path("/dev/shm").is_dir(),
                    reason="needs /proc and /dev/shm")
def test_sigkilled_process_run_leaves_no_workers_and_resumes(tmp_path):
    A = random_sparse(120, 30, 0.1, seed=301)
    cfg = SketchConfig(**CONFIG)
    ref = Runtime().run(Planner().compile(A, cfg, d=D, driver="serial"),
                        A).sketch

    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), env.get("PYTHONPATH", "")])
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path), json.dumps(CONFIG)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    workers: list[int] = []
    try:
        sentinel = tmp_path / "CHILD_READY"
        deadline = time.monotonic() + 60
        while not sentinel.exists():
            if child.poll() is not None:
                _out, err = child.communicate()
                pytest.fail(f"child exited early: {err.decode()}")
            if time.monotonic() > deadline:
                pytest.fail("child never reached its second snapshot")
            time.sleep(0.05)
        ready = json.loads(sentinel.read_text())
        workers, segments = ready["workers"], ready["segments"]
        assert len(workers) == 2 and segments
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"workers outlived their supervisor: {survivors}"
        # The resource tracker unlinks the segments once no process
        # holds its pipe: the supervisor and every worker are gone.
        def left() -> list[str]:
            return [n for n in segments if Path("/dev/shm", n).exists()]

        deadline = time.monotonic() + 10
        while left() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not left(), f"shared segments left behind: {left()}"
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on failure
            child.kill()
            child.wait()
        for pid in workers:
            if _alive(pid):  # pragma: no cover - cleanup on failure
                os.kill(pid, signal.SIGKILL)

    resumed = Runtime().run(Planner().compile(
        A, cfg, d=D, driver="process",
        pool=WorkerPoolConfig(workers=2),
        persistence=PersistencePolicy(checkpoint_dir=str(tmp_path),
                                      resume=True)), A)
    np.testing.assert_array_equal(resumed.sketch, ref)
    assert resumed.stats.extra["resumed_from"] is not None
