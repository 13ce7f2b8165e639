"""End-to-end crash recovery: SIGKILL a checkpointing process, resume,
and demand a bit-identical sketch.

The child process absorbs six row batches (writing a durable snapshot
after each), drops a sentinel file, and then idles; the parent SIGKILLs
it — no atexit handlers, no flushing, exactly like a node failure — and
resumes from whatever reached the disk.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.streaming import StreamingSketch
from repro.persist import resume_streaming
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse

_CHILD = """
import sys, time
from pathlib import Path
from repro.core.streaming import StreamingSketch
from repro.plan import PersistencePolicy
from repro.rng import make_rng
from repro.sparse import CSCMatrix, random_sparse

ckdir = sys.argv[1]
A = random_sparse(96, 24, 0.15, seed=3)
dense = A.to_dense()
st = StreamingSketch(10, 24, make_rng("philox", 7), kernel="algo3",
                     b_d=4, b_n=8,
                     persistence=PersistencePolicy(checkpoint_dir=ckdir,
                                                   every=8))
for s in range(0, 48, 8):
    st.absorb(CSCMatrix.from_dense(dense[s:s + 8]))
Path(ckdir, "CHILD_READY").touch()
time.sleep(120)  # hold the process alive until the parent SIGKILLs it
"""

def test_sigkill_then_resume_bit_identical(tmp_path):
    A = random_sparse(96, 24, 0.15, seed=3)
    dense = A.to_dense()

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
                pytest.fail("child never reached its checkpoint sentinel")
            time.sleep(0.05)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on failure
            child.kill()
            child.wait()

    resumed = resume_streaming(tmp_path)
    assert resumed.rows_seen == 48
    assert resumed.fingerprint()["backend"] == "numpy"
    for s in range(48, 96, 8):
        resumed.absorb(CSCMatrix.from_dense(dense[s:s + 8]))

    ref = StreamingSketch(10, 24, make_rng("philox", 7), kernel="algo3",
                          b_d=4, b_n=8)
    for s in range(0, 96, 8):
        ref.absorb(CSCMatrix.from_dense(dense[s:s + 8]))

    np.testing.assert_array_equal(resumed.sketch, ref.sketch)
