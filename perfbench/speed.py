"""Machine speed, measured inside every run.

The benchmark runs on a few cores of a shared host.  On a 2-vCPU VM the
same op flips between a fast and a slow state about 1.5x apart, often
several times within a few seconds, and how much of the second core is
there at all moves even more.  Measured as is, a median of ten runs
can then spread by 10-30% of itself.  So the benchmark reports its time
and rate metrics at a fixed reference speed: each run times a reference
job in moments when the workload is idle, and scales each measured time
by ``reference seconds / measured seconds`` of that job, taken from the
samples nearest to it in time.

The reference job is the sketch done the plain way, with no ``repro``
code, in two parts timed one by one:

* ``numpy``: draw Gaussian samples with numpy, multiply a scipy sparse
  matrix into a dense block, a few element-wise passes, on one thread;
* ``two_core``: the ``numpy`` part on two threads at once.

The host's speed has two sides that move apart: how fast one core runs,
and how much of a second core there is.  Over four sets of ten runs of
every workload the ``two_core`` part took from 1.1 to 3 times the
``numpy`` part.  In one set it dropped from twice to 1.2 times, and
fixed_a, scaled by both parts, read 28% slower with no change to its
measured times; in another, rng_bound's two threads slowed 2.5 times
with the ``two_core`` part while the ``numpy`` part held.  So each
workload is scaled by the part that runs like it: work on one thread,
and every set-up, by the one-thread part (``ONE_THREAD``); the thread
engine by the two-thread part (``TWO_THREADS``); the serve workloads,
whose client, service and pool workers take turns and overlap, by both,
weighed equally (``SERVICE``).  The inputs are fixed, so the seed of the
run does not change the job.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np
import scipy.sparse

#: Median seconds of each part at reference speed (a 2-vCPU x86_64 VM in
#: a quiet phase).  Only their ratio to what a run measures matters; they
#: fix the scale the normalised metrics read in.
REFERENCE_S = {"numpy": 0.0045, "two_core": 0.0060}
#: Samples a timed moment is normalised by, the ones closest to it.
NEAREST = 3
#: Weights of the parts, by how the scaled work runs.
ONE_THREAD = {"numpy": 1.0}
TWO_THREADS = {"two_core": 1.0}
SERVICE = {"numpy": 0.5, "two_core": 0.5}


class MachineSpeed:
    """Times the reference job on demand and reports the run's speed."""

    def __init__(self) -> None:
        g = np.random.default_rng(20230923)
        self.A = scipy.sparse.random(4000, 400, density=0.01,
                                     random_state=g, format="csr")
        self.B = g.standard_normal((400, 96))
        self.x = g.standard_normal(400_000)
        self.times: dict[str, list] = {k: [] for k in REFERENCE_S}
        self.at: list = []
        self.sample()              # first touch of the inputs, not kept
        for v in (self.at, *self.times.values()):
            v.clear()
        # Built right after the workload's set-up: these samples are the
        # ones nearest to it, and give the set-up time its factor.
        for _ in range(NEAREST):
            self.sample()

    def _numpy(self) -> None:
        np.random.default_rng(7).standard_normal(150_000)
        self.A @ self.B
        y = self.x * 1.5 + 2.0
        np.add.reduceat(y, np.arange(0, y.size, 64))

    def _two_core(self) -> None:
        other = threading.Thread(target=self._numpy)
        other.start()
        self._numpy()
        other.join()

    def sample(self) -> None:
        """Time each part once.  Call it only while the workload has
        nothing in flight."""
        for name, part in (("numpy", self._numpy),
                           ("two_core", self._two_core)):
            t = time.perf_counter()
            part()
            self.times[name].append(time.perf_counter() - t)
        self.at.append(time.monotonic())

    def factor(self, weights: dict, near: float | None = None) -> float:
        """Reference seconds over measured seconds of the job, the parts
        weighed geometrically by *weights* (which sum to 1): below 1 when
        the machine ran slower than the reference.  With *near* (a
        ``time.monotonic()`` reading), only the ``NEAREST`` samples
        closest to that moment count, so the factor follows the host
        when it changes speed within the run; otherwise all of them."""
        picked = range(len(self.at))
        if near is not None:
            picked = sorted(picked, key=lambda j: abs(self.at[j] - near))
            picked = picked[:NEAREST]
        return math.exp(sum(
            w * math.log(REFERENCE_S[k] / statistics.median(
                self.times[k][j] for j in picked))
            for k, w in weights.items()))

    def record(self) -> dict:
        return {"at": self.at,
                **{k: {"median_s": statistics.median(v), "times_s": v}
                   for k, v in self.times.items()}}
