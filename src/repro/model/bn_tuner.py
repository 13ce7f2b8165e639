"""Pattern-aware ``b_n`` tuning for Algorithm 4.

Section III-B, verbatim: "depending on the sparsity pattern of A, one
could tune ``b_n`` to minimize the number of random variables generated."
This module does exactly that, with the *exact* per-block non-empty-row
counts of the concrete matrix (not the uniform-density expectation):

* :func:`rng_volume_curve` — Algorithm 4's generated-entry count as a
  function of ``b_n`` (wider blocks always generate fewer, but cost cache
  pressure and blocked-CSR pointer overhead);
* :func:`tune_bn` — minimize the *model-effective cost* (h-weighted RNG
  volume + pointer/streaming traffic + penalty-weighted output scatter)
  over a candidate grid, subject to the output block fitting in cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..sparse.csc import CSCMatrix
from .machine import MachineModel
from .traffic import algo4_traffic

__all__ = ["BnChoice", "rng_volume_curve", "tune_bn"]


@dataclass(frozen=True)
class BnChoice:
    """Outcome of a pattern-aware ``b_n`` search."""

    b_n: int
    rng_entries: float
    effective_words: float
    curve: list  # (b_n, rng_entries, effective_words) per candidate

    def describe(self) -> str:
        """One-line summary."""
        return (f"b_n = {self.b_n}: {self.rng_entries:.3g} generated "
                f"entries, {self.effective_words:.3g} effective words")


def rng_volume_curve(A: CSCMatrix, d: int,
                     bn_values: Sequence[int]) -> list[tuple[int, float]]:
    """Exact Algorithm 4 RNG volume for each candidate ``b_n``.

    Monotone non-increasing in ``b_n`` for every matrix (wider blocks can
    only merge rows' occurrences); the *shape* of the decay is the
    pattern signature — flat for Abnormal_C, cliff-like for Abnormal_A.
    This is the paper's per-block count, which the thread and process
    rungs sample; the serial rung reuses each row block's panel in its
    next column block (:class:`~repro.kernels.algo4.PanelMemo`) and
    samples at most this.
    """
    if d < 1:
        raise ConfigError(f"d must be positive, got {d}")
    from .traffic import count_nonempty_rows_per_block

    out = []
    for b_n in bn_values:
        if b_n < 1:
            raise ConfigError(f"b_n candidates must be positive, got {b_n}")
        counts = count_nonempty_rows_per_block(A, int(b_n))
        out.append((int(b_n), float(d) * float(counts.sum())))
    return out


def tune_bn(A: CSCMatrix, d: int, machine: MachineModel, *,
            b_d: int | None = None,
            bn_values: Sequence[int] | None = None,
            dist: str = "uniform") -> BnChoice:
    """Pick ``b_n`` minimizing Algorithm 4's model-effective cost on *A*.

    Candidates default to a geometric grid from 1 to ``n``, filtered by
    the cache constraint (the ``b_d x b_n`` output block must fit in half
    the cache).  The cost combines the *exact* RNG volume with the
    blocked-CSR streaming and scattered-output traffic, all in the
    machine's word-movement units.
    """
    m, n = A.shape
    if d < 1:
        raise ConfigError(f"d must be positive, got {d}")
    b_d = d if b_d is None else int(b_d)
    if bn_values is None:
        grid = np.unique(np.geomspace(1, max(n, 1), num=12).astype(int))
        bn_values = [int(b) for b in grid]
    if not bn_values:
        raise ConfigError("bn_values must be non-empty")

    h = machine.h(dist)
    half_cache = machine.cache_words // 2
    curve = []
    feasible = []
    for b_n in bn_values:
        traffic = algo4_traffic(A, d, b_d, int(b_n))
        eff = traffic.effective_words(h, machine.random_access_penalty)
        curve.append((int(b_n), traffic.rng_entries, eff))
        if min(b_d, d) * int(b_n) <= half_cache:
            feasible.append((eff, int(b_n), traffic.rng_entries))
    if not feasible:
        # Every candidate busts the cache; fall back to the smallest b_n.
        eff, b_n, rng_entries = min(
            (c[2], c[0], c[1]) for c in curve
        )
    else:
        eff, b_n, rng_entries = min(feasible)
    return BnChoice(b_n=b_n, rng_entries=rng_entries,
                    effective_words=eff, curve=curve)
