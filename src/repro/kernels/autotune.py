"""Empirical block-size autotuning for the sketching SpMM.

Section V-B tunes ``(b_d, b_n)`` by hand per machine and workload; this
module automates the search the way production kernels do it: start from
the model recommendation (:func:`repro.model.recommend_block_sizes`),
evaluate a small grid of candidates on a *subsampled* problem (a column
slice, so a trial costs a fraction of the full product), and return the
measured winner.  The same harness optionally races Algorithm 3 against
Algorithm 4 — an empirical version of the Section II-B architecture
dispatch for hosts that don't match either machine preset.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import ConfigError
from ..rng.base import SketchingRNG
from ..sparse.csc import CSCMatrix
from ..utils.canonical import canonical_json
from ..utils.validation import check_positive_int
from .backends import NUMPY
from .blocking import sketch_spmm

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.store import ArtifactCache

__all__ = ["TUNE_RESULT_VERSION", "TuneResult", "autotune_blocking",
           "autotune_kernel"]

TUNE_RESULT_VERSION = 1


@dataclass
class TuneResult:
    """Outcome of an autotuning run.

    The serialized record names the one kernel backend (``"numpy"``), as
    cached results always have.  ``tuning_seed`` is the RNG seed the
    tuning column slice was derived from, so a cached result names the
    exact subproblem it was measured on.
    """

    b_d: int
    b_n: int
    kernel: str
    seconds: float                       # winning trial time (subsampled)
    trials: list = field(default_factory=list)  # (kernel, b_d, b_n, seconds)
    tuning_seed: int = 0

    def describe(self) -> str:
        """One-line summary of the winner."""
        return (f"{self.kernel} [{NUMPY.name}] with "
                f"(b_d={self.b_d}, b_n={self.b_n}): "
                f"{self.seconds:.4f}s on the tuning slice")

    # -- serialization (stable: the artifact cache stores this verbatim) ----

    def to_dict(self) -> dict:
        return {
            "version": TUNE_RESULT_VERSION,
            "b_d": int(self.b_d), "b_n": int(self.b_n),
            "kernel": self.kernel, "seconds": float(self.seconds),
            "trials": [[k, int(bd), int(bn), float(s)]
                       for k, bd, bn, s in self.trials],
            "backend": NUMPY.name,
            "tuning_seed": int(self.tuning_seed),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact, stable float repr)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "TuneResult":
        version = int(data.get("version", TUNE_RESULT_VERSION))
        if version > TUNE_RESULT_VERSION:
            raise ConfigError(
                f"TuneResult format version {version} is newer than this "
                f"library understands (max {TUNE_RESULT_VERSION})"
            )
        return cls(
            b_d=int(data["b_d"]), b_n=int(data["b_n"]),
            kernel=str(data["kernel"]), seconds=float(data["seconds"]),
            trials=[(str(k), int(bd), int(bn), float(s))
                    for k, bd, bn, s in data.get("trials", [])],
            tuning_seed=int(data.get("tuning_seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "TuneResult":
        return cls.from_dict(json.loads(text))


def _candidate_grid(d: int, n: int, base: tuple[int, int]) -> list[tuple[int, int]]:
    """A small geometric neighbourhood around the model recommendation."""
    b_d0, b_n0 = base
    cands = set()
    for fd in (0.5, 1.0, 2.0):
        for fn in (0.25, 1.0, 4.0):
            b_d = max(1, min(d, int(round(b_d0 * fd))))
            b_n = max(1, min(n, int(round(b_n0 * fn))))
            cands.add((b_d, b_n))
    cands.add((d, max(1, min(n, 16))))  # the "tall" parallel-friendly shape
    return sorted(cands)


def _tuning_slice(A: CSCMatrix, max_cols: int, seed: int = 0) -> CSCMatrix:
    """A contiguous column slice keeping trials cheap but representative.

    The window start is drawn from a seeded generator (not a fixed
    centre), so repeat tunings with the same *seed* measure the exact
    same subproblem — the property that makes cached
    :class:`TuneResult` records reproducible and auditable — while
    different seeds sample different regions of a structured pattern.
    """
    n = A.shape[1]
    if n <= max_cols:
        return A
    rng = np.random.default_rng(int(seed))
    start = int(rng.integers(0, n - max_cols + 1))
    return A.col_block(start, start + max_cols)


def autotune_blocking(
    A: CSCMatrix,
    d: int,
    rng_factory: Callable[[], SketchingRNG],
    *,
    kernel: str = "algo3",
    candidates: Sequence[tuple[int, int]] | None = None,
    max_tuning_cols: int = 256,
    repeats: int = 2,
    tuning_seed: int = 0,
    cache: "ArtifactCache | None" = None,
) -> TuneResult:
    """Measure a candidate grid of ``(b_d, b_n)`` and return the fastest.

    Parameters
    ----------
    rng_factory:
        Zero-argument factory producing fresh generators (one per trial so
        instrumentation counters don't leak between trials).
    candidates:
        Explicit grid; default is a geometric neighbourhood around the
        model recommendation for this problem's density.
    max_tuning_cols:
        Trials run on a seeded column slice of at most this width.
    tuning_seed:
        Seed for the column-slice placement; recorded on the result so a
        cached tuning names the exact subproblem it measured.
    cache:
        Optional :class:`~repro.cache.ArtifactCache`; a prior result for
        the same (pattern, machine, tuning parameters) is
        returned without running a single trial, and fresh results are
        stored for the next caller.
    """
    d = check_positive_int(d, "d")
    repeats = check_positive_int(repeats, "repeats")
    if kernel not in ("algo3", "algo4"):
        raise ConfigError(f"kernel must be 'algo3' or 'algo4', got {kernel!r}")
    key = None
    if cache is not None:
        from ..cache.artifacts import fetch_tune_result, tune_key

        key = tune_key(A, kernel=kernel, d=d,
                       max_tuning_cols=max_tuning_cols, repeats=repeats,
                       tuning_seed=tuning_seed, candidates=candidates)
        cached = fetch_tune_result(cache, key)
        if cached is not None:
            return cached
    slice_A = _tuning_slice(A, max_tuning_cols, tuning_seed)
    n_slice = slice_A.shape[1]

    if candidates is None:
        from ..model import LAPTOP, recommend_block_sizes

        rho = max(A.density, 1e-9)
        base = recommend_block_sizes(LAPTOP, rho, d, n_slice)
        candidates = _candidate_grid(d, n_slice, base)
    if not candidates:
        raise ConfigError("candidate grid is empty")

    trials = []
    for b_d, b_n in candidates:
        best = float("inf")
        for _ in range(repeats):
            rng = rng_factory()
            t0 = time.perf_counter()
            sketch_spmm(slice_A, d, rng, kernel=kernel,
                        b_d=min(b_d, d), b_n=min(b_n, n_slice))
            best = min(best, time.perf_counter() - t0)
        trials.append((kernel, int(min(b_d, d)), int(min(b_n, n_slice)), best))

    kernel_name, b_d, b_n, secs = min(trials, key=lambda t: t[3])
    result = TuneResult(b_d=b_d, b_n=b_n, kernel=kernel_name, seconds=secs,
                        trials=trials, tuning_seed=int(tuning_seed))
    if cache is not None:
        from ..cache.artifacts import store_tune_result

        store_tune_result(cache, key, result)
    return result


def autotune_kernel(
    A: CSCMatrix,
    d: int,
    rng_factory: Callable[[], SketchingRNG],
    *,
    max_tuning_cols: int = 256,
    repeats: int = 2,
    tuning_seed: int = 0,
    cache: "ArtifactCache | None" = None,
) -> TuneResult:
    """Race Algorithm 3 vs Algorithm 4 (each at its tuned blocking).

    The empirical counterpart of :func:`repro.kernels.choose_kernel` for
    hosts whose cache/RNG behaviour doesn't match a preset; Algorithm 4's
    trials include its format-conversion cost, as Table IV would.

    With a *cache*, a prior race for the same inputs returns without any
    trials (the per-kernel legs cache their own entries too, so a race
    can also partially reuse a single-kernel tuning).
    """
    key = None
    if cache is not None:
        from ..cache.artifacts import fetch_tune_result, tune_key

        key = tune_key(A, kernel="race", d=d,
                       max_tuning_cols=max_tuning_cols, repeats=repeats,
                       tuning_seed=tuning_seed, candidates=None)
        cached = fetch_tune_result(cache, key)
        if cached is not None:
            return cached
    results = [
        autotune_blocking(A, d, rng_factory, kernel=k,
                          max_tuning_cols=max_tuning_cols, repeats=repeats,
                          tuning_seed=tuning_seed, cache=cache)
        for k in ("algo3", "algo4")
    ]
    best = min(results, key=lambda r: r.seconds)
    # Fresh record (never mutate `best`: the per-kernel legs may have
    # memoized that exact object in the cache).
    winner = TuneResult(
        b_d=best.b_d, b_n=best.b_n, kernel=best.kernel, seconds=best.seconds,
        trials=[t for r in results for t in r.trials],
        tuning_seed=best.tuning_seed,
    )
    if cache is not None:
        from ..cache.artifacts import store_tune_result

        store_tune_result(cache, key, winner)
    return winner
