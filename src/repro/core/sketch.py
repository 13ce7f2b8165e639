"""The public sketching API: ``sketch()`` and :class:`SketchOperator`.

This is the library's front door for Equation (1): given a tall sparse
``A`` (CSC) and a sketch size ``d`` only modestly larger than ``n``,
produce ``Ahat = S A`` where ``S`` is an implicit ``d x m`` random matrix
whose entries are regenerated on the fly inside a blocked kernel.

The operator view matters because ``S`` is never stored: a
:class:`SketchOperator` is a *recipe* (seed, distribution, generator
family, blocking) that can be applied to a sparse matrix, applied to a
dense matrix or vector (needed to sketch right-hand sides consistently),
or — for testing and small problems — materialized.

This module is a thin layer over the plan stack:
:meth:`SketchOperator.apply` compiles a
:class:`~repro.plan.SketchPlan` with the :class:`~repro.plan.Planner`
and hands it to :class:`~repro.plan.Runtime` — the same engine behind
:class:`~repro.core.StreamingSketch`.  Callers that want the plan itself
(to inspect, serialize, or re-run) find it on ``SketchResult.plan``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..kernels.blocking import default_block_sizes
from ..model.machine import LAPTOP, MachineModel
from ..plan.policy import PersistencePolicy
from ..plan.runtime import SketchResult
from ..rng.base import SketchingRNG
from ..sparse.csc import CSCMatrix
from ..utils.validation import check_positive_int
from .config import SketchConfig

__all__ = ["SketchResult", "SketchOperator", "sketch"]


class SketchOperator:
    """An implicit ``d x m`` random sketching matrix.

    Parameters
    ----------
    d, m:
        Logical dimensions of ``S``.
    config:
        Sketching options (distribution, generator, blocking, threads).
    machine:
        Machine model used by ``kernel="auto"`` dispatch and block-size
        recommendations (defaults to the conservative ``LAPTOP`` preset).
    """

    def __init__(self, d: int, m: int, config: SketchConfig | None = None,
                 machine: MachineModel | None = None) -> None:
        self.d = check_positive_int(d, "d")
        self.m = check_positive_int(m, "m")
        self.config = config if config is not None else SketchConfig()
        self.machine = machine if machine is not None else LAPTOP
        if self.d <= 0:
            raise ConfigError("sketch size d must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """``(d, m)`` — the dimensions of the implicit ``S``."""
        return (self.d, self.m)

    def _rng(self) -> SketchingRNG:
        return self.config.build_rng()

    def scale(self) -> float:
        """Normalization factor (``1/sqrt(d * var)`` if configured, else 1)."""
        if not self.config.normalize:
            return 1.0
        dist = self._rng().dist
        return dist.normalization(self.d)

    def _blocking(self, n: int) -> tuple[int, int]:
        b_d, b_n = default_block_sizes(
            self.d, n,
            cache_bytes=self.machine.cache_bytes,
            parallel=self.config.threads > 1,
        )
        if self.config.b_d is not None:
            b_d = self.config.b_d
        if self.config.b_n is not None:
            b_n = self.config.b_n
        return b_d, b_n

    def plan(self, A: CSCMatrix, *,
             persistence: PersistencePolicy | None = None,
             cache=None):
        """Compile the :class:`~repro.plan.SketchPlan` :meth:`apply` runs.

        Exposed so callers can inspect ``plan.explain()``, serialize the
        plan, or hand it to a :class:`~repro.plan.Runtime` themselves.
        *cache* (an :class:`~repro.cache.ArtifactCache` or
        :class:`~repro.cache.CachePolicy`) memoizes the planner's
        pattern scan and autotune trials.
        """
        from ..plan.planner import Planner

        return Planner(self.machine).compile(
            A, self.config, d=self.d, persistence=persistence, cache=cache)

    def apply(self, A: CSCMatrix, *,
              persistence: PersistencePolicy | None = None,
              cache=None) -> SketchResult:
        """Compute ``S @ A`` through the configured kernel path.

        Compiles a plan and executes it on the shared
        :class:`~repro.plan.Runtime`; the plan is attached to the
        returned result.

        With a *persistence* policy, the run writes durable snapshots of
        completed row blocks and can restore the newest verified-good
        one before computing the rest (see :mod:`repro.persist` and
        :class:`~repro.plan.PersistencePolicy`).  Every driver
        checkpoints except ``pregen``, whose kernel has no row-block
        barriers.

        With a *cache* (:class:`~repro.cache.ArtifactCache` or
        :class:`~repro.cache.CachePolicy`), planning decisions and the
        Algorithm 4 blocked-CSR conversion are reused across runs over
        the same ``A`` — the "fixed A, many
        sketches" hot path.  A policy opens a cache over the process
        memo of its directory, so repeat calls reuse the verified
        objects (and their blocks' apply patterns) without rereading the
        disk.  Outputs are bit-identical with or without the cache.
        """
        from ..plan.runtime import Runtime

        if A.shape[0] != self.m:
            raise ShapeError(
                f"operator expects {self.m} rows, matrix has {A.shape[0]}"
            )
        A.validate(require_finite=True)
        if cache is not None:
            from ..cache.store import ArtifactCache

            # One shared instance across plan + run, so hit/miss
            # accounting and the in-memory memo accumulate in one place.
            cache = ArtifactCache.ensure(cache)
        plan = self.plan(A, persistence=persistence, cache=cache)
        return Runtime().run(plan, A, cache=cache)

    def apply_dense(self, X: np.ndarray) -> np.ndarray:
        """Compute ``S @ X`` for dense ``X`` (vector or matrix).

        Sketch-and-precondition needs ``S b`` formed with the *same*
        realized ``S`` as ``S A``; this path generates ``S`` in row blocks
        using the same checkpoints the sparse kernel uses (block offsets
        from the operator's blocking), so the two applications are
        mutually consistent.
        """
        X2 = X[:, None] if X.ndim == 1 else X
        if X2.shape[0] != self.m:
            raise ShapeError(f"X has {X2.shape[0]} rows, expected {self.m}")
        b_d, _ = self._blocking(max(1, X2.shape[1]))
        rng = self._rng()
        out = np.empty((self.d, X2.shape[1]), dtype=np.float64)
        js = np.arange(self.m, dtype=np.int64)
        for r in range(0, self.d, b_d):
            d1 = min(b_d, self.d - r)
            # A C-ordered panel keeps BLAS on the call, and so the
            # rounding, that ``S @ X`` has always made.
            panel = np.ascontiguousarray(rng.column_block_batch(r, d1, js))
            out[r:r + d1, :] = panel @ X2
        out *= rng.post_scale * self.scale()
        return out[:, 0] if X.ndim == 1 else out

    def materialize(self) -> np.ndarray:
        """Realize ``S`` densely (testing / small problems only).

        Uses the operator's own blocking for checkpoint consistency and
        applies post-scaling and normalization, so
        ``op.materialize() @ A.to_dense()`` matches ``op.apply(A).sketch``.
        """
        b_d, _ = self._blocking(1)
        rng = self._rng()
        S = rng.materialize(self.d, self.m, b_d=b_d)
        return S * (rng.post_scale * self.scale())


def sketch(A: CSCMatrix, gamma: float | None = None, d: int | None = None,
           config: SketchConfig | None = None,
           machine: MachineModel | None = None,
           quality_check: bool = False,
           quality_threshold: float | None = None,
           max_resketch: int = 1,
           persistence: PersistencePolicy | None = None,
           cache=None) -> SketchResult:
    """One-call sketching: ``Ahat = S A`` with ``d ~ gamma * n``.

    Exactly one of *gamma* / *d* may override the config's sizing.  This is
    the quickstart entry point::

        from repro import sketch, random_sparse
        A = random_sparse(100_000, 1_000, 5e-4, seed=0)
        result = sketch(A, gamma=3.0)
        Ahat = result.sketch          # 3000 x 1000 dense
        print(result.plan.explain())  # why each choice was made

    Parameters
    ----------
    quality_check:
        Run the end-of-run distortion spot-check: measure the realized
        sketch's effective distortion for ``range(A)`` (a dense
        diagnostic — test/diagnostic scales only) and, on
        subspace-embedding failure, automatically re-sketch at larger
        ``d`` (1.5x per round, up to *max_resketch* rounds) before
        raising :class:`~repro.errors.SketchQualityError`.
    quality_threshold:
        Distortion ceiling; default is the midpoint between the
        idealized Gaussian limit ``1/sqrt(gamma)`` and the
        embedding-failure boundary 1.0, which healthy sketches clear
        comfortably.
    max_resketch:
        Automatic re-sketch rounds allowed after a failed check.

    The accepted result's ``stats.extra`` records ``distortion``,
    ``distortion_threshold``, and ``resketches``.

    persistence:
        Durable crash recovery as a
        :class:`~repro.plan.PersistencePolicy`: write atomic snapshots
        of completed row blocks and, with ``resume=True``, restore the
        newest verified-good one before computing the rest (see
        :mod:`repro.persist` and :meth:`SketchOperator.apply`).
        Incompatible with *quality_check*, whose automatic re-sketching
        changes ``d`` mid-run and would orphan the snapshots.
    cache:
        An :class:`~repro.cache.ArtifactCache` or
        :class:`~repro.cache.CachePolicy`: reuse planning decisions,
        autotune results, and the blocked-CSR conversion across
        repeated sketches of the same matrix.  Calls given a policy
        (equal ones or the same one) share the process memo of its
        directory, bounded by its ``max_bytes``, so a repeat call pays
        no disk read; the first call in a process reads and verifies
        the disk entries.  Bit-identical outputs either way.
    """
    cfg = config if config is not None else SketchConfig()
    if persistence is not None and persistence.enabled and quality_check:
        raise ConfigError(
            "persistence is incompatible with quality_check: automatic "
            "re-sketching changes d mid-run, orphaning the snapshots"
        )
    if gamma is not None and d is not None:
        raise ConfigError("pass at most one of gamma / d")
    if gamma is not None:
        if gamma <= 1.0:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        d_eff = int(np.ceil(gamma * A.shape[1]))
    elif d is not None:
        d_eff = check_positive_int(d, "d")
        if d_eff <= A.shape[1]:
            raise ConfigError(
                f"sketch size d={d_eff} must exceed n={A.shape[1]}"
            )
    else:
        d_eff = cfg.sketch_size(A.shape[1])
    if not quality_check:
        op = SketchOperator(d_eff, A.shape[0], config=cfg, machine=machine)
        return op.apply(A, persistence=persistence, cache=cache)

    from ..errors import SketchQualityError
    from .distortion import sketch_distortion  # local: avoids module cycle

    max_resketch = int(max_resketch)
    if max_resketch < 0:
        raise ConfigError(f"max_resketch must be >= 0, got {max_resketch}")
    n = A.shape[1]
    delta = threshold = float("nan")
    for round_no in range(max_resketch + 1):
        op = SketchOperator(d_eff, A.shape[0], config=cfg, machine=machine)
        result = op.apply(A, cache=cache)
        gamma_eff = d_eff / n
        if quality_threshold is not None:
            threshold = float(quality_threshold)
        elif gamma_eff > 1.0:
            threshold = 0.5 * (1.0 + 1.0 / float(np.sqrt(gamma_eff)))
        else:
            threshold = 0.99
        delta = sketch_distortion(op, A)
        result.stats.extra.update({
            "distortion": delta,
            "distortion_threshold": threshold,
            "resketches": round_no,
        })
        if delta <= threshold:
            return result
        last_d = d_eff
        d_eff = int(np.ceil(1.5 * d_eff))
    raise SketchQualityError(
        f"sketch distortion {delta:.3f} exceeds threshold {threshold:.3f} "
        f"after {max_resketch} automatic re-sketch round(s) (last d={last_d})"
    )
