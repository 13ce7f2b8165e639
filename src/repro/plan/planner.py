"""The planner: compile a :class:`~repro.plan.SketchPlan` from a config.

Before this layer existed, the choice of kernel lived in
``kernels/dispatch.choose_kernel``, the blocking defaults in
``kernels/blocking.default_block_sizes`` (with a second, divergent copy
of the defaults inside the executor), the model-derived blocking in
``model/blocksize.recommend_block_sizes``, the empirical search in
``kernels/autotune``, and the sketch-size arithmetic in ``core/config``
— and each execution path re-assembled a different subset of them.  The
:class:`Planner` consolidates all of it behind one call::

    plan = Planner(machine).compile(A, config, gamma=3.0)
    print(plan.explain())          # why each choice was made
    result = Runtime().run(plan, A)

Every decision is recorded as a :class:`~repro.plan.PlanDecision`,
including the Section III (Eq. 4) computational-intensity numbers the
machine model produced for this problem's density, so
``plan.explain()`` answers "why this kernel / this blocking" with the
paper's own quantities.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..core.config import SketchConfig
from ..errors import ConfigError
from ..kernels.blocking import block_task_count, default_block_sizes
from ..kernels.dispatch import choose_kernel
from ..model.machine import LAPTOP, MachineModel
from ..parallel.procpool import WorkerPoolConfig
from ..utils.validation import check_choice, check_positive_int
from .policy import PersistencePolicy
from .spec import (
    PartitionSpec,
    PlanDecision,
    ProblemSpec,
    RngSpec,
    SketchPlan,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.policy import CachePolicy
    from ..cache.store import ArtifactCache
    from ..sparse.csc import CSCMatrix

__all__ = ["Planner", "compile_plan"]

_TUNE_MODES = ("model", "measure")


class Planner:
    """Compiles :class:`SketchPlan` objects for a machine model.

    Parameters
    ----------
    machine:
        The :class:`~repro.model.MachineModel` that drives kernel
        dispatch and blocking (default: the conservative ``LAPTOP``).
    tune:
        ``"model"`` (default) sizes blocks from the cache heuristic and
        reports the Eq. 4 model numbers; ``"measure"`` additionally runs
        the empirical autotuner on a column slice and adopts the
        measured winner (slower to plan, faster to run).
    """

    def __init__(self, machine: MachineModel | None = None, *,
                 tune: str = "model") -> None:
        self.machine = machine if machine is not None else LAPTOP
        check_choice(tune, "tune", _TUNE_MODES)
        self.tune = tune

    # -- sketch-size resolution ---------------------------------------------

    def _resolve_d(self, n: int, cfg: SketchConfig, d: int | None,
                   gamma: float | None) -> tuple[int, float | None]:
        if gamma is not None and d is not None:
            raise ConfigError("pass at most one of gamma / d")
        if gamma is not None:
            if gamma <= 1.0:
                raise ConfigError(f"gamma must exceed 1, got {gamma}")
            return int(math.ceil(gamma * n)), float(gamma)
        if d is not None:
            return check_positive_int(d, "d"), None
        return cfg.sketch_size(n), float(cfg.gamma)

    # -- the compile step ----------------------------------------------------

    def compile(self, A: "CSCMatrix", config: SketchConfig | None = None, *,
                d: int | None = None, gamma: float | None = None,
                persistence: PersistencePolicy | None = None,
                driver: str = "auto",
                pool: "WorkerPoolConfig | None" = None,
                partition: "PartitionSpec | int | None" = None,
                batch_seeds=None,
                cache: "ArtifactCache | CachePolicy | None" = None
                ) -> SketchPlan:
        """Compile the full decision record for sketching *A*.

        Exactly one of *gamma* / *d* may override the config's sizing
        (same contract as :func:`repro.sketch`).  *persistence* attaches
        a durable-checkpoint policy; *driver* pins the execution driver
        (``"auto"`` lets the runtime choose serial vs engine); *pool*
        configures the supervised worker pool when ``driver="process"``
        (a default :class:`~repro.parallel.WorkerPoolConfig` is
        synthesized when omitted).  A plan that runs on several lanes —
        pool workers, or ``config.threads`` on the other parallel
        drivers — gets at least one block task per lane: unless
        ``config.b_n`` pins it, ``b_n`` narrows (``b_d`` never moves,
        so the sketch keeps every bit).  *partition* requests sharded
        execution: a :class:`~repro.plan.PartitionSpec` (or a bare shard
        count) that the runtime resolves into column stripes run as
        consecutive task groups of the one driver run, with a sketch
        bit-identical to the unsharded run's.  *batch_seeds* (a
        sequence of per-sketch seeds) compiles a *batched* plan: the run
        produces a ``(len(batch_seeds), d, n)`` stack whose slice ``[t]``
        is bit-identical to the single-sketch plan seeded with
        ``batch_seeds[t]`` — the multi-sketch tier that amortizes the
        RNG pipeline across the batch (a single seed degenerates to the
        classic plan with that seed).  *cache* (an
        :class:`~repro.cache.ArtifactCache` or
        :class:`~repro.cache.CachePolicy`) memoizes the expensive
        planning steps — the kernel-dispatch pattern scan and the
        ``tune="measure"`` autotune trials — keyed by ``A``'s sparsity
        pattern and the machine profile; the compiled plan itself does
        not record the cache (outputs are identical either way).
        """
        cfg = config if config is not None else SketchConfig()
        m, n = A.shape
        check_positive_int(m, "m")
        check_positive_int(n, "n")
        d_eff, gamma_used = self._resolve_d(n, cfg, d, gamma)
        decisions: list[PlanDecision] = []
        if cache is not None:
            from ..cache.store import ArtifactCache

            cache = ArtifactCache.ensure(cache)

        decisions.append(PlanDecision(
            field="d", value=str(d_eff),
            reason=(f"d = ceil(gamma * n) with gamma={gamma_used:g}"
                    if gamma_used is not None else "explicit d override"),
            data={"n": n, "gamma": gamma_used} if gamma_used is not None
            else {"n": n},
        ))

        # Kernel: user override, else the Section II-B / Table VI dispatch
        # (its O(nnz) pattern scan is memoized in the artifact cache).
        if cfg.kernel != "auto":
            kernel = cfg.kernel
            decisions.append(PlanDecision(
                field="kernel", value=kernel,
                reason="forced by SketchConfig.kernel"))
        else:
            choice = None
            choice_key = None
            if cache is not None:
                from ..cache.artifacts import fetch_kernel_choice, \
                    kernel_choice_key

                choice_key = kernel_choice_key(
                    A, concentration_threshold=0.5, machine=self.machine)
                choice = fetch_kernel_choice(cache, choice_key)
            cached_choice = choice is not None
            if choice is None:
                choice = choose_kernel(self.machine, A)
                if cache is not None:
                    from ..cache.artifacts import store_kernel_choice

                    store_kernel_choice(cache, choice_key, choice)
            kernel = choice.kernel
            decisions.append(PlanDecision(
                field="kernel", value=kernel, reason=choice.reason,
                data={
                    "column_concentration": choice.column_concentration,
                    "machine_favors_reuse": choice.machine_favors_reuse,
                    "machine": self.machine.name,
                    **({"cache": "hit"} if cached_choice else {}),
                }))

        # Blocking: cache heuristic -> model numbers -> explicit overrides
        # -> (optionally) the measured autotune winner.
        b_d, b_n = default_block_sizes(
            d_eff, n, cache_bytes=self.machine.cache_bytes,
            parallel=cfg.threads > 1)
        block_reason = (
            f"cache heuristic: output block sized to half of "
            f"{self.machine.name}'s {self.machine.cache_bytes} B cache"
            + (" (parallel shape: tall b_d, narrow b_n)"
               if cfg.threads > 1 else ""))
        block_data = self._model_numbers(A, cfg)
        if self.tune == "measure" and cfg.b_d is None and cfg.b_n is None \
                and kernel in ("algo3", "algo4"):
            from ..kernels.autotune import autotune_blocking

            probes_before = 0 if cache is None else cache.hit_total()
            tuned = autotune_blocking(
                A, d_eff, lambda: cfg.build_rng(), kernel=kernel,
                cache=cache)
            cached_tune = cache is not None and \
                cache.hit_total() > probes_before
            b_d, b_n = tuned.b_d, tuned.b_n
            block_reason = (
                f"autotuned on a column slice: "
                f"{tuned.seconds:.4f}s winning trial"
                + (" (cached tuning, zero probes this compile)"
                   if cached_tune else ""))
            block_data = {**block_data, "trials": len(tuned.trials),
                          **({"cache": "hit"} if cached_tune else {})}
        if cfg.b_d is not None:
            b_d = cfg.b_d
            block_reason += "; b_d overridden by config"
        if cfg.b_n is not None:
            b_n = cfg.b_n
            block_reason += "; b_n overridden by config"
        # Fleet floor (Section V-B: parallel runs want narrow b_n): give
        # every lane a column block.  Only b_n narrows — RNG entries are
        # keyed on (row block, sparse row), so column stripes keep every
        # bit, while moving b_d would move xoshiro's.
        if driver == "process":
            lanes = (pool or WorkerPoolConfig()).workers
        else:
            lanes = 1 if driver == "serial" else cfg.threads
        tasks = block_task_count(d_eff, n, b_d, b_n)
        if lanes > 1 and cfg.b_n is None and tasks < lanes:
            row_blocks = math.ceil(d_eff / b_d)
            b_n = max(1, math.ceil(n / (lanes * row_blocks)))
            # Rounding up can leave too few stripes (n=4 on 3 lanes).
            while b_n > 1 and block_task_count(d_eff, n, b_d, b_n) < lanes:
                b_n -= 1
            block_reason += (f"; b_n narrowed so each of {lanes} lanes "
                             f"gets a column block")
            block_data = {**block_data, "lanes": lanes,
                          "tasks_before": tasks,
                          "tasks": block_task_count(d_eff, n, b_d, b_n)}
        decisions.append(PlanDecision(
            field="blocking", value=f"(b_d={b_d}, b_n={b_n})",
            reason=block_reason, data=block_data))

        # RNG: straight from the config (already validated there).
        decisions.append(PlanDecision(
            field="rng",
            value=f"{cfg.rng_kind} seed={cfg.seed} {cfg.distribution}",
            reason=("counter-based: fully reproducible across any blocking"
                    if cfg.rng_kind in ("philox", "threefry")
                    else "checkpointed: reproducible for this b_d grid")))

        # Batch: normalize the per-sketch seed list; a single seed is
        # the classic plan (batch axis elided, digest unchanged).
        batch = 1
        if batch_seeds is not None:
            seeds = tuple(int(s) for s in batch_seeds)
            if not seeds:
                raise ConfigError("batch_seeds must be non-empty when given")
            if len(seeds) == 1:
                batch_seeds = None
                decisions.append(PlanDecision(
                    field="batch", value="1",
                    reason="single batch seed: compiled as the classic "
                           "single-sketch plan with that seed",
                    data={"seed": seeds[0]}))
            else:
                batch = len(seeds)
                batch_seeds = seeds
                decisions.append(PlanDecision(
                    field="batch", value=str(batch),
                    reason=("multi-sketch tier: one pass generates all "
                            "sketches, amortizing the RNG pipeline and "
                            "block bookkeeping across the batch; each "
                            "slice is bit-identical to the single-sketch "
                            "run with its seed"),
                    data={"seeds": list(seeds)}))
            cfg_seed = seeds[0]
        else:
            cfg_seed = cfg.seed

        # Partition: normalize a bare shard count.
        if isinstance(partition, int):
            partition = PartitionSpec(shards=partition)
        if partition is not None and partition.shards > 1:
            n_blocks = (n + b_n - 1) // b_n
            decisions.append(PlanDecision(
                field="partition",
                value=f"{partition.shards} stripes",
                reason=("column stripes cut at b_n boundaries; "
                        "bit-identical to unsharded (RNG entries keyed on "
                        "(row block, sparse row), never the column offset)"),
                data={"n_blocks": n_blocks,
                      "effective_shards": min(partition.shards, n_blocks)}))
        elif partition is not None:
            partition = None  # one shard == unsharded; keep the plan exact

        pol = persistence if persistence is not None else PersistencePolicy()
        plan = SketchPlan(
            problem=ProblemSpec(m=m, n=n, d=d_eff, nnz=A.nnz,
                                gamma=gamma_used, batch=batch),
            kernel=kernel, b_d=b_d, b_n=b_n,
            rng=RngSpec(kind=cfg.rng_kind, seed=cfg_seed,
                        distribution=cfg.distribution,
                        normalize=cfg.normalize,
                        batch_seeds=batch_seeds),
            threads=cfg.threads, driver=driver,
            resilience=cfg.resilience, persistence=pol, pool=pool,
            partition=partition, decisions=tuple(decisions),
        )
        return plan

    def _model_numbers(self, A: "CSCMatrix", cfg: SketchConfig) -> dict:
        """The Eq. 4 quantities for this problem on this machine.

        Returns the density ``rho``, RNG cost ``h``, cache words ``M``,
        the model-optimal block column width and its computational
        intensity, and the machine balance ``B`` the CI is compared to.
        """
        rho = A.density
        if not (0.0 < rho <= 1.0):
            return {}
        from ..model.blocksize import optimize_blocks

        h = self.machine.h(cfg.distribution)
        M = self.machine.cache_words
        model = optimize_blocks(rho, M, h)
        return {
            "rho": rho, "h": h, "M_words": M,
            "model_n1": model.n1, "model_d1": model.d1,
            "model_ci": model.ci,
            "machine_balance": self.machine.machine_balance,
        }


def compile_plan(A: "CSCMatrix", config: SketchConfig | None = None, *,
                 machine: MachineModel | None = None,
                 d: int | None = None, gamma: float | None = None,
                 persistence: PersistencePolicy | None = None,
                 tune: str = "model", driver: str = "auto",
                 pool: "WorkerPoolConfig | None" = None,
                 partition: "PartitionSpec | int | None" = None,
                 batch_seeds=None,
                 cache: "ArtifactCache | CachePolicy | None" = None
                 ) -> SketchPlan:
    """One-call planning: ``compile_plan(A, cfg, gamma=3.0)``.

    Convenience wrapper over :class:`Planner` for callers that don't
    keep a planner around.
    """
    return Planner(machine, tune=tune).compile(
        A, config, d=d, gamma=gamma, persistence=persistence, driver=driver,
        pool=pool, partition=partition, batch_seeds=batch_seeds, cache=cache)
