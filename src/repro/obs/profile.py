"""Roofline-annotated profile of one sketching run.

The paper's evaluation is accounting-driven: Tables III–VI split runtime
into sample/compute/conversion buckets, and Section III's roofline model
(Eq. 4–7) predicts what fraction of machine peak those buckets should
sustain.  A :class:`ProfileReport` packages both sides for a single run —
the *measured* numbers straight from the returned
:class:`~repro.kernels.KernelStats` (bit-for-bit: ``attained_gflops`` is
``stats.gflops_rate``, ``sample_fraction`` is ``stats.sample_fraction``)
and the *model-predicted* numbers from the machine model — so "did this
run perform as the paper says it should?" is a one-object answer.

Model numbers are taken from the plan's recorded
:class:`~repro.plan.PlanDecision` data when the run was compiled by the
:class:`~repro.plan.Planner` (they then reflect the machine the planner
actually used), and recomputed from the given
:class:`~repro.model.MachineModel` otherwise; the ``pregen`` baseline is
scored against the classical blocked-GEMM intensity
(:func:`repro.model.roofline.gemm_ci`) since it performs no on-the-fly
generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..model.machine import LAPTOP, MachineModel
from ..model.roofline import fraction_of_peak, gemm_ci

if TYPE_CHECKING:  # pragma: no cover
    from ..kernels.stats import KernelStats
    from ..plan.runtime import SketchResult
    from ..plan.spec import SketchPlan

__all__ = ["ProfileReport", "build_profile"]

PROFILE_FORMAT_VERSION = 1


@dataclass
class ProfileReport:
    """Measured vs. model-predicted accounting for one run."""

    kernel: str
    backend: str
    driver: str
    machine: str
    # problem
    m: int
    n: int
    d: int
    nnz: int | None
    rho: float | None
    # measured (bit-for-bit from KernelStats)
    total_seconds: float
    sample_seconds: float
    compute_seconds: float
    conversion_seconds: float
    cpu_seconds: float
    wall_seconds: float
    sample_fraction: float
    attained_gflops: float
    samples_generated: int
    flops: int
    blocks_processed: int
    rng_samples_per_second: float
    # roofline model (Eq. 4-7)
    model_ci: float | None
    machine_balance: float
    peak_gflops: float
    predicted_fraction_of_peak: float | None
    predicted_gflops: float | None
    attained_fraction_of_peak: float
    gemm_ci: float
    # event-derived
    checkpoints_written: int = 0
    checkpoint_seconds: float = 0.0
    checkpoint_max_seconds: float = 0.0
    retries: int = 0
    degraded: int = 0
    dropped_events: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def model_ratio(self) -> float | None:
        """Attained over model-predicted GFlop/s (1.0 = on the roofline)."""
        if not self.predicted_gflops:
            return None
        return self.attained_gflops / self.predicted_gflops

    def as_dict(self) -> dict:
        return {
            "version": PROFILE_FORMAT_VERSION,
            "kernel": self.kernel,
            "backend": self.backend,
            "driver": self.driver,
            "machine": self.machine,
            "problem": {"m": self.m, "n": self.n, "d": self.d,
                        "nnz": self.nnz, "rho": self.rho},
            "measured": {
                "total_seconds": self.total_seconds,
                "sample_seconds": self.sample_seconds,
                "compute_seconds": self.compute_seconds,
                "conversion_seconds": self.conversion_seconds,
                "cpu_seconds": self.cpu_seconds,
                "wall_seconds": self.wall_seconds,
                "sample_fraction": self.sample_fraction,
                "attained_gflops": self.attained_gflops,
                "samples_generated": self.samples_generated,
                "flops": self.flops,
                "blocks_processed": self.blocks_processed,
                "rng_samples_per_second": self.rng_samples_per_second,
            },
            "roofline": {
                "model_ci": self.model_ci,
                "machine_balance": self.machine_balance,
                "peak_gflops": self.peak_gflops,
                "predicted_fraction_of_peak":
                    self.predicted_fraction_of_peak,
                "predicted_gflops": self.predicted_gflops,
                "attained_fraction_of_peak": self.attained_fraction_of_peak,
                "model_ratio": self.model_ratio,
                "gemm_ci": self.gemm_ci,
            },
            "events": {
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_seconds": self.checkpoint_seconds,
                "checkpoint_max_seconds": self.checkpoint_max_seconds,
                "retries": self.retries,
                "degraded": self.degraded,
                "dropped_events": self.dropped_events,
            },
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        """Human-readable profile block for the CLI."""
        nnz = "?" if self.nnz is None else str(self.nnz)
        rho = "?" if self.rho is None else f"{self.rho:.3e}"
        lines = [
            f"profile: {self.kernel} on {self.machine} "
            f"({self.driver} driver, {self.backend} backend)",
            f"  problem     : {self.m} x {self.n}, nnz={nnz} (rho={rho}), "
            f"d={self.d}",
            f"  time        : total={self.total_seconds:.4f}s "
            f"sample={self.sample_seconds:.4f}s "
            f"compute={self.compute_seconds:.4f}s "
            f"conversion={self.conversion_seconds:.4f}s",
            f"  parallelism : cpu={self.cpu_seconds:.4f}s "
            f"wall={self.wall_seconds:.4f}s",
            f"  rng         : {self.samples_generated} samples, "
            f"{self.rng_samples_per_second:.3e}/s, "
            f"sample fraction {self.sample_fraction:.1%}",
            f"  attained    : {self.attained_gflops:.3f} GFlop/s "
            f"({self.attained_fraction_of_peak:.2%} of "
            f"{self.peak_gflops:g} GFlop/s peak)",
        ]
        if self.predicted_gflops is not None:
            ratio = self.model_ratio
            lines.append(
                f"  roofline    : model CI {self.model_ci:.2f} vs balance "
                f"{self.machine_balance:.2f} -> predicted "
                f"{self.predicted_gflops:.3f} GFlop/s "
                f"({self.predicted_fraction_of_peak:.2%} of peak); "
                f"attained/predicted = "
                + (f"{ratio:.3f}" if ratio is not None else "n/a"))
        else:
            lines.append("  roofline    : no model prediction "
                         "(density unknown)")
        lines.append(f"  gemm ci     : {self.gemm_ci:.2f} "
                     f"(classical blocked-GEMM sqrt(M) intensity)")
        if self.checkpoints_written:
            lines.append(
                f"  checkpoints : {self.checkpoints_written} written, "
                f"{self.checkpoint_seconds:.4f}s total "
                f"(max {self.checkpoint_max_seconds:.4f}s)")
        if self.retries or self.degraded:
            lines.append(f"  resilience  : retries={self.retries} "
                         f"degraded={self.degraded}")
        if self.dropped_events:
            lines.append(f"  observers   : {self.dropped_events} event(s) "
                         f"dropped by failing observer handlers")
        return "\n".join(lines)


def _model_ci(plan: "SketchPlan | None", machine: MachineModel,
              kernel: str, rho: float | None) -> float | None:
    """Eq. 4 computational intensity for this run.

    Prefers the numbers the planner recorded in the blocking decision
    (they reflect the planner's machine); falls back to re-running the
    block optimizer on *machine*; ``pregen`` uses the GEMM intensity.
    """
    if kernel == "pregen":
        return gemm_ci(machine.cache_words)
    if plan is not None:
        for dec in plan.decisions:
            if dec.field == "blocking" and "model_ci" in dec.data:
                return float(dec.data["model_ci"])
    if rho is None or not (0.0 < rho <= 1.0):
        return None
    from ..model.blocksize import optimize_blocks

    model = optimize_blocks(rho, machine.cache_words, machine.h("uniform"))
    return float(model.ci)


def build_profile(result: "SketchResult | None" = None, *,
                  stats: "KernelStats | None" = None,
                  plan: "SketchPlan | None" = None,
                  machine: MachineModel | None = None,
                  driver: str = "",
                  checkpoints: tuple[int, float, float] = (0, 0.0, 0.0),
                  retries: int = 0, degraded: int = 0,
                  dropped_events: int = 0) -> ProfileReport:
    """Assemble a :class:`ProfileReport` from a run's artefacts.

    Pass either a :class:`~repro.plan.SketchResult` (*result*) or the
    *stats*/*plan* pair explicitly.  *checkpoints* is
    ``(count, total_seconds, max_seconds)`` as aggregated from
    ``checkpoint_written`` events (the :class:`~repro.obs.RunObserver`
    does this); *machine* defaults to the conservative ``LAPTOP``
    preset, matching the planner's default.
    """
    if result is not None:
        stats = result.stats if stats is None else stats
        plan = result.plan if plan is None else plan
    if stats is None:
        raise ValueError("build_profile needs a result or stats")
    machine = machine if machine is not None else LAPTOP

    if plan is not None:
        m, n, d = plan.problem.m, plan.problem.n, plan.problem.d
        nnz = plan.problem.nnz
        kernel = plan.kernel
    else:
        d = stats.d
        m = n = 0
        nnz = None
        kernel = stats.kernel
    rho = None if (nnz is None or m == 0 or n == 0) else nnz / (m * n)

    attained = stats.gflops_rate
    peak = machine.peak_gflops
    ci = _model_ci(plan, machine, kernel, rho)
    predicted_fraction = None if ci is None else fraction_of_peak(ci, machine)
    predicted = None if predicted_fraction is None \
        else predicted_fraction * peak
    ck_count, ck_total, ck_max = checkpoints

    return ProfileReport(
        kernel=kernel,
        backend=str(stats.extra.get("backend", "numpy")),
        driver=driver,
        machine=machine.name,
        m=m, n=n, d=d, nnz=nnz, rho=rho,
        total_seconds=stats.total_seconds,
        sample_seconds=stats.sample_seconds,
        compute_seconds=stats.compute_seconds,
        conversion_seconds=stats.conversion_seconds,
        cpu_seconds=stats.cpu_seconds,
        wall_seconds=stats.wall_seconds,
        sample_fraction=stats.sample_fraction,
        attained_gflops=attained,
        samples_generated=stats.samples_generated,
        flops=stats.flops,
        blocks_processed=stats.blocks_processed,
        rng_samples_per_second=(stats.samples_generated / stats.sample_seconds
                                if stats.sample_seconds > 0 else 0.0),
        model_ci=ci,
        machine_balance=machine.machine_balance,
        peak_gflops=peak,
        predicted_fraction_of_peak=predicted_fraction,
        predicted_gflops=predicted,
        attained_fraction_of_peak=(attained / peak if peak > 0 else 0.0),
        gemm_ci=gemm_ci(machine.cache_words),
        checkpoints_written=ck_count,
        checkpoint_seconds=ck_total,
        checkpoint_max_seconds=ck_max,
        retries=retries,
        degraded=degraded,
        dropped_events=dropped_events,
    )
