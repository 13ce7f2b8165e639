"""Configuration for the high-level sketching API.

Bundles every knob the paper's design space exposes — sketch size (via
``gamma``), entry distribution, generator family, kernel variant, blocking
— with validated defaults matching the paper's choices (``gamma = 3`` for
SpMM benchmarks, ``gamma = 2`` for least squares; xoshiro + uniform(-1,1);
automatic kernel dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..parallel.resilience import ResilienceConfig
from ..rng.base import SketchingRNG, make_rng
from ..rng.distributions import get_distribution
from ..utils.validation import check_choice, check_positive_int

__all__ = ["SketchConfig"]

_KERNELS = ("auto", "algo3", "algo4", "pregen")
_RNG_KINDS = ("philox", "threefry", "xoshiro", "junk")


@dataclass
class SketchConfig:
    """Options controlling how a sketch ``S A`` is formed.

    Attributes
    ----------
    gamma:
        Sketch-size multiplier: ``d = ceil(gamma * n)``.  The idealized
        Gaussian analysis gives effective distortion ``1/sqrt(gamma)`` and
        preconditioned condition number ``(sqrt(gamma)+1)/(sqrt(gamma)-1)``
        (Section V preamble).
    distribution:
        Entry distribution name (see :mod:`repro.rng.distributions`).
    rng_kind:
        ``"xoshiro"`` (fast, blocking-dependent), ``"philox"`` or
        ``"threefry"`` (counter-based, fully reproducible), or ``"junk"``
        (upper-bound probe).
    kernel:
        ``"auto"`` dispatches via :func:`repro.kernels.choose_kernel` on
        the configured machine model; otherwise forces a kernel.
    b_d, b_n:
        Blocking overrides; ``None`` uses heuristics/model recommendations.
    seed:
        Generator seed.
    normalize:
        Scale the sketch by ``1/sqrt(d * var)`` so it is an approximate
        isometry (needed when comparing distortions across distributions;
        irrelevant for preconditioning, where the factor is absorbed).
    threads:
        Worker count for the parallel executor (1 = sequential driver).
    resilience:
        Fault-handling policy (:class:`repro.parallel.ResilienceConfig`):
        per-task retries, deadlines, and numerical guardrails.  ``None``
        (default) keeps the original fast execution path.  When set, the
        sketch runs through the resilient executor even with
        ``threads=1`` (so guardrails apply to sequential runs too); the
        ``pregen`` kernel ignores it.
    """

    gamma: float = 3.0
    distribution: str = "uniform"
    rng_kind: str = "xoshiro"
    kernel: str = "auto"
    b_d: int | None = None
    b_n: int | None = None
    seed: int = 0
    normalize: bool = False
    threads: int = 1
    resilience: ResilienceConfig | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gamma <= 1.0:
            raise ConfigError(
                f"gamma must exceed 1 (d must exceed n), got {self.gamma}"
            )
        get_distribution(self.distribution)  # validates the name
        check_choice(self.rng_kind, "rng_kind", _RNG_KINDS)
        check_choice(self.kernel, "kernel", _KERNELS)
        if self.b_d is not None:
            check_positive_int(self.b_d, "b_d")
        if self.b_n is not None:
            check_positive_int(self.b_n, "b_n")
        check_positive_int(self.threads, "threads")
        if self.resilience is not None and \
                not isinstance(self.resilience, ResilienceConfig):
            raise ConfigError(
                f"resilience must be a ResilienceConfig or None, got "
                f"{type(self.resilience).__name__}"
            )

    def sketch_size(self, n: int) -> int:
        """``d = ceil(gamma * n)`` for an ``n``-column input."""
        n = check_positive_int(n, "n")
        return int(-(-self.gamma * n // 1))

    def build_rng(self, worker: int = 0) -> SketchingRNG:
        """Instantiate the configured generator (fresh counters per call)."""
        return make_rng(self.rng_kind, self.seed, self.distribution)
