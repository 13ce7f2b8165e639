"""Strong-scaling harnesses: simulated (machine model) and measured (real).

Table VII sweeps 1..32 threads over two blocking configurations for both
algorithms on shar_te2-b2 and reports time and GFlops.  On this
reproduction's host, real threads demonstrate *correctness* under
parallel execution, while the machine model demonstrates the *scaling
shape* (see DESIGN.md's substitution table): the paper's own explanation
of its scaling data is the bandwidth-saturation story this model encodes.

:func:`simulate_strong_scaling` runs the model; :func:`measure_strong_scaling`
runs real threads through the plan runtime's ``engine`` driver.
Both return :class:`ScalingPoint` rows directly comparable to Table VII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import ConfigError
from ..model.machine import MachineModel
from ..model.traffic import algo3_traffic, algo4_traffic
from ..rng.base import SketchingRNG
from ..sparse.csc import CSCMatrix
from .bandwidth import predict_time

__all__ = ["ScalingPoint", "simulate_strong_scaling", "measure_strong_scaling",
           "parallel_efficiency"]


@dataclass(frozen=True)
class ScalingPoint:
    """One row of a Table VII-style scaling sweep."""

    algorithm: str
    threads: int
    seconds: float
    gflops: float
    bound: str  # "compute", "memory", or "measured"


def simulate_strong_scaling(
    A: CSCMatrix,
    d: int,
    machine: MachineModel,
    *,
    kernel: str,
    b_d: int,
    b_n: int,
    threads_list: Sequence[int],
    dist: str = "uniform",
    include_conversion: bool = False,
) -> list[ScalingPoint]:
    """Predict time/GFlops across thread counts under the machine model.

    ``include_conversion`` charges Algorithm 4's blocked-CSR build as a
    bandwidth-bound serial pass over the matrix (its cost is O(m) pointer
    work per block plus an nnz shuffle — memory-intensive, per Section
    III-B).
    """
    if kernel not in ("algo3", "algo4"):
        raise ConfigError(f"kernel must be 'algo3' or 'algo4', got {kernel!r}")
    h = machine.h(dist)
    if kernel == "algo3":
        traffic = algo3_traffic(A, d, b_d, b_n)
    else:
        traffic = algo4_traffic(A, d, b_d, b_n)
    serial = 0.0
    if include_conversion and kernel == "algo4":
        m, n = A.shape
        conv_words = 2.0 * A.nnz + (-(-n // b_n)) * (m + 1.0)
        serial = conv_words * 8.0 / (machine.bandwidth_gbs * 1e9)
    points = []
    for p in threads_list:
        run = predict_time(traffic, machine, p, h, serial_seconds=serial)
        points.append(ScalingPoint(kernel, p, run.seconds, run.gflops, run.bound))
    return points


def measure_strong_scaling(
    A: CSCMatrix,
    d: int,
    rng_factory: Callable[[int], SketchingRNG],
    *,
    kernel: str,
    b_d: int,
    b_n: int,
    threads_list: Sequence[int],
) -> list[ScalingPoint]:
    """Run the real thread-pool executor across thread counts and time it."""
    from ..plan.runtime import Runtime
    from ..plan.spec import ProblemSpec, RngSpec, SketchPlan

    probe = rng_factory(0)
    points = []
    for p in threads_list:
        plan = SketchPlan(
            problem=ProblemSpec(m=A.shape[0], n=A.shape[1], d=d, nnz=A.nnz),
            kernel=kernel, b_d=b_d, b_n=b_n,
            rng=RngSpec(kind=probe.family, seed=probe.seed,
                        distribution=probe.dist.name),
            threads=p, driver="engine")
        stats = Runtime().run(plan, A, rng_factory=rng_factory).stats
        points.append(
            ScalingPoint(kernel, p, stats.total_seconds, stats.gflops_rate,
                         "measured")
        )
    return points


def parallel_efficiency(points: Sequence[ScalingPoint]) -> dict[int, float]:
    """Efficiency ``t_1 / (p * t_p)`` relative to the 1-thread entry.

    The paper's headline "parallel efficiency of up to 45%" at 32 threads
    is this quantity.
    """
    base = next((pt.seconds for pt in points if pt.threads == 1), None)
    if base is None:
        raise ConfigError("efficiency needs a 1-thread baseline point")
    return {pt.threads: base / (pt.threads * pt.seconds) for pt in points}
