"""Saturating-bandwidth performance model for multithreaded runs.

Section V-B: "One of the main obstacles to parallel sparse algorithms is
the increasing cost of memory traffic that scales up with the number of
threads.  Eventually when the memory bandwidth is saturated, the parallel
algorithm becomes memory-bound and performance will degrade."  The model
here captures exactly that: compute resources (flops *and* RNG, since
generated numbers cost arithmetic, not bus traffic) scale linearly with
threads, while bandwidth follows a STREAM-like curve that grows linearly
until the socket saturates and then plateaus.

The predicted time of a kernel with traffic estimate ``T`` on machine
``M`` with ``p`` threads is::

    time(p) = max( flop_time(p) + rng_time(p),  memory_time(p) )

with ``memory_time`` using the *penalty-weighted but h-free* word count
(RNG entries never touch the bus — the whole point of regeneration).  This
is the engine behind the Table VII reproduction: blocking choices change
the traffic estimate, which changes where each configuration saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..model.machine import MachineModel
from ..model.traffic import TrafficEstimate
from ..utils.validation import check_positive_int

__all__ = ["bandwidth_at", "rng_rate_per_core", "PredictedRun", "predict_time"]


def bandwidth_at(machine: MachineModel, threads: int) -> float:
    """Deliverable bandwidth (bytes/s) at a thread count.

    Linear ramp to the saturation knee, flat afterwards — the shape a
    STREAM sweep produces on both of the paper's machines.
    """
    threads = check_positive_int(threads, "threads")
    peak = machine.bandwidth_gbs * 1e9
    knee = machine.bandwidth_saturation_threads
    return peak * min(1.0, threads / knee)


def rng_rate_per_core(machine: MachineModel, h: float) -> float:
    """Entries/second one core can generate, derived from ``h``.

    By the paper's definition, generating one entry costs ``h`` times
    moving one word; a single core moves ``BW_1 / 8`` words/s where
    ``BW_1`` is the single-thread bandwidth, so it generates
    ``BW_1 / (8 h)`` entries/s.
    """
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}")
    bw1 = bandwidth_at(machine, 1)
    return bw1 / (8.0 * h)


@dataclass(frozen=True)
class PredictedRun:
    """Model-predicted execution profile of one kernel configuration."""

    threads: int
    seconds: float
    compute_seconds: float
    rng_seconds: float
    memory_seconds: float
    gflops: float
    bound: str  # "compute" or "memory"


def predict_time(traffic: TrafficEstimate, machine: MachineModel,
                 threads: int, h: float,
                 serial_seconds: float = 0.0) -> PredictedRun:
    """Predict wall time of a kernel run under the saturating-BW model.

    Parameters
    ----------
    traffic:
        Per-algorithm traffic decomposition (:mod:`repro.model.traffic`).
    h:
        Effective RNG cost for the distribution in use
        (``machine.h(dist)``).
    serial_seconds:
        Unparallelized overhead added on top (e.g. Algorithm 4's format
        conversion when not amortized).
    """
    threads = check_positive_int(threads, "threads")
    if h < 0:
        raise ConfigError(f"h must be non-negative, got {h}")
    # Threads beyond the physical cores add no compute throughput (the
    # paper's 32-thread Frontera runs oversubscribe a 28-core socket).
    workers = min(threads, machine.cores)
    peak_flops = machine.peak_gflops * 1e9 * (workers / machine.cores)
    flop_time = traffic.flops / peak_flops
    rng_time = (
        traffic.rng_entries / (rng_rate_per_core(machine, max(h, 1e-12)) * workers)
        if traffic.rng_entries
        else 0.0
    )
    # Scattered accesses stall the issuing core even when the bus is idle
    # (missed prefetches, pointer chasing) — this is the Section II-B
    # "architectures that are sensitive to random access" effect that makes
    # Frontera prefer Algorithm 3 *sequentially*.  Charge the excess over a
    # streamed access as per-core latency, parallelizable across threads.
    word_time_1 = 8.0 / bandwidth_at(machine, 1)
    scatter_time = (
        (machine.random_access_penalty - 1.0)
        * traffic.words_output_scattered * word_time_1 / workers
    )
    # Memory side: raw streamed words (the penalty is a core stall, not
    # extra bus traffic) and no h term (generation is compute, not traffic).
    words = traffic.effective_words(0.0, 1.0)
    memory_time = words * 8.0 / bandwidth_at(machine, threads)
    compute_side = flop_time + rng_time + scatter_time
    seconds = max(compute_side, memory_time) + serial_seconds
    return PredictedRun(
        threads=threads,
        seconds=seconds,
        compute_seconds=flop_time + scatter_time,
        rng_seconds=rng_time,
        memory_seconds=memory_time,
        gflops=traffic.flops / seconds / 1e9,
        bound="compute" if compute_side >= memory_time else "memory",
    )
