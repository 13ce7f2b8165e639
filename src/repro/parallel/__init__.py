"""Shared-memory parallelism: resilient thread-pool execution with fault
recovery and numerical guardrails, the supervised multi-process pool
behind the ``process`` driver, and the bandwidth-saturation scaling
model behind the Table VII reproduction."""

from .bandwidth import (
    PredictedRun,
    bandwidth_at,
    predict_time,
    rng_rate_per_core,
)
from .procpool import ProcessPoolSupervisor, WorkerPoolConfig, pool_start_method
from .resilience import (
    DegradationPolicy,
    ResilienceConfig,
    RunHealth,
    TaskFailure,
    backoff_seconds,
    column_abs_sums,
    entry_abs_bound,
    validate_block,
)
from .scaling import (
    ScalingPoint,
    measure_strong_scaling,
    parallel_efficiency,
    simulate_strong_scaling,
)

__all__ = [
    "PredictedRun",
    "bandwidth_at",
    "predict_time",
    "rng_rate_per_core",
    "ProcessPoolSupervisor",
    "WorkerPoolConfig",
    "pool_start_method",
    "DegradationPolicy",
    "ResilienceConfig",
    "RunHealth",
    "TaskFailure",
    "backoff_seconds",
    "column_abs_sums",
    "entry_abs_bound",
    "validate_block",
    "ScalingPoint",
    "measure_strong_scaling",
    "parallel_efficiency",
    "simulate_strong_scaling",
]
