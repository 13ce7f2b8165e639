"""Plan/compile/execute: the decision layer above the sketching kernels.

Three pieces (see ``docs/architecture.md``):

* :class:`SketchPlan` — an immutable, JSON-serializable record of every
  decision a run needs (problem, ``d``, kernel, blocking, RNG,
  resilience, persistence) plus the reasons behind each choice;
* :class:`Planner` / :func:`compile_plan` — compiles a plan from a
  :class:`~repro.core.SketchConfig` and a
  :class:`~repro.model.MachineModel`, consolidating the kernel dispatch,
  blocking heuristics, Eq. 4 model numbers, and autotuning in one place;
* :class:`Runtime` — executes a plan on one of its drivers (serial /
  engine / pregen / process) and emits lifecycle events (``plan_compiled``,
  ``block_start``/``block_done``, ``checkpoint_written``, ``retry``,
  ``degraded``, ``done``) on an :class:`EventBus`.

``Planner`` and ``Runtime`` are loaded lazily to keep this package
importable from low-level modules without cycles.
"""

from .events import (
    BLOCK_COMPUTED,
    BLOCK_DONE,
    BLOCK_START,
    CACHE_EVICTED,
    CACHE_HIT,
    CACHE_MISS,
    CHECKPOINT_WRITTEN,
    DEGRADED,
    DONE,
    FAULT_HOOK_EVENTS,
    LIFECYCLE_EVENTS,
    PLAN_COMPILED,
    RETRY,
    RNG_REQUEST,
    SHARD_MERGED,
    SHARD_RESUMED,
    SHARD_START,
    TASK_REQUEUED,
    TASK_START,
    WORKER_LOST,
    WORKER_SPAWNED,
    Event,
    EventBus,
)
from .policy import PersistencePolicy
from .spec import (
    PLAN_FORMAT_VERSION,
    PartitionSpec,
    PlanDecision,
    ProblemSpec,
    RngSpec,
    SketchPlan,
    compute_shards,
    resilience_from_dict,
    resilience_to_dict,
)

__all__ = [
    "Event",
    "EventBus",
    "PLAN_COMPILED",
    "BLOCK_START",
    "BLOCK_DONE",
    "TASK_START",
    "RNG_REQUEST",
    "BLOCK_COMPUTED",
    "CHECKPOINT_WRITTEN",
    "RETRY",
    "DEGRADED",
    "DONE",
    "WORKER_SPAWNED",
    "WORKER_LOST",
    "TASK_REQUEUED",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_EVICTED",
    "SHARD_START",
    "SHARD_MERGED",
    "SHARD_RESUMED",
    "LIFECYCLE_EVENTS",
    "FAULT_HOOK_EVENTS",
    "PersistencePolicy",
    "PLAN_FORMAT_VERSION",
    "ProblemSpec",
    "RngSpec",
    "PlanDecision",
    "PartitionSpec",
    "compute_shards",
    "SketchPlan",
    "resilience_to_dict",
    "resilience_from_dict",
    "Planner",
    "compile_plan",
    "Runtime",
    "SketchResult",
]

_LAZY = {
    "Planner": ("planner", "Planner"),
    "compile_plan": ("planner", "compile_plan"),
    "Runtime": ("runtime", "Runtime"),
    "SketchResult": ("runtime", "SketchResult"),
}


def __getattr__(name: str):
    # PEP 562 lazy loading: planner/runtime import core.config and the
    # executor, which import this package's low-level modules — loading
    # them eagerly here would cycle during ``import repro``.
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value
