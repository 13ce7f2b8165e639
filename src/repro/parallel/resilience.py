"""Resilience policies and health reporting for the parallel executor.

Distributed SpGEMM systems treat per-task scheduling and failure
accounting as first-class citizens; this module is the shared-memory
analogue for the blocked sketching SpMM.  It defines

* :class:`ResilienceConfig` — per-task retry budget, deadlines, and the
  numerical-guardrail policy (``raise`` / ``recompute`` / ``mask``);
* :class:`DegradationPolicy` — what to do after repeated failures: fall
  back algo4→algo3 (the pattern-oblivious kernel) and parallel→serial;
* :class:`RunHealth` — the structured report of everything that happened
  (attempts, retries, timeouts, repaired blocks, every degradation
  decision) that rides on :class:`repro.kernels.KernelStats` and surfaces
  in the CLI;
* the block guardrail helpers: finiteness plus a magnitude bound derived
  from the entry distribution's moments
  (``|Ahat[i,k]| <= max|S| * ||A[:,k]||_1`` for bounded distributions).

Retries are *safe* for this workload because both generator families key
their output on ``(seed, block offsets, sparse row)`` — recomputing a
block from a fresh generator reproduces it bit-identically, so a repaired
run equals a fault-free run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..rng.distributions import Distribution
from ..sparse.csc import CSCMatrix

__all__ = [
    "DegradationPolicy",
    "ResilienceConfig",
    "RunHealth",
    "TaskFailure",
    "GUARDRAIL_POLICIES",
    "backoff_seconds",
    "column_abs_sums",
    "entry_abs_bound",
    "validate_block",
]

GUARDRAIL_POLICIES = ("raise", "recompute", "mask")

#: Gaussian entries are unbounded; bound them at this many standard
#: deviations (P(|N(0,1)| > 16) ~ 1e-57 — astronomically safe per entry).
_GAUSSIAN_SIGMAS = 16.0


@dataclass(frozen=True)
class DegradationPolicy:
    """What the executor may sacrifice to finish a run.

    Fallback ordering (each step recorded in :class:`RunHealth`):

    1. ``kernel_fallback`` — a task that exhausts its retries under
       Algorithm 4 gets one fresh retry budget under Algorithm 3, the
       pattern-oblivious kernel (Table VI shows algo4 is the fragile one
       on adversarial patterns; algo3's strided CSC path has no blocked
       structure to corrupt).
    2. ``serial_fallback`` — tasks that still fail inside the thread pool
       are re-run once in the driver thread after the pool drains
       (isolates failures caused by parallel execution itself).

    Only after both steps fail does
    :class:`repro.errors.RetryExhaustedError` reach the caller.
    """

    kernel_fallback: bool = True
    serial_fallback: bool = True


@dataclass(frozen=True)
class ResilienceConfig:
    """Per-task fault-handling configuration for the resilient executor.

    Attributes
    ----------
    max_retries:
        Extra attempts per task after the first (0 disables retrying).
        Recomputation is exact — generators are keyed on ``(seed, block
        offsets)``, never on thread — so a retry reproduces the fault-free
        block bit-identically.
    task_timeout:
        Per-task deadline in seconds (``None`` = no deadline).  With
        ``threads >= 2`` the driver thread detects overdue tasks while
        workers run and can act mid-flight; on single-thread paths (and
        the degradation ladder's serial rung) the deadline is enforced
        post-hoc after each task returns, so a request deadline still
        binds when the ladder bottoms out at serial.
    reexecute_stragglers:
        On deadline expiry, speculatively re-execute the task in the
        driver thread (first finisher wins; losers are discarded).  When
        ``False``, a deadline miss raises
        :class:`repro.errors.TaskTimeoutError` instead.  Serial paths
        cannot preempt a running kernel: there an overrun is recorded
        in the health report (re-execution would be pointless — the
        committed result is already bit-identical), or raises when this
        is ``False``.
    guardrail:
        Post-block validation policy: ``None`` (off — the seed
        behaviour), ``"raise"`` (fail fast with
        :class:`repro.errors.SketchQualityError`), ``"recompute"``
        (treat the violation as a transient fault and retry), or
        ``"mask"`` (zero the block, record it, continue — the sketch
        stays finite but loses those rows' contribution).
    guardrail_bound_factor:
        Safety factor on the moment-derived magnitude bound
        ``factor * max|entry| * max_k ||A[:, k]||_1``.
    degradation:
        See :class:`DegradationPolicy`.
    retry_backoff:
        Base delay in seconds slept before each retry (0.0 — the seed
        behaviour — disables backoff entirely).  The delay grows by
        ``retry_backoff_factor`` per failed attempt, is capped at
        ``retry_backoff_max``, and is jittered *deterministically*: the
        jitter fraction is derived from the task's RNG key via
        :func:`repro.faults.plan.task_hash`, never from wall-clock
        entropy, so fault-injection runs replay bit-identically (see
        :func:`backoff_seconds`).
    retry_backoff_factor:
        Exponential growth factor per additional failure (>= 1).
    retry_backoff_max:
        Ceiling on any single backoff sleep, pre-jitter.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    reexecute_stragglers: bool = True
    guardrail: str | None = None
    guardrail_bound_factor: float = 4.0
    degradation: DegradationPolicy = DegradationPolicy()
    retry_backoff: float = 0.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, (int, np.integer)) or \
                isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ConfigError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )
        if self.guardrail is not None and self.guardrail not in GUARDRAIL_POLICIES:
            raise ConfigError(
                f"guardrail must be None or one of {GUARDRAIL_POLICIES}, "
                f"got {self.guardrail!r}"
            )
        if not self.guardrail_bound_factor >= 1.0:
            raise ConfigError(
                f"guardrail_bound_factor must be >= 1, got "
                f"{self.guardrail_bound_factor}"
            )
        if not self.retry_backoff >= 0.0:
            raise ConfigError(
                f"retry_backoff must be non-negative, got {self.retry_backoff}"
            )
        if not self.retry_backoff_factor >= 1.0:
            raise ConfigError(
                f"retry_backoff_factor must be >= 1, got "
                f"{self.retry_backoff_factor}"
            )
        if not self.retry_backoff_max >= 0.0:
            raise ConfigError(
                f"retry_backoff_max must be non-negative, got "
                f"{self.retry_backoff_max}"
            )


def backoff_seconds(base: float, factor: float, cap: float, *,
                    seed: int, task: tuple[int, int], attempt: int) -> float:
    """Deterministic exponential backoff with task-keyed jitter.

    ``min(cap, base * factor**(attempt - 1))`` scaled into
    ``[0.5, 1.0)`` by a jitter fraction derived from
    :func:`repro.faults.plan.task_hash` of ``(seed, i, j)`` salted with
    the attempt number — the same key the generators use, never
    wall-clock entropy.  Two runs of the same plan with the same fault
    schedule therefore sleep the *exact* same durations, which keeps
    fault-injection replays bit-identical in their scheduling too.
    *attempt* counts from 1 (the first retry).
    """
    if base <= 0.0 or attempt < 1:
        return 0.0
    from ..faults.plan import task_hash

    raw = min(cap, base * factor ** (attempt - 1))
    i, j = int(task[0]), int(task[1])
    frac = task_hash(seed, i, j, salt=0x42AC0FF ^ attempt) / float(1 << 64)
    return raw * (0.5 + 0.5 * frac)


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt at a block task."""

    task: tuple[int, int]     # (row offset i, column offset j)
    attempt: int
    kind: str                 # exception class name or guardrail violation
    message: str
    context: str              # 'parallel' or 'serial'


@dataclass
class RunHealth:
    """Structured account of one resilient run.

    ``decisions`` is the human-readable audit trail: every retry, straggler
    re-execution, guardrail action, and degradation step appends one line,
    so a surprising sketch can always be explained after the fact.
    """

    tasks: int = 0
    completed: int = 0
    attempts: int = 0
    retries: int = 0
    failures: list = field(default_factory=list)        # list[TaskFailure]
    timeouts: int = 0
    stragglers_reexecuted: int = 0
    guardrail_violations: int = 0
    corrupted_blocks_repaired: int = 0
    masked_blocks: int = 0
    kernel_fallbacks: int = 0
    degraded_to_serial: bool = False
    decisions: list = field(default_factory=list)       # list[str]
    backend: str = ""                                   # kernel backend used
    # Process-pool supervision (zero outside the "process" driver).
    workers_spawned: int = 0
    workers_lost: int = 0
    worker_respawns: int = 0
    tasks_requeued: int = 0
    quarantined_tasks: int = 0
    degraded_to_thread: bool = False
    # Observer exceptions the EventBus swallowed during the run —
    # surfaced here so silent metrics/tracing failures reach run reports.
    dropped_events: int = 0
    # Artifact-cache traffic during the run (zero when no cache is
    # attached); a warm "fixed A, many sketches" run shows hits with no
    # misses — the property tests and the cache-smoke CI leg assert on
    # exactly these fields.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        """Did every task commit a block (possibly after recovery)?"""
        return self.completed == self.tasks

    @property
    def clean(self) -> bool:
        """Did the run complete with no faults, retries, or degradation?

        Dropped observer events deliberately do *not* taint cleanliness:
        observers cannot perturb a sketch, only fail to watch it.
        """
        return (self.ok and self.attempts == self.tasks
                and not self.failures and self.guardrail_violations == 0
                and self.timeouts == 0 and self.workers_lost == 0
                and self.quarantined_tasks == 0)

    def record(self, decision: str) -> None:
        """Append one line to the audit trail."""
        self.decisions.append(decision)

    def as_dict(self) -> dict:
        """JSON-ready representation (CLI ``--json`` / logging)."""
        return {
            "ok": self.ok,
            "clean": self.clean,
            "tasks": self.tasks,
            "completed": self.completed,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": [
                {"task": list(f.task), "attempt": f.attempt, "kind": f.kind,
                 "message": f.message, "context": f.context}
                for f in self.failures
            ],
            "timeouts": self.timeouts,
            "stragglers_reexecuted": self.stragglers_reexecuted,
            "guardrail_violations": self.guardrail_violations,
            "corrupted_blocks_repaired": self.corrupted_blocks_repaired,
            "masked_blocks": self.masked_blocks,
            "kernel_fallbacks": self.kernel_fallbacks,
            "degraded_to_serial": self.degraded_to_serial,
            "decisions": list(self.decisions),
            "backend": self.backend,
            "workers_spawned": self.workers_spawned,
            "workers_lost": self.workers_lost,
            "worker_respawns": self.worker_respawns,
            "tasks_requeued": self.tasks_requeued,
            "quarantined_tasks": self.quarantined_tasks,
            "degraded_to_thread": self.degraded_to_thread,
            "dropped_events": self.dropped_events,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def merge(self, other: "RunHealth") -> None:
        """Fold another run's health report into this one.

        Counters add, lists extend, ``degraded_to_serial`` ORs, and the
        backend attribution is adopted when unset here (used by
        :meth:`repro.kernels.KernelStats.merge` so aggregating parallel
        shards never drops recovery history).
        """
        self.tasks += other.tasks
        self.completed += other.completed
        self.attempts += other.attempts
        self.retries += other.retries
        self.failures.extend(other.failures)
        self.timeouts += other.timeouts
        self.stragglers_reexecuted += other.stragglers_reexecuted
        self.guardrail_violations += other.guardrail_violations
        self.corrupted_blocks_repaired += other.corrupted_blocks_repaired
        self.masked_blocks += other.masked_blocks
        self.kernel_fallbacks += other.kernel_fallbacks
        self.degraded_to_serial = (self.degraded_to_serial
                                   or other.degraded_to_serial)
        self.workers_spawned += other.workers_spawned
        self.workers_lost += other.workers_lost
        self.worker_respawns += other.worker_respawns
        self.tasks_requeued += other.tasks_requeued
        self.quarantined_tasks += other.quarantined_tasks
        self.degraded_to_thread = (self.degraded_to_thread
                                   or other.degraded_to_thread)
        self.dropped_events += other.dropped_events
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.decisions.extend(other.decisions)
        if not self.backend:
            self.backend = other.backend

    def summary(self) -> str:
        """One-line digest for plain-text CLI output."""
        parts = [f"tasks={self.completed}/{self.tasks}",
                 f"attempts={self.attempts}", f"retries={self.retries}"]
        if self.backend:
            parts.insert(0, f"backend={self.backend}")
        if self.timeouts:
            parts.append(f"stragglers={self.stragglers_reexecuted}/{self.timeouts}")
        if self.guardrail_violations:
            parts.append(f"guardrail={self.guardrail_violations}"
                         f"(repaired={self.corrupted_blocks_repaired},"
                         f"masked={self.masked_blocks})")
        if self.kernel_fallbacks:
            parts.append(f"kernel_fallbacks={self.kernel_fallbacks}")
        if self.workers_spawned or self.workers_lost:
            parts.append(f"workers={self.workers_spawned}"
                         f"(lost={self.workers_lost},"
                         f"respawned={self.worker_respawns})")
        if self.tasks_requeued:
            parts.append(f"requeued={self.tasks_requeued}")
        if self.quarantined_tasks:
            parts.append(f"quarantined={self.quarantined_tasks}")
        if self.degraded_to_thread:
            parts.append("degraded=thread")
        if self.degraded_to_serial:
            parts.append("degraded=serial")
        if self.dropped_events:
            parts.append(f"dropped_events={self.dropped_events}")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache={self.cache_hits}h/{self.cache_misses}m")
        parts.append("clean" if self.clean else "recovered" if self.ok else "FAILED")
        return " ".join(parts)


# -- numerical guardrails --------------------------------------------------


def column_abs_sums(A: CSCMatrix) -> np.ndarray:
    """Per-column ``||A[:, k]||_1`` — the data half of the magnitude bound.

    One O(nnz) pass, computed once per guardrailed run and shared by every
    task's validation.
    """
    out = np.zeros(A.shape[1], dtype=np.float64)
    if A.nnz:
        counts = A.col_nnz()
        nonempty = counts > 0
        starts = A.indptr[:-1][nonempty]
        out[nonempty] = np.add.reduceat(np.abs(A.data), starts)
    return out


def entry_abs_bound(dist: Distribution) -> float:
    """Largest |entry| the distribution can emit (pre ``post_scale``).

    Uniform variants and Rademacher are hard-bounded by construction;
    Gaussian entries are cut off at ``16 sigma`` (violation probability
    ~1e-57 per entry — any finite sample exceeding it is corruption, not
    luck).
    """
    if dist.name == "uniform":
        return 1.0
    if dist.name == "uniform_scaled":
        return 2.0 ** 31
    if dist.name == "rademacher":
        return 1.0
    # Generic / Gaussian: moment-based cutoff (variance is post-post_scale,
    # so undo the scale to bound the raw kernel accumulation).
    sigma = float(np.sqrt(dist.variance)) / dist.post_scale
    return _GAUSSIAN_SIGMAS * sigma


def validate_block(block: np.ndarray, bound: float | None) -> str | None:
    """Check one computed ``Ahat`` block; return a violation label or ``None``.

    ``bound`` is the precomputed magnitude ceiling for this block
    (``None`` skips the magnitude check).  The finiteness check runs
    first: NaN/Inf also fail any comparison, but deserve the more precise
    label.
    """
    if not np.isfinite(block).all():
        return "non-finite"
    if bound is not None and block.size and float(np.abs(block).max()) > bound:
        return "magnitude"
    return None
