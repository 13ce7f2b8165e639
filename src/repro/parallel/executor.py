"""Plan-driven execution engine for the blocked sketching SpMM.

:class:`PlanExecutionEngine` is the ``"engine"`` driver of
:class:`repro.plan.Runtime`: it executes a compiled
:class:`~repro.plan.SketchPlan` over Algorithm 1's block tasks with real
shared-memory parallelism, optional fault handling, and durable
checkpoints.  Every task writes a disjoint block of ``Ahat`` and reads
only immutable inputs, so the execution is race-free by construction;
each worker gets its *own* :class:`~repro.rng.SketchingRNG` instance
(from a factory), so RNG state and instrumentation counters are
thread-private.

Reproducibility across thread counts: both generator families key their
output on ``(seed, block row offset, sparse row)``, never on which thread
runs the block, so the computed ``Ahat`` is bit-identical for any thread
count and any task order — the property tested in ``tests/parallel``.
(This mirrors the paper's Section IV-C discussion: counter-based RNGs
give thread-independent sketches; our checkpointed xoshiro is also
thread-independent *given fixed blocking* because checkpoints are keyed
by coordinates.)

The same coordinate-keying makes the engine *resilient*: a failed block
task can be recomputed from a fresh generator and the result is
bit-identical to a fault-free run.  :meth:`PlanExecutionEngine.run_tasks`
is the one in-process task loop (it also finishes the process pool's
leftover tasks): with ``threads > 1`` it hands tasks out one per free
pool slot, and each task gets bounded retries, a per-task deadline with
straggler re-execution, numerical guardrails (NaN/Inf/magnitude checks
with ``raise``/``recompute``/``mask`` policies), and a
:class:`~repro.parallel.resilience.DegradationPolicy` that falls back
algo4→algo3 and parallel→serial — every decision recorded in a
:class:`~repro.parallel.resilience.RunHealth` report on the returned
:class:`~repro.kernels.KernelStats`.  Without a resilience policy,
checkpoints or fault-hook subscribers the loop runs a bare policy: one
attempt, no fallback, the task's own exception, no health report.

Observation happens through the plan layer's event bus rather than
callbacks threaded through the internals: the engine emits
``block_start``/``block_done``, ``retry``, ``degraded``, and
``checkpoint_written`` lifecycle events, and fires the
``task_start``/``rng_request``/``block_computed`` hook events that fault
injection subscribes to (see :meth:`repro.faults.FaultInjector.register`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import (
    ConfigError,
    RetryExhaustedError,
    ShapeError,
    SketchQualityError,
    TaskFailedError,
    TaskTimeoutError,
)
from ..faults.plan import InjectedCrashError
from ..kernels.backends import NUMPY
from ..kernels.blocking import compute_tile, iter_block_tasks
from ..kernels.stats import KernelStats
from ..plan.events import (
    BLOCK_COMPUTED,
    BLOCK_DONE,
    BLOCK_START,
    CHECKPOINT_WRITTEN,
    DEGRADED,
    FAULT_HOOK_EVENTS,
    RETRY,
    RNG_REQUEST,
    TASK_START,
    EventBus,
)
from ..plan.spec import SketchPlan
from ..rng.base import SketchingRNG
from ..sparse.blocked_csr import BlockedCSR
from ..sparse.convert import csc_to_blocked_csr
from ..sparse.csc import CSCMatrix
from ..utils.flops import spmm_flops
from ..utils.timing import Stopwatch, Timer
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

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..plan.runtime import Stripes

__all__ = ["PlanExecutionEngine"]

RngFactory = Callable[[int], SketchingRNG]

Task = tuple[int, int, int, int]  # (i, d1, j, n1)

#: The loop's policy for a plan that asks for no resilience: one attempt
#: per task, no kernel or serial fallback, no guardrail.
_BARE = ResilienceConfig(max_retries=0, degradation=DegradationPolicy(
    kernel_fallback=False, serial_fallback=False))


class PlanExecutionEngine:
    """Executes a compiled :class:`~repro.plan.SketchPlan` over block tasks.

    Parameters
    ----------
    plan:
        The decision record: ``d``, kernel, blocking, threads,
        resilience policy, persistence policy.  The kernel must be
        ``algo3`` or ``algo4`` (``pregen`` has no block tasks and runs
        on the runtime's pregen driver).
    A, rng_factory:
        The input matrix and the per-worker generator factory.
    bus:
        The :class:`~repro.plan.EventBus` lifecycle and fault-hook
        events fire on.  Hook subscriptions are snapshotted at
        construction: their presence turns on the health report, exactly
        as passing ``injector=`` used to.
    blocked:
        Pre-built blocked CSR (Algorithm 4); built here (and timed) when
        absent.
    injector:
        Passed through to the checkpoint manager's storage-fault hooks
        only; task-level injection reaches the engine via bus
        subscriptions (:meth:`repro.faults.FaultInjector.register`).
    """

    def __init__(
        self,
        plan: SketchPlan,
        A: CSCMatrix,
        rng_factory: RngFactory,
        *,
        bus: EventBus | None = None,
        blocked: BlockedCSR | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if plan.kernel not in ("algo3", "algo4"):
            raise ConfigError(
                f"kernel must be 'algo3' or 'algo4', got {plan.kernel!r}")
        self.plan = plan
        self.A = A
        self.d = plan.problem.d
        # Batched plans accumulate a (batch, d, n) stack; every block
        # task then covers the same (i, j) tile of *all* sketches at
        # once (the batch axis is never split across tasks — that is
        # what amortizes the RNG pipeline).
        self.batch = plan.problem.batch
        self.threads = plan.threads
        self.kernel = plan.kernel
        self.b_d = plan.b_d
        self.b_n = plan.b_n
        self.rng_factory = rng_factory
        self.blocked = blocked
        self.bus = bus if bus is not None else EventBus()
        # Hook subscriptions are sampled once: the injector registers
        # before the run starts, and per-attempt has_subscribers calls
        # would put a lock acquisition on the hot path.
        self._hooked = self.bus.has_subscribers(*FAULT_HOOK_EVENTS)
        self._track_blocks = self.bus.has_subscribers(BLOCK_START, BLOCK_DONE)

        self._injector = injector
        self.checkpoint = plan.persistence.build_manager(injector)
        self.checkpoint_every = plan.persistence.every
        self._resume_requested = plan.persistence.resume
        self.resumed_from = None
        self._snapshots_before = 0  # written by earlier stripes' lineages
        # The stripe being run: its output columns and the fingerprint
        # keys naming its checkpoint lineage.
        self._window = (0, A.shape[1])
        self._identity: dict = {}
        # A resilience policy, fault hooks or durable checkpoints make the
        # run recover with the default policy and report its health;
        # without any of them the loop runs under the bare policy.
        self.resilient = (plan.resilience is not None or self._hooked
                          or self.checkpoint is not None)
        self.resilience = plan.resilience or (
            ResilienceConfig() if self.resilient else _BARE)
        self._deadline: float | None = None

        self.health = RunHealth()

        # Thread-private RNG / stopwatch contexts, registered for the
        # final stats aggregation.
        self._tls = threading.local()
        self._ctx_lock = threading.Lock()
        self._worker_counter = 0
        self._all_rngs: list[SketchingRNG] = []
        self._all_watches: list[Stopwatch] = []

        # Commit bookkeeping (speculative duplicates from straggler
        # re-execution race to claim each block).
        self._claim_lock = threading.Lock()
        self._claimed: set[int] = set()

        self._colabs: np.ndarray | None = None
        self._entry_bound = 0.0
        self.Ahat: np.ndarray | None = None
        self._block_by_offset: dict[int, object] = (
            dict(blocked.iter_blocks()) if blocked is not None else {})

        # Row-block completion tracking for checkpoint barriers: a row
        # block is complete when all its column tiles have committed, at
        # which point its rows of Ahat are final (pre-post_scale) and safe
        # to persist while other row blocks are still being computed.
        self._row_pending: dict[int, int] = {}
        self._completed_rows: set[int] = set()
        self._rows_since_snapshot = 0

    # -- durable checkpoints ------------------------------------------------

    def fingerprint(self) -> dict:
        """Immutable run identity for checkpoint compatibility checks.

        Derived from the *live* generator factory rather than the plan's
        declarative RNG spec, so executor callers with custom factories
        fingerprint what actually ran.  Describes the stripe being run:
        its width, plus its global column range when the run is sharded.
        """
        from ..persist.snapshot import run_fingerprint

        rng = self.rng_factory(0)
        c0, c1 = self._window
        fp = run_fingerprint(
            mode="blocked", d=self.d, n=c1 - c0, b_d=self.b_d,
            b_n=self.b_n, kernel=self.kernel, rng_kind=rng.family,
            seed=rng.seed, distribution=rng.dist.name,
        )
        fp.update(self._identity)
        return fp

    def _maybe_checkpoint(self, *, force: bool = False) -> None:
        """Snapshot the completed row blocks if a checkpoint is due.

        Called by whichever worker completes a row block; the manager
        serializes concurrent writers.  Row blocks still in flight are
        excluded, so every persisted byte is final.
        """
        if self.checkpoint is None:
            return
        with self._claim_lock:
            if self._rows_since_snapshot == 0:
                return
            if not force and self._rows_since_snapshot < self.checkpoint_every:
                return
            rows = sorted(self._completed_rows)
            self._rows_since_snapshot = 0
        c0, c1 = self._window
        blocks = [(r, self.Ahat[r:r + min(self.b_d, self.d - r), c0:c1])
                  for r in rows]
        with Timer() as write:
            path = self.checkpoint.save(blocks, self.fingerprint(),
                                        {"completed_rows": rows})
        self.bus.emit(CHECKPOINT_WRITTEN, path=path, rows=rows,
                      snapshots_written=self.checkpoint.snapshots_written,
                      seconds=write.elapsed)

    def _resume_from_snapshot(self, tasks: list[Task]):
        """Restore the stripe's completed row blocks; return the tasks
        still to run and the snapshot restored from (``None`` if none)."""
        from ..persist.resume import latest_verified_snapshot
        from ..persist.snapshot import FINGERPRINT_KEYS, check_fingerprint

        snap = latest_verified_snapshot(self.checkpoint.directory)
        if snap is None:
            return tasks, None
        check_fingerprint(snap.fingerprint, self.fingerprint(),
                          keys=tuple(FINGERPRINT_KEYS) + tuple(self._identity))
        completed = {int(r) for r in snap.state.get("completed_rows", [])}
        if not completed:
            return tasks, None
        arr = snap.load_array(verify=False)  # verified at load
        c0, c1 = self._window
        for r in sorted(completed):
            d1 = min(self.b_d, self.d - r)
            self.Ahat[r:r + d1, c0:c1] = arr[r:r + d1, :]
        self._completed_rows = set(completed)
        return [t for t in tasks if t[0] not in completed], snap.path

    # -- shared setup -----------------------------------------------------

    def _prepare(self) -> float:
        """Build the blocked structure (if needed) and the output; returns
        the conversion time."""
        n = self.A.shape[1]
        conversion_seconds = 0.0
        if self.kernel == "algo4" and self.blocked is None:
            self.blocked, conv = csc_to_blocked_csr(self.A, self.b_n,
                                                    threads=self.threads)
            conversion_seconds = conv.seconds
            self._block_by_offset = dict(self.blocked.iter_blocks())
        shape = ((self.batch, self.d, n) if self.batch > 1
                 else (self.d, n))
        self.Ahat = np.zeros(shape, dtype=np.float64)
        return conversion_seconds

    def _enter_stripe(self, stripes: "Stripes", k: int, tasks: list[Task]):
        """Switch to stripe *k*: its columns, its checkpoint lineage and
        its resumed rows.  Returns the stripe's tasks still to run and the
        snapshot it restored from."""
        self._window = stripes.bounds[k]
        self._identity = stripes.identity(k)
        if stripes.sharded and self.checkpoint is not None:
            self._snapshots_before += self.checkpoint.snapshots_written
            self.checkpoint = stripes.persistence(k).build_manager(
                self._injector)
        self._row_pending = {}
        self._completed_rows = set()
        self._rows_since_snapshot = 0
        tasks = tasks[stripes.tasks(k)]
        resumed = None
        if self._resume_requested:
            tasks, resumed = self._resume_from_snapshot(tasks)
            self.resumed_from = self.resumed_from or resumed
        for i, _d1, _j, _n1 in tasks:
            self._row_pending[i] = self._row_pending.get(i, 0) + 1
        return tasks, resumed

    def _thread_ctx(self) -> tuple[SketchingRNG, Stopwatch]:
        tls = self._tls
        if not hasattr(tls, "rng"):
            with self._ctx_lock:
                tls.worker = self._worker_counter
                self._worker_counter += 1
            tls.rng = self.rng_factory(tls.worker)
            tls.watch = Stopwatch()
            with self._ctx_lock:
                self._all_rngs.append(tls.rng)
                self._all_watches.append(tls.watch)
        return tls.rng, tls.watch

    def _fresh_rng(self) -> SketchingRNG:
        """Fresh RNG re-derivation for a retry (discards any corrupted
        checkpoint state; safe because generators are coordinate-keyed)."""
        tls = self._tls
        rng = self.rng_factory(getattr(tls, "worker", 0))
        tls.rng = rng
        with self._ctx_lock:
            self._all_rngs.append(rng)
        return rng

    def _view(self, task: Task) -> np.ndarray:
        """The output tile for *task*: every sketch's (i, j) block."""
        i, d1, j, n1 = task
        if self.batch > 1:
            return self.Ahat[:, i:i + d1, j:j + n1]
        return self.Ahat[i:i + d1, j:j + n1]

    def _finish_stats(self, conversion_seconds: float,
                      total_seconds: float) -> KernelStats:
        # Two time axes: per-worker busy seconds sum (cpu_seconds) vs.
        # the driver's wall clock — with threads > 1 the former exceeds
        # the latter, and derived rates must not mix them up.
        work = self.work_totals()
        stats = KernelStats(
            kernel=f"{self.kernel}-parallel",
            sample_seconds=work["sample"],
            compute_seconds=work["compute"],
            conversion_seconds=conversion_seconds,
            total_seconds=total_seconds,
            cpu_seconds=sum(w.total() for w in self._all_watches),
            wall_seconds=total_seconds,
            samples_generated=work["samples"],
            flops=self.batch * spmm_flops(self.d, self.A.nnz),
            blocks_processed=self.health.tasks,
            d=self.d, b_d=self.b_d, b_n=self.b_n,
            extra={"threads": self.threads, "resilient": self.resilient,
                   "backend": NUMPY.name,
                   **({"batch": self.batch} if self.batch > 1 else {})},
            health=self.health if self.resilient else None,
        )
        if self.checkpoint is not None:
            stats.extra["snapshots_written"] = (
                self._snapshots_before + self.checkpoint.snapshots_written)
            stats.extra["resumed_from"] = (str(self.resumed_from)
                                           if self.resumed_from else None)
        return stats

    def work_totals(self) -> dict:
        """Sampling and compute seconds and samples drawn, summed over
        every worker thread (and every retry's fresh generator)."""
        return {
            "sample": sum(w.total("sample") for w in self._all_watches),
            "compute": sum(w.total("compute") for w in self._all_watches),
            "samples": sum(r.samples_generated for r in self._all_rngs),
        }

    # -- the task loop ----------------------------------------------------

    def _bound_for(self, task: Task) -> float | None:
        if self._colabs is None:
            return None
        i, d1, j, n1 = task
        seg = self._colabs[j:j + n1]
        mx = float(seg.max()) if seg.size else 0.0
        return self.resilience.guardrail_bound_factor * self._entry_bound * mx

    def _note_failure(self, key: tuple[int, int], attempt: int, kind: str,
                      message: str, context: str) -> None:
        with self._ctx_lock:
            self.health.failures.append(TaskFailure(
                task=key, attempt=attempt, kind=kind,
                message=message, context=context))

    def _commit(self, idx: int, task: Task, target: np.ndarray,
                use_scratch: bool) -> None:
        i, d1, j, n1 = task
        row_done = False
        with self._claim_lock:
            if idx in self._claimed:
                return  # a speculative duplicate won the race; discard
            self._claimed.add(idx)
            if use_scratch:
                self._view(task)[...] = target
            if self._row_pending:
                left = self._row_pending[i] = self._row_pending[i] - 1
                if left == 0:
                    self._completed_rows.add(i)
                    self._rows_since_snapshot += 1
                    row_done = True
        with self._ctx_lock:
            self.health.completed += 1
        if self._track_blocks:
            self.bus.emit(BLOCK_DONE, task=(i, j), i=i, d1=d1, j=j, n1=n1,
                          kernel=self.kernel)
        if row_done:
            self._maybe_checkpoint()

    def _run_task(self, idx: int, task: Task, context: str) -> None:
        """Retry / guardrail / kernel-fallback state machine for one task.

        Raises :class:`SketchQualityError` (guardrail policy ``raise``) or
        :class:`RetryExhaustedError` when every recovery avenue within the
        task is spent; the driver may still degrade parallel→serial.
        Under the bare policy the attempt's own exception is raised, and
        a task that would start after the run deadline raises
        :class:`TaskTimeoutError`.
        """
        cfg = self.resilience
        i, d1, j, n1 = task
        key = (i, j)
        with self._claim_lock:
            if idx in self._claimed:
                return  # already committed by a speculative duplicate
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise TaskTimeoutError(
                f"run deadline expired before task {key} started")
        if self._track_blocks:
            self.bus.emit(BLOCK_START, task=key, i=i, d1=d1, j=j, n1=n1,
                          kernel=self.kernel)
        view = self._view(task)
        # Scratch buffers are only needed when speculative duplicates can
        # race on the same block (deadline-triggered re-execution).
        use_scratch = (cfg.task_timeout is not None and self.threads > 1)
        rng, watch = self._thread_ctx()

        kernels = [self.kernel]
        if cfg.degradation.kernel_fallback and self.kernel == "algo4":
            kernels.append("algo3")
        budget = 1 + cfg.max_retries
        attempt_no = 0
        had_violation = False

        for ki, kname in enumerate(kernels):
            if ki > 0:
                with self._ctx_lock:
                    self.health.kernel_fallbacks += 1
                    self.health.record(
                        f"task {key}: {kernels[ki - 1]} exhausted its "
                        f"retries; degrading to pattern-oblivious {kname}")
                self.bus.emit(DEGRADED, kind="kernel_fallback", task=key,
                              from_kernel=kernels[ki - 1], to_kernel=kname)
            for local in range(budget):
                attempt_no += 1
                with self._ctx_lock:
                    self.health.attempts += 1
                # A private scratch per attempt: speculative duplicates of
                # the same block never alias.
                target = np.empty(view.shape) if use_scratch else view
                target[:] = 0.0
                failure: tuple[str, str] | None = None
                try:
                    use_rng = rng
                    if self._hooked:
                        self.bus.emit(TASK_START, task=key, kernel=kname,
                                      context=context, attempt=attempt_no)
                        use_rng = self.bus.emit(
                            RNG_REQUEST, task=key, kernel=kname,
                            context=context, attempt=attempt_no, rng=rng,
                        )["rng"]
                    compute_tile(kname, target, self.A, self._block_by_offset,
                                 i, j, n1, use_rng, watch)
                    if self._hooked:
                        self.bus.emit(BLOCK_COMPUTED, task=key, kernel=kname,
                                      context=context, attempt=attempt_no,
                                      block=target)
                    violation = (validate_block(target, self._bound_for(task))
                                 if cfg.guardrail is not None else None)
                    if violation is None:
                        self._commit(idx, task, target, use_scratch)
                        if had_violation and cfg.guardrail == "recompute":
                            with self._ctx_lock:
                                self.health.corrupted_blocks_repaired += 1
                                self.health.record(
                                    f"task {key}: corrupted block repaired "
                                    f"by recompute (attempt {attempt_no})")
                        return
                    with self._ctx_lock:
                        self.health.guardrail_violations += 1
                    if cfg.guardrail == "raise":
                        raise SketchQualityError(
                            f"task {key}: {violation} values in computed "
                            f"block (guardrail policy 'raise')")
                    if cfg.guardrail == "mask":
                        target[:] = 0.0
                        self._commit(idx, task, target, use_scratch)
                        with self._ctx_lock:
                            self.health.masked_blocks += 1
                            self.health.record(
                                f"task {key}: {violation} block masked to "
                                f"zero (guardrail policy 'mask')")
                        return
                    # policy 'recompute': count as a failed attempt.
                    had_violation = True
                    failure = (f"guardrail-{violation}",
                               f"{violation} values in computed block")
                except SketchQualityError:
                    raise
                except (ConfigError, ShapeError):
                    raise  # configuration bugs are not transient: no retry
                except InjectedCrashError:
                    # A torn_write fault fired while _commit checkpointed:
                    # it simulates process death, so retrying it as a
                    # transient task failure would defeat the test.
                    raise
                except Exception as exc:  # noqa: BLE001 - fault boundary
                    if cfg is _BARE:
                        raise
                    failure = (type(exc).__name__, str(exc))
                self._note_failure(key, attempt_no, failure[0], failure[1],
                                   context)
                if local + 1 < budget:
                    with self._ctx_lock:
                        self.health.retries += 1
                        self.health.record(
                            f"task {key}: attempt {attempt_no} failed "
                            f"({failure[0]}); retrying with fresh RNG")
                    self.bus.emit(RETRY, task=key, attempt=attempt_no,
                                  kind=failure[0], context=context)
                    if cfg.retry_backoff > 0.0:
                        # Deterministic jitter keyed on the task's RNG
                        # coordinates: two runs of the same plan sleep the
                        # same amount, so retry timing never introduces
                        # wall-clock entropy into recorded traces.
                        time.sleep(backoff_seconds(
                            cfg.retry_backoff, cfg.retry_backoff_factor,
                            cfg.retry_backoff_max, seed=self.plan.rng.seed,
                            task=key, attempt=attempt_no))
                    rng = self._fresh_rng()
        raise RetryExhaustedError(
            f"task {key} failed after {attempt_no} attempts "
            f"({', '.join(k for k in kernels)}); see RunHealth.failures")

    def run_tasks(self, tasks: list[Task], out: np.ndarray, *,
                  deadline: float | None = None) -> None:
        """The task loop: compute each task's tile of *out* in place.

        One thread runs the tasks in order; ``threads > 1`` hands them to
        a pool one per free slot, then re-runs the ones that failed there
        serially if the policy allows.  *out* is the run's accumulator
        (pre-``post_scale``); the process pool passes its shared output
        to finish the tasks its workers could not.  *deadline* is an
        absolute ``time.monotonic()`` instant after which no task starts.
        """
        cfg = self.resilience
        self.Ahat = out
        self._deadline = deadline
        self._claimed = set()
        if cfg.guardrail is not None:
            self._colabs = column_abs_sums(self.A)
            self._entry_bound = entry_abs_bound(self.rng_factory(0).dist)

        if self.threads == 1:
            for idx, task in enumerate(tasks):
                self._run_serial(idx, task)
            return

        failed: list[tuple[int, Task, TaskFailedError]] = []
        pool = ThreadPoolExecutor(max_workers=self.threads)
        try:
            futures = [pool.submit(self._run_task, idx, task, "parallel")
                       for idx, task in enumerate(tasks)]
            for idx, (fut, task) in enumerate(zip(futures, tasks)):
                key = (task[0], task[2])
                try:
                    fut.result(timeout=cfg.task_timeout)
                except FuturesTimeoutError:
                    with self._ctx_lock:
                        self.health.timeouts += 1
                    if not cfg.reexecute_stragglers:
                        raise TaskTimeoutError(
                            f"task {key} missed its {cfg.task_timeout}s "
                            f"deadline and straggler re-execution is "
                            f"disabled") from None
                    with self._ctx_lock:
                        self.health.stragglers_reexecuted += 1
                        self.health.record(
                            f"task {key}: straggler past the "
                            f"{cfg.task_timeout}s deadline; speculatively "
                            f"re-executing in the driver thread")
                    self.bus.emit(RETRY, task=key, attempt=0,
                                  kind="straggler", context="serial")
                    self._run_task(idx, task, "serial")
                except TaskTimeoutError:
                    raise  # the run deadline outranks the serial rung
                except TaskFailedError as exc:
                    failed.append((idx, task, exc))
        finally:
            # After a failure that ends the run, drop the queued tasks
            # rather than compute every remaining tile before raising.
            pool.shutdown(cancel_futures=True)
        if failed:
            if not cfg.degradation.serial_fallback:
                raise failed[0][2]
            with self._ctx_lock:
                self.health.degraded_to_serial = True
                self.health.record(
                    f"{len(failed)} task(s) unrecoverable in the pool; "
                    f"degrading parallel -> serial re-execution")
            self.bus.emit(DEGRADED, kind="serial_fallback",
                          tasks=len(failed))
            for idx, task, _exc in failed:
                self._run_serial(idx, task)

    def _run_serial(self, idx: int, task: Task) -> None:
        """Run *task* in the driver thread under a post-hoc deadline.

        A serial path cannot preempt a running kernel the way the
        parallel path's ``future.result(timeout=...)`` does, so the
        deadline is enforced after the fact: an overrun either fails
        the run (``reexecute_stragglers=False`` — the strict contract a
        request deadline needs even after the degradation ladder
        bottoms out at serial) or is recorded in the health report and
        the already-committed result kept — re-executing serially would
        only reproduce the same bytes slower, since generators are
        coordinate-keyed.
        """
        started = time.monotonic()
        self._run_task(idx, task, "serial")
        elapsed = time.monotonic() - started
        cfg = self.resilience
        if cfg.task_timeout is None or elapsed <= cfg.task_timeout:
            return
        key = (task[0], task[2])
        with self._ctx_lock:
            self.health.timeouts += 1
        if not cfg.reexecute_stragglers:
            raise TaskTimeoutError(
                f"task {key} missed its {cfg.task_timeout}s deadline "
                f"({elapsed:.3f}s elapsed) on the serial path")
        with self._ctx_lock:
            self.health.record(
                f"task {key}: serial execution overran the "
                f"{cfg.task_timeout}s deadline ({elapsed:.3f}s); committed "
                f"result kept (serial re-execution is bit-identical)")

    # -- entry point -------------------------------------------------------

    def execute(self, stripes: "Stripes | None" = None
                ) -> tuple[np.ndarray, KernelStats]:
        """Execute the plan; returns ``(Ahat, stats)``.

        *stripes* (:class:`~repro.plan.runtime.Stripes`; default one
        full-width stripe) cuts the column-outer task list into groups:
        each runs on :meth:`run_tasks` over its own checkpoint lineage,
        then its barrier post-scales the stripe's columns.
        ``stats.health`` carries the :class:`RunHealth` report when the
        plan has a resilience policy, checkpoints or fault hooks
        (``None`` otherwise).
        """
        if stripes is None:
            from ..plan.runtime import Stripes

            stripes = Stripes(self.plan, self.bus)
        conversion_seconds = self._prepare()
        all_tasks = list(iter_block_tasks(self.d, self.A.shape[1],
                                          self.b_d, self.b_n))
        self.health.backend = NUMPY.name
        with Timer() as total:
            for k in range(len(stripes.bounds)):
                stripes.start(k)
                tasks, resumed = self._enter_stripe(stripes, k, all_tasks)
                self.health.tasks += len(tasks)
                self.run_tasks(tasks, self.Ahat)
                # The stripe's finish, which the pool's ladder leaves to
                # the pool: the final snapshot (if one is pending)
                # captures the accumulation *before* post-scaling — the
                # stored payload is always the raw accumulator state,
                # like an interrupted run's.
                self._maybe_checkpoint(force=True)
                stripes.commit(k, self._post_scale_columns, resumed)
        return self.Ahat, self._finish_stats(conversion_seconds,
                                             total.elapsed)

    def _post_scale_columns(self, c0: int, c1: int) -> None:
        post = self.rng_factory(0).post_scale
        if post != 1.0:
            self.Ahat[..., c0:c1] *= post
