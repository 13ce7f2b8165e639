"""Plan-driven execution engine: the one task scheduler of every block-task plan.

:class:`PlanExecutionEngine` is the ``"engine"`` driver of
:class:`repro.plan.Runtime` and, pinned to its serial rung, the
``"serial"`` driver every plain ``sketch()`` call runs on; its
:meth:`~PlanExecutionEngine.run_tasks` schedules the ``"process"``
driver's runs too, so all three honour the same policies.  Each block
task writes a disjoint tile of ``Ahat``, and generators key their output
on ``(seed, block row offset, sparse row)``, never on the thread or
process that computes it, so a task may run, retry or replay anywhere
with the same bits (paper Section IV-C; ``tests/plan/test_contract.py``).

The scheduler owns the ready queue, the commit claim and count, the
charge for a failed attempt (failure note, budget, deterministic
:func:`~repro.parallel.resilience.backoff_seconds` delay on one due-heap,
``retry`` or ``task_requeued`` event), the run deadline, and the work
totals behind the run's one :class:`~repro.kernels.KernelStats`; it only
schedules.  What a checkpointing run persists (stripe lineages,
row-block completion, cadence, resume) belongs to
:class:`~repro.persist.shards.StripeCheckpoints`, which the scheduler
tells of each stripe and each commit, whichever rung (a worker process
included) computed the tile.  One loop, ``_drive``, walks a
ladder of rungs, each a set of slots:

* **processes** (process plans only): a
  :class:`~repro.parallel.procpool.ProcessPoolSupervisor`'s live workers,
  one task in flight each, waited on with
  :func:`multiprocessing.connection.wait` from the scheduler's thread;
  ``WorkerPoolConfig.max_requeues`` replays a task;
* **threads** (``threads > 1``; at most four under a process plan):
  futures, two per thread; ``ResilienceConfig.max_retries`` retries per
  kernel (algo4 falls back to algo3), and a task past ``task_timeout``
  is re-executed in the scheduler's thread (first commit wins);
* **serial** (one thread, or ``serial_fallback``): one slot, the
  scheduler's own thread, with ``task_timeout`` enforced after the fact.
  Its tasks run in plan order, so Algorithm 4 reuses each row block's
  last panel (:attr:`PlanExecutionEngine.panels`); the other rungs
  sample every block, so no count depends on which slot ran a task.

The engine's own accumulator is born zeroed in the kernels' apply layout
(:func:`~repro.kernels.blocking.zeros_in_apply_layout`), so its tile is
zeroed again only before a repeat attempt at the task; a tile of an
output handed in (the process pool's shared segment) before every one.

Tasks a rung cannot finish go down with one ``degraded`` event
(``pool_fallback``, ``serial_fallback``); every decision lands in the
run's :class:`~repro.parallel.resilience.RunHealth`.  Without a
resilience policy, checkpoints or fault-hook subscribers the engine runs
bare: one attempt, no fallback, the task's own exception, no health
report.  Fault injection subscribes to the ``task_start`` /
``rng_request`` / ``block_computed`` hooks
(:meth:`repro.faults.FaultInjector.register`).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import (
    ConfigError,
    RetryExhaustedError,
    ShapeError,
    SketchQualityError,
    TaskTimeoutError,
)
from ..faults.plan import InjectedCrashError
from ..kernels.algo4 import PanelMemo
from ..kernels.backends import NUMPY
from ..kernels.blocking import (
    compute_tile,
    iter_block_tasks,
    tile_work,
    zeros_in_apply_layout,
)
from ..kernels.stats import KernelStats
from ..plan.events import (
    BLOCK_COMPUTED,
    BLOCK_DONE,
    BLOCK_START,
    DEGRADED,
    FAULT_HOOK_EVENTS,
    RETRY,
    RNG_REQUEST,
    TASK_REQUEUED,
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
    from .procpool import ProcessPoolSupervisor

__all__ = ["PlanExecutionEngine"]

RngFactory = Callable[[int], SketchingRNG]

Task = tuple[int, int, int, int]  # (i, d1, j, n1)

#: A finished attempt as a rung reports it: the task index, ``None``
#: (committed) or the failure's ``(kind, message)``, and for a tile a
#: worker process computed, its work record for the commit to count.
Outcome = tuple[int, "tuple[str, str] | None", "dict | None"]

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
        construction: their presence turns on the health report.
    blocked:
        Pre-built blocked CSR (Algorithm 4); built here (and timed) when
        absent.
    injector:
        Passed through to the checkpoint manager's storage-fault hooks
        only; task-level injection reaches the engine via bus
        subscriptions (:meth:`repro.faults.FaultInjector.register`).
    fleet:
        A started :class:`~repro.parallel.procpool.ProcessPoolSupervisor`
        whose workers form the ladder's first rung.  Its in-process rungs
        then run on at most four threads under the plan's resilience
        policy (or the default one), and the health report is always on.
    serial:
        Pin the scheduler to its serial rung (the runtime's ``"serial"``
        driver): one thread whatever ``plan.threads`` says, and stats
        that name the bare kernel.
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
        fleet: "ProcessPoolSupervisor | None" = None,
        serial: bool = False,
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
        self.threads = (1 if serial else plan.threads if fleet is None
                        else max(1, min(4, plan.threads)))
        self._label = ("" if serial else "-parallel" if fleet is None
                       else "-procpool")  # the stats' kernel suffix
        self.kernel = plan.kernel
        self.b_d = plan.b_d
        self.b_n = plan.b_n
        self.rng_factory = rng_factory
        self.blocked = blocked
        self.bus = bus if bus is not None else EventBus()
        self._fleet = fleet
        # Hook subscriptions are sampled once: the injector registers
        # before the run starts, and per-attempt has_subscribers calls
        # would put a lock acquisition on the hot path.
        self._hooked = self.bus.has_subscribers(*FAULT_HOOK_EVENTS)
        self._track_blocks = self.bus.has_subscribers(BLOCK_START, BLOCK_DONE)

        self._injector = injector
        #: The run's :class:`~repro.persist.shards.StripeCheckpoints`
        #: (built by :meth:`run` when the plan persists).
        self.checkpoints = None
        # A resilience policy, fault hooks, durable checkpoints or a
        # worker fleet make the run recover with the default policy and
        # report its health; without any of them the loop runs bare.
        self.resilient = (plan.resilience is not None or self._hooked
                          or plan.persistence.enabled
                          or fleet is not None)
        self.resilience = plan.resilience or (
            ResilienceConfig() if self.resilient else _BARE)
        self._deadline: float | None = None

        self.health = RunHealth()

        # Thread-private RNG / stopwatch contexts, registered for the
        # final stats aggregation; worker processes report their time and
        # samples with each commit (the first watch, ``_remote_samples``).
        self._tls = threading.local()
        self._ctx_lock = threading.Lock()
        self._worker_counter = 0
        self._all_rngs: list[SketchingRNG] = []
        self._all_watches: list[Stopwatch] = [Stopwatch()]
        self._remote_samples = 0
        #: The serial rung's Algorithm 4 panels, kept for the whole run.
        self.panels = PanelMemo()

        # Scheduler state: the task list being run, the commit claims
        # (a straggler's speculative duplicate races its original), and
        # the current rung's failed attempts per task.
        self._tasks: list[Task] = []
        self._claim_lock = threading.Lock()
        self._claimed: set[int] = set()
        self._written: set[int] = set()  # tasks an attempt began on
        self._fresh: np.ndarray | None = None  # _prepare's zeroed output
        self._tries: dict[int, int] = {}
        self._violated: set[int] = set()

        self._colabs: np.ndarray | None = None
        self._entry_bound = 0.0
        self.Ahat: np.ndarray | None = None
        self._block_by_offset: dict[int, object] = (
            dict(blocked.iter_blocks()) if blocked is not None else {})

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
        self.Ahat = self._fresh = zeros_in_apply_layout(
            (self.batch, self.d, n) if self.batch > 1 else (self.d, n))
        return conversion_seconds

    def _thread_ctx(self, fresh: bool = False
                    ) -> tuple[SketchingRNG, Stopwatch]:
        """This thread's generator and stopwatch.  *fresh* re-derives the
        generator for a retry, discarding any corrupted checkpoint state
        (safe because generators are coordinate-keyed)."""
        tls = self._tls
        if not hasattr(tls, "watch"):
            with self._ctx_lock:
                tls.worker = self._worker_counter
                self._worker_counter += 1
                tls.watch = Stopwatch()
                self._all_watches.append(tls.watch)
            fresh = True
        if fresh:
            tls.rng = self.rng_factory(tls.worker)
            with self._ctx_lock:
                self._all_rngs.append(tls.rng)
        return tls.rng, tls.watch

    def _view(self, task: Task) -> np.ndarray:
        """The output tile for *task*: every sketch's (i, j) block."""
        i, d1, j, n1 = task
        return self.Ahat[..., i:i + d1, j:j + n1]

    def _finish_stats(self, conversion_seconds: float,
                      total_seconds: float) -> KernelStats:
        # Two time axes: busy seconds summed over threads or worker
        # processes (cpu_seconds) vs. the driver's wall clock — with
        # several slots the former exceeds the latter, and derived rates
        # must not mix them up.
        # Worker processes' time sits in the first watch, their samples
        # in _remote_samples; retries' fresh generators count too.
        work = {
            "sample": sum(w.total("sample") for w in self._all_watches),
            "compute": sum(w.total("compute") for w in self._all_watches),
            "samples": (self._remote_samples
                        + sum(r.samples_generated for r in self._all_rngs)),
        }
        fleet = self._fleet
        stats = KernelStats(
            kernel=self.kernel + self._label,
            sample_seconds=work["sample"],
            compute_seconds=work["compute"],
            conversion_seconds=conversion_seconds,
            total_seconds=total_seconds,
            cpu_seconds=work["sample"] + work["compute"],
            wall_seconds=total_seconds,
            samples_generated=work["samples"],
            flops=self.batch * spmm_flops(self.d, self.A.nnz),
            blocks_processed=self.health.tasks,
            d=self.d, b_d=self.b_d, b_n=self.b_n,
            extra={**({"threads": self.threads, "resilient": self.resilient}
                      if fleet is None else fleet.stats_extra()),
                   "backend": NUMPY.name,
                   **({"batch": self.batch} if self.batch > 1 else {})},
            health=self.health if self.resilient else None,
        )
        if self.checkpoints is not None:
            self.checkpoints.record(stats)
        return stats

    # -- one attempt ------------------------------------------------------

    def _bound_for(self, task: Task) -> float:
        if self._colabs is None:
            self._colabs = column_abs_sums(self.A)
            self._entry_bound = entry_abs_bound(self.rng_factory(0).dist)
        i, d1, j, n1 = task
        seg = self._colabs[j:j + n1]
        mx = float(seg.max()) if seg.size else 0.0
        return self.resilience.guardrail_bound_factor * self._entry_bound * mx

    def _commit(self, idx: int, work: dict,
                target: np.ndarray | None = None,
                remote: bool = False) -> None:
        """Claim task *idx* and count it.  *work* is the tile's
        ``sample`` and ``compute`` seconds and its ``samples``, which
        ``block_done`` carries; a *remote* tile's (a worker process
        computed it) joins the run's totals here.  *target* is an
        attempt's private tile to copy in."""
        i, d1, j, n1 = self._tasks[idx]
        with self._claim_lock:
            if idx in self._claimed:
                return  # a speculative duplicate won the race; discard
            self._claimed.add(idx)
            if target is not None:
                self._view(self._tasks[idx])[...] = target
            self.health.completed += 1
            if remote:
                self._all_watches[0].add("sample", work["sample"])
                self._all_watches[0].add("compute", work["compute"])
                self._remote_samples += work["samples"]
        if self._track_blocks:
            self.bus.emit(BLOCK_DONE, task=(i, j), i=i, d1=d1, j=j, n1=n1,
                          kernel=self.kernel,
                          sample_seconds=work["sample"],
                          compute_seconds=work["compute"],
                          samples=work["samples"])
        if self.checkpoints is not None:
            self.checkpoints.commit(i)

    def _attempt(self, idx: int, kernel: str, attempt: int, context: str,
                 memo: PanelMemo | None = None) -> "tuple[str, str] | None":
        """Run one attempt at task *idx* in the calling thread, with the
        serial rung's *memo*.

        Returns ``None`` once the tile is committed (or a duplicate beat
        it), else the failure ``(kind, message)`` for the scheduler to
        charge.  Raises what no retry can mend: a guardrail ``raise``
        (:class:`SketchQualityError`), configuration errors, a simulated
        crash, and under the bare policy the attempt's own exception.
        """
        cfg = self.resilience
        task = self._tasks[idx]
        i, d1, j, n1 = task
        key = (i, j)
        view = self._view(task)
        # Scratch buffers are only needed when speculative duplicates can
        # race on the same block (deadline-triggered re-execution).
        scratch = cfg.task_timeout is not None and self.threads > 1
        rng, watch = self._thread_ctx(fresh=attempt > 1)
        target = np.zeros(view.shape) if scratch else view
        if not scratch and (self.Ahat is not self._fresh
                            or idx in self._written):
            target[:] = 0.0
        self._written.add(idx)
        try:
            if self._hooked:
                self.bus.emit(TASK_START, task=key, kernel=kernel,
                              context=context, attempt=attempt)
                rng = self.bus.emit(RNG_REQUEST, task=key, kernel=kernel,
                                    context=context, attempt=attempt,
                                    rng=rng)["rng"]
            before = tile_work(watch, rng)
            compute_tile(kernel, target, self.A, self._block_by_offset,
                         i, j, n1, rng, watch,
                         **({} if memo is None else {"memo": memo}))
            work = tile_work(watch, rng, before)
            if self._hooked:
                self.bus.emit(BLOCK_COMPUTED, task=key, kernel=kernel,
                              context=context, attempt=attempt, block=target)
            violation = (validate_block(target, self._bound_for(task))
                         if cfg.guardrail is not None else None)
            if violation is None:
                self._commit(idx, work, target if scratch else None)
                if idx in self._violated and cfg.guardrail == "recompute":
                    with self._ctx_lock:
                        self.health.corrupted_blocks_repaired += 1
                        self.health.record(
                            f"task {key}: corrupted block repaired by "
                            f"recompute (attempt {attempt})")
                return None
            with self._ctx_lock:
                self.health.guardrail_violations += 1
            if cfg.guardrail == "raise":
                raise SketchQualityError(
                    f"task {key}: {violation} values in computed block "
                    f"(guardrail policy 'raise')")
            if cfg.guardrail == "mask":
                target[:] = 0.0
                self._commit(idx, work, target if scratch else None)
                with self._ctx_lock:
                    self.health.masked_blocks += 1
                    self.health.record(
                        f"task {key}: {violation} block masked to zero "
                        f"(guardrail policy 'mask')")
                return None
            # policy 'recompute': a failed attempt like any other.
            return (f"guardrail-{violation}",
                    f"{violation} values in computed block")
        except (SketchQualityError, ConfigError, ShapeError,
                InjectedCrashError):
            # Not transient: configuration bugs, and a torn_write fault
            # that fired while _commit checkpointed (it simulates process
            # death, so retrying it would defeat the test).
            raise
        except Exception as exc:  # noqa: BLE001 - fault boundary
            if cfg is _BARE:
                raise
            return type(exc).__name__, str(exc)

    # -- the scheduler ----------------------------------------------------

    def _kernels(self) -> list[str]:
        fallback = (self.resilience.degradation.kernel_fallback
                    and self.kernel == "algo4")
        return [self.kernel] + (["algo3"] if fallback else [])

    def _kernel_for(self, idx: int) -> str:
        """The kernel of task *idx*'s next in-process attempt."""
        budget = 1 + self.resilience.max_retries
        return self._kernels()[self._tries.get(idx, 0) // budget]

    def _overran(self, idx: int, detail: str) -> tuple[int, int]:
        """Count task *idx* past its ``task_timeout``; raise unless the
        policy keeps going.  Returns the task's key."""
        i, _d1, j, _n1 = self._tasks[idx]
        self.health.timeouts += 1
        if not self.resilience.reexecute_stragglers:
            raise TaskTimeoutError(
                f"task {(i, j)} missed its {self.resilience.task_timeout}s "
                f"deadline {detail}")
        return (i, j)

    def _start(self, context: str, idx: int) -> tuple[str, int]:
        """Count an attempt at task *idx*; returns its kernel and number."""
        self.health.attempts += 1
        if self._track_blocks:
            i, d1, j, n1 = self._tasks[idx]
            self.bus.emit(BLOCK_START, task=(i, j), i=i, d1=d1, j=j, n1=n1,
                          kernel=self.kernel)
        kernel = self.kernel if context == "process" else self._kernel_for(idx)
        return kernel, self._tries.get(idx, 0) + 1

    def _charge(self, context: str, idx: int, kind: str,
                message: str) -> float | None:
        """Charge a failed attempt at task *idx* on the *context* rung.

        Notes the failure, then returns the delay before the task may run
        again, or ``None`` once the rung's budget for it is spent: worker
        replays (``max_requeues``) on the process rung, retries per
        kernel (``max_retries``) on the in-process rungs.
        """
        i, _d1, j, _n1 = self._tasks[idx]
        key = (i, j)
        n = self._tries[idx] = self._tries.get(idx, 0) + 1
        health = self.health
        health.failures.append(TaskFailure(task=key, attempt=n, kind=kind,
                                           message=message, context=context))
        if context == "process":
            pool = self._fleet.pool
            if n > pool.max_requeues:
                health.quarantined_tasks += 1
                health.record(
                    f"task {key}: poison — {n - 1} replays failed ({kind}); "
                    f"quarantined for the degradation ladder")
                return None
            delay = backoff_seconds(pool.backoff_base, pool.backoff_factor,
                                    pool.backoff_max, seed=self.plan.rng.seed,
                                    task=key, attempt=n)
            health.tasks_requeued += 1
            health.record(
                f"task {key}: requeued ({kind}), replay {n}"
                f"/{pool.max_requeues}, backoff {delay * 1e3:.1f} ms")
            self.bus.emit(TASK_REQUEUED, task=key, reason=kind, replays=n,
                          backoff=delay)
            return delay
        cfg = self.resilience
        if kind.startswith("guardrail-"):
            self._violated.add(idx)
        budget = 1 + cfg.max_retries
        kernels = self._kernels()
        if n % budget:
            health.retries += 1
            health.record(f"task {key}: attempt {n} failed ({kind}); "
                          f"retrying with fresh RNG")
            self.bus.emit(RETRY, task=key, attempt=n, kind=kind,
                          context=context)
            # Deterministic jitter keyed on the task's RNG coordinates:
            # two runs of the same plan wait the same amount, so retry
            # timing never introduces wall-clock entropy into traces.
            return backoff_seconds(
                cfg.retry_backoff, cfg.retry_backoff_factor,
                cfg.retry_backoff_max, seed=self.plan.rng.seed, task=key,
                attempt=n)
        if n // budget < len(kernels):
            old, new = kernels[n // budget - 1], kernels[n // budget]
            health.kernel_fallbacks += 1
            health.record(f"task {key}: {old} exhausted its retries; "
                          f"degrading to pattern-oblivious {new}")
            self.bus.emit(DEGRADED, kind="kernel_fallback", task=key,
                          from_kernel=old, to_kernel=new)
            return 0.0
        return None

    def _exhausted(self, idx: int) -> RetryExhaustedError:
        i, _d1, j, _n1 = self._tasks[idx]
        return RetryExhaustedError(
            f"task {(i, j)} failed after {self._tries[idx]} attempts "
            f"({', '.join(self._kernels())}); see RunHealth.failures")

    def _check_deadline(self, in_flight: int) -> None:
        """Raise :class:`TaskTimeoutError` once the run deadline passed."""
        if self._deadline is None or time.monotonic() < self._deadline:
            return
        health = self.health
        pending = health.tasks - health.completed
        health.timeouts += 1
        health.record(f"run deadline expired: {pending} task(s) "
                      f"unfinished, {in_flight} in flight cancelled")
        raise TaskTimeoutError(
            f"run deadline expired with {pending}/{health.tasks} task(s) "
            f"unfinished ({in_flight} claimed-but-uncommitted cancelled)")

    def _drive(self, rung, queue: list[int], last: bool) -> list[int]:
        """Run the tasks *queue* indexes on *rung*'s slots; returns the
        ones it hands down the ladder, in task order."""
        ready = deque(queue)
        due: list[tuple[float, int]] = []  # backoff heap: (instant, idx)
        down: list[int] = []
        self._tries, self._violated = {}, set()
        while True:
            self._check_deadline(rung.busy)
            now = time.monotonic()
            while due and due[0][0] <= now:
                ready.append(heapq.heappop(due)[1])
            while ready and rung.free():
                idx = ready.popleft()
                if idx not in self._claimed:
                    rung.dispatch(idx, self._tasks[idx],
                                  *self._start(rung.context, idx))
            if not (ready or due or rung.busy):
                break
            wake = [t for t in (due[0][0] if due else None, self._deadline)
                    if t is not None]
            timeout = max(0.0, min(wake) - now) if wake else None
            for idx, failure, work in rung.poll(timeout):
                if failure is None and work is not None:
                    self._commit(idx, work, remote=True)
                if failure is None or idx in self._claimed:
                    continue
                delay = self._charge(rung.context, idx, *failure)
                if delay is None and last:
                    raise self._exhausted(idx)
                if delay is None:
                    down.append(idx)
                elif delay > 0:
                    heapq.heappush(due, (time.monotonic() + delay, idx))
                else:
                    ready.append(idx)
            if rung is self._fleet:
                # Respawn lost workers while work is left; a fleet with
                # none left hands the rest down the ladder.
                rung.top_up(len(ready) + len(due) + rung.busy)
                if not rung.alive:
                    break
        left = set(down).union(ready, (idx for _t, idx in due))
        return sorted(left - self._claimed)

    def run_tasks(self, tasks: list[Task], out: np.ndarray, *,
                  deadline: float | None = None) -> None:
        """The scheduler: compute each task's tile of *out* in place.

        Walks the ladder — the fleet's worker processes, then threads,
        then the scheduler's own thread — handing each rung the tasks
        the one above could not finish.  *out* is the run's accumulator
        (pre-``post_scale``).  *deadline* is an absolute
        ``time.monotonic()`` instant after which the run stops with
        :class:`TaskTimeoutError`.
        """
        self.Ahat = out
        self._tasks = tasks
        self._deadline = deadline
        self._claimed, self._written = set(), set()
        ladder = [self._fleet] if self._fleet is not None else []
        if self.threads > 1:
            ladder.append(_Threads(self))
        if self.threads == 1 or self.resilience.degradation.serial_fallback:
            ladder.append(_Serial(self))
        queue = list(range(len(tasks)))
        above = None  # the context of the rung that handed *queue* down
        try:
            for rung in ladder:
                if not queue:
                    break
                if above:
                    self._step_down(above, len(queue))
                queue = self._drive(rung, queue, last=rung is ladder[-1])
                above = rung.context
        finally:
            for rung in ladder:
                if isinstance(rung, _Threads):
                    # Drop queued tasks and join the running ones — a
                    # straggler's original, or the other slots when a
                    # failure ends the run — so no slot thread outlives
                    # the run.
                    rung.pool.shutdown(cancel_futures=True)
    def _step_down(self, context: str, count: int) -> None:
        kind, flag, what = (
            ("pool_fallback", "degraded_to_thread", "unfinishable in the "
             "process pool; degrading process -> thread")
            if context == "process" else
            ("serial_fallback", "degraded_to_serial", "unrecoverable in the "
             "pool; degrading parallel -> serial re-execution"))
        setattr(self.health, flag, True)
        self.health.record(f"{count} task(s) {what}")
        self.bus.emit(DEGRADED, kind=kind, tasks=count)

    # -- entry points ------------------------------------------------------

    def run(self, stripes: "Stripes | None", merge: Callable[[int, int], None],
            *, out: np.ndarray | None = None, deadline: float | None = None,
            conversion_seconds: float = 0.0) -> KernelStats:
        """Run every stripe's task group into *out* (default ``Ahat``).

        *stripes* (:class:`~repro.plan.runtime.Stripes`; default one
        full-width stripe) cuts the column-outer task list into groups:
        each runs on :meth:`run_tasks`, then its barrier calls
        ``merge(c0, c1)`` on the stripe's columns.  A plan that persists
        hands each stripe's checkpoints to
        :class:`~repro.persist.shards.StripeCheckpoints`.  Returns the
        run's stats.
        """
        if stripes is None:
            from ..plan.runtime import Stripes

            stripes = Stripes(self.plan, self.bus)
        if out is not None:
            self.Ahat = out
        if self.plan.persistence.enabled:
            from ..persist.shards import StripeCheckpoints

            self.checkpoints = StripeCheckpoints(
                self.plan, self.rng_factory(0), stripes, self.bus,
                injector=self._injector, health=self.health)
        ckpt = self.checkpoints
        all_tasks = list(iter_block_tasks(self.d, self.A.shape[1],
                                          self.b_d, self.b_n))
        self.health.tasks = len(all_tasks)
        self.health.backend = NUMPY.name
        with Timer() as total:
            for k in range(len(stripes.bounds)):
                stripes.start(k)
                tasks, resumed = all_tasks[stripes.tasks(k)], None
                if ckpt is not None:
                    left, resumed = ckpt.enter(k, tasks, self.Ahat)
                    self.health.tasks -= len(tasks) - len(left)
                    tasks = left
                self.run_tasks(tasks, self.Ahat, deadline=deadline)
                if ckpt is not None:
                    ckpt.seal()
                stripes.commit(k, merge, resumed)
        return self._finish_stats(conversion_seconds, total.elapsed)

    def execute(self, stripes: "Stripes | None" = None
                ) -> tuple[np.ndarray, KernelStats]:
        """Execute the plan; returns ``(Ahat, stats)``.

        ``stats.health`` carries the :class:`RunHealth` report when the
        plan has a resilience policy, checkpoints or fault hooks
        (``None`` otherwise).
        """
        conversion_seconds = self._prepare()
        return self.Ahat, self.run(stripes, self._post_scale_columns,
                                   conversion_seconds=conversion_seconds)

    def _post_scale_columns(self, c0: int, c1: int) -> None:
        post = self.rng_factory(0).post_scale
        if post != 1.0:
            self.Ahat[..., c0:c1] *= post


# -- the in-process rungs -----------------------------------------------------
#
# A rung is a set of slots: ``free()`` says whether it can take a task,
# ``dispatch`` hands it one, ``poll(timeout)`` waits for finished attempts
# (at most *timeout* seconds; ``None`` waits for the next one) and
# ``busy`` counts tasks dispatched but not yet polled.  The process rung is
# the ProcessPoolSupervisor itself, which also answers ``alive`` and
# ``top_up`` (respawns).


class _Serial:
    """The last rung: one slot, the scheduler's own thread.

    :meth:`dispatch` runs the attempt at once.  A serial attempt cannot
    be preempted, so ``task_timeout`` binds after the fact: an overrun
    fails the run (the strict contract a request deadline needs) or is
    recorded and the committed result kept — re-running would only
    reproduce the same bytes slower.
    """

    context = "serial"

    def __init__(self, engine: PlanExecutionEngine) -> None:
        self.engine = engine
        self.done: list[Outcome] = []

    @property
    def busy(self) -> int:
        return len(self.done)

    def free(self) -> bool:
        return not self.done

    def dispatch(self, idx: int, task: Task, kernel: str,
                 attempt: int) -> None:
        engine = self.engine
        started = time.monotonic()
        failure = engine._attempt(idx, kernel, attempt, self.context,
                                  engine.panels)
        elapsed = time.monotonic() - started
        limit = engine.resilience.task_timeout
        if failure is None and limit is not None and elapsed > limit:
            key = engine._overran(
                idx, f"({elapsed:.3f}s elapsed) on the serial path")
            engine.health.record(
                f"task {key}: serial execution overran the {limit}s "
                f"deadline ({elapsed:.3f}s); committed result kept "
                f"(serial re-execution is bit-identical)")
        self.done.append((idx, failure, None))

    def poll(self, timeout: float | None) -> list[Outcome]:
        if not self.done:
            time.sleep(timeout)  # a retry's backoff
        done, self.done = self.done, []
        return done


class _Threads:
    """The thread rung: futures, stragglers re-executed in the scheduler's
    thread."""

    context = "parallel"

    def __init__(self, engine: PlanExecutionEngine) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.engine = engine
        self.pool = ThreadPoolExecutor(max_workers=engine.threads)
        #: future -> [task index, start instant (set by its thread), overdue]
        self.running: dict = {}

    @property
    def busy(self) -> int:
        return len(self.running)

    def free(self) -> bool:
        # Two tasks per thread: a thread that finishes one starts the next
        # at once, without waiting for the scheduler's thread to wake.
        return len(self.running) < 2 * self.engine.threads

    def dispatch(self, idx: int, task: Task, kernel: str,
                 attempt: int) -> None:
        slot = [idx, None, False]
        self.running[self.pool.submit(self._run, slot, kernel, attempt)] = slot

    def _run(self, slot: list, kernel: str, attempt: int):
        slot[1] = time.monotonic()  # time queued behind another is no overrun
        return self.engine._attempt(slot[0], kernel, attempt, self.context)

    def poll(self, timeout: float | None) -> list[Outcome]:
        if not self.running:
            time.sleep(timeout)  # a retry's backoff
            return []
        limit = self.engine.resilience.task_timeout
        if limit is not None:
            # Wake when the next task turns straggler; a task still queued
            # is timed from now.
            now = time.monotonic()
            due = [(started or now) + limit - now
                   for _idx, started, overdue in self.running.values()
                   if not overdue]
            if due:
                timeout = max(0.0, min(due if timeout is None
                                       else due + [timeout]))
        from concurrent.futures import FIRST_COMPLETED, wait

        done, _ = wait(self.running, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        out = [(self.running.pop(fut)[0], fut.result(), None)
               for fut in done]
        if limit is not None:
            now = time.monotonic()
            for slot in self.running.values():
                idx, started, overdue = slot
                if not overdue and started and now - started > limit:
                    slot[2] = True
                    out.append((idx, self._straggler(idx), None))
        return out

    def _straggler(self, idx: int) -> "tuple[str, str] | None":
        """Re-execute an overdue task in the scheduler's thread."""
        engine = self.engine
        key = engine._overran(idx, "and straggler re-execution is disabled")
        health = engine.health
        health.stragglers_reexecuted += 1
        health.record(f"task {key}: straggler past the "
                      f"{engine.resilience.task_timeout}s deadline; "
                      f"speculatively re-executing in the driver thread")
        engine.bus.emit(RETRY, task=key, attempt=0, kind="straggler",
                        context="serial")
        health.attempts += 1
        return engine._attempt(idx, engine._kernel_for(idx),
                               engine._tries.get(idx, 0) + 1, "serial")
