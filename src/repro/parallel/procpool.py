"""Crash-tolerant multi-process execution: the ``process`` Runtime driver.

Thread-pool execution is GIL-bound and one wedged thread can stall a
sketch, so this driver runs Algorithm 1's block tasks on N long-lived
**worker processes**.  They form the first rung of the engine's one
scheduler (:meth:`~repro.parallel.executor.PlanExecutionEngine.run_tasks`),
one task in flight per worker; this module keeps only what needs
processes:

* the frozen, JSON-round-trippable :class:`~repro.plan.SketchPlan` is
  the unit that ships to a worker — each worker maps the input from
  :mod:`multiprocessing.shared_memory` (``A``'s CSC arrays and the
  blocked CSR in the cache's flat layout,
  :func:`~repro.cache.artifacts.blocked_csr_arrays`, each segment shipped
  as ``(shm name, dtype, shape)``) and derives its generators from the
  plan's RNG spec, so any worker computes any tile bit-identically; the
  shared output is never cleared, since every tile is written whole;
* **claimed-before-commit**: the worker writes its tile into the shared
  output, checksums the *correct* bytes (:mod:`repro.persist.checksum`)
  and commits the digest over its pipe; the supervisor re-reads the
  shared bytes and reports a commit only when they match;
* **liveness**: a task's dispatch and its commit are the only messages,
  so a SIGKILLed worker surfaces as a dead pipe and a worker silent
  past ``heartbeat_timeout`` with a task in flight as hung; either way
  it is killed, its task reported failed for the scheduler to requeue,
  and a replacement warm-respawned within a bounded budget;
* **warm pools** outlive runs: a plan over the same matrix reloads the
  workers in place, a seed-only change rides on the next dispatch, and
  a pool cut at a deadline or left without workers is
  :attr:`~ProcessPoolSupervisor.tainted` and must be rebuilt.

Supervision events (``worker_spawned`` / ``worker_lost``) fire on the
runtime's :class:`~repro.plan.EventBus` from the supervisor process
only.  Process-level faults (``kill_worker`` / ``hang_worker`` /
``corrupt_tile``) are claimed supervisor-side at dispatch — so
``max_hits`` budgets are exact across requeues and respawns — and
shipped to the worker as plain instructions it applies mechanically.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError, TaskTimeoutError
from ..utils.validation import check_choice, check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..plan.events import EventBus
    from ..plan.runtime import Stripes
    from ..plan.spec import SketchPlan
    from ..sparse.blocked_csr import BlockedCSR
    from ..sparse.csc import CSCMatrix

__all__ = ["WorkerPoolConfig", "ProcessPoolSupervisor", "pool_start_method"]

Task = tuple[int, int, int, int]  # (i, d1, j, n1)

_START_METHODS = ("auto", "fork", "spawn")


def pool_start_method(requested: str = "auto") -> str:
    """Resolve the multiprocessing start method for the worker fleet.

    ``fork`` is preferred when the platform offers it (fast spawn, no
    module re-import); ``spawn`` is the portable fallback.
    """
    check_choice(requested, "start_method", _START_METHODS)
    if requested != "auto":
        return requested
    import multiprocessing

    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Supervision policy for the ``process`` driver's worker fleet.

    Attributes
    ----------
    workers:
        Number of long-lived worker processes.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a worker *with claimed
        task* is declared hung, killed, and its task requeued.  Idle
        workers never time out.  A worker holds one task at a time: its
        dispatch is the heartbeat, and the commit answers it.
    max_requeues:
        Replay budget per task.  A task that exceeds it (it keeps
        killing, hanging, or corrupting) is quarantined and finished on
        the in-process degradation ladder instead of poisoning the pool
        forever.
    max_respawns:
        Total warm worker respawns the supervisor may perform before it
        declares the pool collapsed and degrades.
    backoff_base, backoff_factor, backoff_max:
        Deterministic exponential backoff applied before a requeued
        task becomes dispatchable again (see
        :func:`~repro.parallel.resilience.backoff_seconds`; the jitter
        is keyed on the task's RNG coordinates, never wall-clock
        entropy).
    start_method:
        ``"auto"`` (fork when available), ``"fork"``, or ``"spawn"``.
    """

    workers: int = 2
    heartbeat_timeout: float = 30.0
    max_requeues: int = 3
    max_respawns: int = 8
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    start_method: str = "auto"

    def __post_init__(self) -> None:
        check_positive_int(self.workers, "workers")
        for name, ok, rule in (
                ("heartbeat_timeout", self.heartbeat_timeout > 0, "positive"),
                ("max_requeues", self.max_requeues >= 0, ">= 0"),
                ("max_respawns", self.max_respawns >= 0, ">= 0"),
                ("backoff_base", self.backoff_base >= 0, "non-negative"),
                ("backoff_factor", self.backoff_factor >= 1.0, ">= 1"),
                ("backoff_max", self.backoff_max >= 0, "non-negative")):
            if not ok:
                raise ConfigError(
                    f"{name} must be {rule}, got {getattr(self, name)}")
        check_choice(self.start_method, "start_method", _START_METHODS)

    def to_dict(self) -> dict:
        return {
            "workers": int(self.workers),
            "heartbeat_timeout": float(self.heartbeat_timeout),
            # Retired: one task per message.  Still written, so plan
            # digests and fingerprints of process plans do not move.
            "batch_size": 0,
            "max_requeues": int(self.max_requeues),
            "max_respawns": int(self.max_respawns),
            "backoff_base": float(self.backoff_base),
            "backoff_factor": float(self.backoff_factor),
            "backoff_max": float(self.backoff_max),
            "start_method": self.start_method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerPoolConfig":
        if data.get("batch_size", 0) != 0:
            raise ConfigError(
                f"batch_size is retired (workers take one task per "
                f"message); got {data['batch_size']!r}, expected 0")
        return cls(
            workers=int(data.get("workers", 2)),
            heartbeat_timeout=float(data.get("heartbeat_timeout", 30.0)),
            max_requeues=int(data.get("max_requeues", 3)),
            max_respawns=int(data.get("max_respawns", 8)),
            backoff_base=float(data.get("backoff_base", 0.05)),
            backoff_factor=float(data.get("backoff_factor", 2.0)),
            backoff_max=float(data.get("backoff_max", 1.0)),
            start_method=data.get("start_method", "auto"),
        )


# -- worker process ---------------------------------------------------------


def _worker_main(wid: int, conn, plan_data: dict, segments: dict,
                 supervisor: int) -> None:
    """Entry point of one worker process.

    Maps the published *segments* (``{name: (shm name, dtype, shape)}``:
    ``A``'s CSC arrays, the blocked CSR's flat arrays prefixed ``blk_``
    and the output ``ahat``), derives its generators from the shipped
    plan, then serves one task per message until ``shutdown``, pipe
    closure, or the death of its *supervisor* (a PID).  A ``reload``
    rebinds it to a new plan over the same input (remapping replaced
    segments, typically the output); a task that carries an RNG spec
    rebinds only the generator, which is how a warm fleet serves a new
    seed.  Injected process faults arrive as plain dicts with the task
    and are applied mechanically.
    """
    import dataclasses

    import numpy as np
    from multiprocessing import shared_memory

    from ..cache.artifacts import blocked_csr_from_arrays
    from ..kernels.blocking import compute_tile, tile_work
    from ..persist.checksum import checksum_bytes, default_algo
    from ..plan.spec import RngSpec, SketchPlan
    from ..sparse.csc import CSCMatrix
    from ..utils.timing import Stopwatch

    segs, arr = {}, {}

    def remap(specs: dict) -> None:
        for name, (shm_name, dtype, shape) in specs.items():
            old = segs.pop(name, None)
            if old is not None:
                try:
                    old.close()
                except OSError:  # pragma: no cover - best effort
                    pass
            seg = segs[name] = shared_memory.SharedMemory(name=shm_name)
            arr[name] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    try:
        remap(segments)
        plan = SketchPlan.from_dict(plan_data)
        shape = (plan.problem.m, plan.problem.n)
        A = CSCMatrix(shape, arr["indptr"], arr["indices"], arr["data"],
                      check=False)
        # Zero-copy views over the supervisor's one blocked-CSR conversion
        # (a warm pool keeps its kernel and b_n, so they never change).
        block_by_offset = {} if plan.kernel != "algo4" else dict(
            blocked_csr_from_arrays(shape, **{
                name[4:]: a for name, a in arr.items()
                if name.startswith("blk_")}).iter_blocks())
        rng = plan.rng_factory()(wid)
        watch = Stopwatch()
        algo = default_algo()

        while True:
            # Forked workers hold the supervisor's pipe ends, so its
            # death is no EOF: leave once reparented.
            while not conn.poll(1.0):
                if os.getppid() != supervisor:
                    return
            msg = conn.recv()
            if msg[0] == "shutdown":
                break
            if msg[0] == "reload":
                # A new plan over the same input matrix.  Pipe order
                # guarantees the reload is applied before any task
                # the supervisor sends afterwards, so no ack is needed.
                _tag, plan_data, updates = msg
                remap(updates)
                plan = SketchPlan.from_dict(plan_data)
                rng = plan.rng_factory()(wid)
                continue
            if msg[0] != "tasks":  # pragma: no cover - protocol guard
                continue
            _tag, (task, faults), rng_data = msg
            if rng_data is not None:
                # Same binding, new seeds: only the generator changes.
                plan = dataclasses.replace(plan,
                                           rng=RngSpec.from_dict(rng_data))
                rng = plan.rng_factory()(wid)
            i, d1, j, n1 = task
            kinds = {f["kind"] for f in faults}
            try:
                if "kill_worker" in kinds:
                    # A real process death: no cleanup, no goodbye.
                    os.kill(os.getpid(), signal.SIGKILL)
                if "hang_worker" in kinds:
                    # Wedge without answering; the supervisor's deadline,
                    # not this sleep, decides our fate.
                    time.sleep(max(f["sleep_seconds"] for f in faults
                                   if f["kind"] == "hang_worker"))
                before = tile_work(watch, rng)
                Ahat = arr["ahat"]
                tile = np.zeros(Ahat.shape[:-2] + (d1, n1))
                compute_tile(plan.kernel, tile, A, block_by_offset, i, j,
                             n1, rng, watch)
                Ahat[..., i:i + d1, j:j + n1] = tile
                # Claimed-before-commit: digest the *correct* bytes; the
                # supervisor re-reads shared memory and verifies.
                digest = checksum_bytes(memoryview(tile), algo)
                if "corrupt_tile" in kinds and tile.size:
                    # Corrupt the shared tile after checksumming — the
                    # supervisor must reject this commit.
                    Ahat[..., i + d1 // 2, j + n1 // 2] = np.nan
                conn.send(("commit", algo, digest,
                           tile_work(watch, rng, before)))
            except Exception as exc:  # noqa: BLE001 - fault boundary
                conn.send(("error", type(exc).__name__, str(exc)))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass  # supervisor went away; nothing to report to
    finally:
        for seg in segs.values():
            try:
                seg.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


# -- supervisor -------------------------------------------------------------


def _binding(plan: "SketchPlan") -> dict:
    """Everything a worker's state depends on except the RNG seeds.

    Two plans with equal bindings differ only in ``seed`` /
    ``batch_seeds`` and in fields workers never read (``resilience``,
    ``decisions``, ``partition``), so a warm worker moves between them
    by rebuilding its generator alone.
    """
    record = plan.to_dict()
    del record["resilience"], record["decisions"], record["rng"]["seed"]
    record["rng"].pop("batch_seeds", None)
    record.pop("partition", None)
    return record


class _WorkerHandle:
    """Supervisor-side record of one live worker process: one slot."""

    __slots__ = ("wid", "proc", "conn", "last_seen", "task", "pid", "rng")

    def __init__(self, wid, proc, conn, rng: dict) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.last_seen = time.monotonic()
        #: The task in flight on this worker, ``(idx, (i, d1, j, n1))``.
        self.task: tuple[int, Task] | None = None
        self.pid = proc.pid
        #: The RNG spec (``RngSpec.to_dict()``) the worker generates with.
        self.rng = rng


class ProcessPoolSupervisor:
    """Supervises N worker processes executing one plan's block tasks.

    The ``process`` driver of :class:`repro.plan.Runtime` (one-shot
    :meth:`run`), kept warm across requests by the serving daemon with
    :meth:`start` / :meth:`execute` / :meth:`close`.  A run's scheduler,
    :meth:`~repro.parallel.executor.PlanExecutionEngine.run_tasks`, drives
    the fleet as its process rung (:meth:`free`, :meth:`dispatch`,
    :meth:`poll`, :meth:`top_up`) from its own thread, so workers are
    spawned and respawned on that thread only.

    Parameters
    ----------
    plan:
        The compiled :class:`~repro.plan.SketchPlan` (kernel ``algo3`` or
        ``algo4``); ``plan.pool`` (or a default :class:`WorkerPoolConfig`)
        sets the supervision policy.
    A, rng_factory:
        The input matrix and the generator factory.  Workers derive their
        generators from ``plan.rng``; a custom factory only reaches the
        in-process rungs and the final ``post_scale``, so one that does
        not match the plan's RNG spec is unsupported on this driver.
    bus, injector:
        Event bus for lifecycle/supervision events, and the optional
        fault injector whose process-level faults are claimed at
        dispatch.
    blocked:
        Pre-built blocked CSR for Algorithm 4 plans.  With or without it
        the supervisor materializes the conversion **once** and ships it
        through shared memory; workers map zero-copy views.
    """

    def __init__(self, plan: "SketchPlan", A: "CSCMatrix", rng_factory, *,
                 bus: "EventBus | None" = None,
                 injector: "FaultInjector | None" = None,
                 blocked: "BlockedCSR | None" = None) -> None:
        from ..plan.events import EventBus
        from .resilience import RunHealth

        if plan.kernel not in ("algo3", "algo4"):
            raise ConfigError(
                f"the process driver requires kernel 'algo3' or 'algo4', "
                f"got {plan.kernel!r}")
        if blocked is not None and blocked.shape != A.shape:
            raise ConfigError(
                f"blocked CSR shape {blocked.shape} does not match A "
                f"{A.shape}")
        self.plan = plan
        self.A = A
        self.blocked = blocked
        self.rng_factory = rng_factory
        self.bus = bus if bus is not None else EventBus()
        self.injector = injector
        self.pool = plan.pool if plan.pool is not None else WorkerPoolConfig()
        #: The last run's health report (the scheduler's, during a run).
        self.health = RunHealth()
        self.Ahat = None

        self._segs: dict[str, object] = {}
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._respawns_used = 0
        self._started = False
        self._tainted = False
        self._ctx = None
        #: Published segments for workers: ``{name: (shm name, dtype,
        #: shape)}``.
        self._specs: dict[str, tuple] = {}
        self._binding: dict | None = None
        #: Finished attempts not yet polled: ``(idx, failure, work)``.
        self._done: list[tuple] = []
        self._conversion_seconds = 0.0

    # -- shared-memory plumbing --------------------------------------------

    def _segment(self, name: str, dtype, shape) -> "np.ndarray":
        """A fresh shared segment *name* (replacing one of that name)
        viewed as a *dtype* array; new segments come zeroed."""
        import numpy as np
        from multiprocessing import shared_memory

        self._release(name)
        dtype = np.dtype(dtype)
        seg = shared_memory.SharedMemory(
            create=True, size=max(1, int(np.prod(shape)) * dtype.itemsize))
        self._segs[name] = seg
        self._specs[name] = (seg.name, dtype.str, tuple(shape))
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def _publish_input(self) -> None:
        """Publish A's arrays and, for Algorithm 4, its blocked CSR,
        converted once per pool rather than once per worker (the next
        run's stats carry the time)."""
        from ..cache.artifacts import blocked_csr_arrays
        from ..sparse.convert import csc_to_blocked_csr

        arrays = {name: getattr(self.A, name)
                  for name in ("indptr", "indices", "data")}
        if self.plan.kernel == "algo4":
            if self.blocked is None:
                self.blocked, conv = csc_to_blocked_csr(
                    self.A, self.plan.b_n, threads=1)
                self._conversion_seconds = conv.seconds
            arrays.update((f"blk_{name}", a) for name, a in
                          blocked_csr_arrays(self.blocked).items())
        for name, src in arrays.items():
            self._segment(name, src.dtype, src.shape)[...] = src

    def _release(self, name: str) -> None:
        seg = self._segs.pop(name, None)
        self._specs.pop(name, None)
        if seg is not None:
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self, *, respawn: bool = False) -> _WorkerHandle:
        from ..plan.events import WORKER_SPAWNED

        wid = self._next_wid
        self._next_wid += 1
        parent_conn, child_conn = self._ctx.Pipe()
        plan_data = self.plan.to_dict()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, plan_data, self._specs, os.getpid()),
            daemon=True, name=f"repro-worker-{wid}")
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(wid, proc, parent_conn, plan_data["rng"])
        self._workers[wid] = handle
        self.health.workers_spawned += 1
        if respawn:
            self.health.worker_respawns += 1
            self.health.record(
                f"worker {wid}: warm respawn "
                f"({self._respawns_used}/{self.pool.max_respawns} used)")
        self.bus.emit(WORKER_SPAWNED, worker=wid, pid=handle.pid,
                      respawn=respawn)
        return handle

    def _lose_worker(self, handle: _WorkerHandle, reason: str) -> None:
        """Declare *handle* dead: kill it and report its task failed."""
        from ..plan.events import WORKER_LOST

        self._reap(handle)
        lost = f"worker {handle.wid} (pid {handle.pid}) lost: {reason}"
        self.health.workers_lost += 1
        self.bus.emit(WORKER_LOST, worker=handle.wid, pid=handle.pid,
                      reason=reason)
        if handle.task is None:
            self.health.record(lost)
            return
        idx, (i, _d1, j, _n1) = handle.task
        self.health.record(f"{lost} with task {(i, j)} in flight")
        self._done.append((idx, (f"worker_{reason}", lost), None))
        handle.task = None

    def top_up(self, remaining: int) -> None:
        """Respawn lost workers while *remaining* tasks need them, within
        the pool's lifetime ``max_respawns`` budget."""
        # Top up only to the fleet size actually spawned at startup
        # (capped by the task count), so a small problem never triggers
        # phantom "respawns" of workers that were never wanted.
        target = min(self.pool.workers, max(1, remaining))
        while (remaining > 0 and len(self._workers) < target
                and self._respawns_used < self.pool.max_respawns):
            self._respawns_used += 1
            self._spawn_worker(respawn=True)

    # -- the scheduler's process rung: one slot per live worker -------------

    context = "process"

    @property
    def alive(self) -> bool:
        return bool(self._workers)

    @property
    def busy(self) -> int:
        """Tasks dispatched but not yet polled: in flight on a worker, or
        finished (a failed send included) and waiting for :meth:`poll`."""
        return len(self._done) + sum(h.task is not None
                                     for h in self._workers.values())

    def free(self) -> bool:
        return any(h.task is None for h in self._workers.values())

    def dispatch(self, idx: int, task: Task, kernel: str,
                 attempt: int) -> None:
        """Send task *idx* (its *attempt*-th dispatch) to an idle worker."""
        handle = next(h for h in self._workers.values() if h.task is None)
        faults = (self.injector.process_faults((task[0], task[2]),
                                               self.plan.kernel, attempt)
                  if self.injector is not None else [])
        rng = self.plan.rng.to_dict()
        handle.task = (idx, task)
        handle.last_seen = time.monotonic()
        try:
            handle.conn.send(("tasks", (task, faults),
                              rng if rng != handle.rng else None))
            handle.rng = rng
        except (OSError, BrokenPipeError):
            self._lose_worker(handle, "crashed")

    def poll(self, timeout: float | None) -> list[tuple]:
        """Wait for worker messages (at most one heartbeat tick), check
        liveness, and return the finished attempts as ``(idx, failure,
        work)``: ``failure`` is ``None`` for a verified commit (``work``
        then holds the worker's sample and compute seconds and samples)
        or the failure's ``(kind, message)``."""
        from multiprocessing.connection import wait

        tick = min(0.05, self.pool.heartbeat_timeout / 5.0)
        conns = {h.conn: h for h in self._workers.values()}
        if conns and not self._done:
            ready = wait(list(conns),
                         timeout=tick if timeout is None
                         else min(tick, timeout))
            for conn in ready:
                handle = conns[conn]
                if handle.wid in self._workers:
                    self._pump(handle)
        now = time.monotonic()
        for handle in list(self._workers.values()):
            if not handle.proc.is_alive():
                self._pump(handle)  # salvage a buffered commit
                if handle.wid in self._workers:
                    self._lose_worker(handle, "crashed")
            elif (handle.task is not None
                    and now - handle.last_seen > self.pool.heartbeat_timeout):
                self._lose_worker(handle, "hung")
        done, self._done = self._done, []
        return done

    def _pump(self, handle: _WorkerHandle) -> None:
        """Drain every buffered message from one worker's pipe."""
        import numpy as np

        from ..persist.checksum import checksum_bytes

        try:
            while handle.conn.poll():
                msg = handle.conn.recv()
                handle.last_seen = time.monotonic()
                if msg[0] == "commit":
                    _tag, algo, digest, work = msg
                    idx, (i, d1, j, n1) = handle.task
                    tile = self.Ahat[..., i:i + d1, j:j + n1]
                    if checksum_bytes(memoryview(np.ascontiguousarray(tile)),
                                      algo) == digest:
                        self._done.append((idx, None, work))
                    else:
                        tile[...] = 0.0
                        self._done.append((idx, (
                            "checksum_mismatch", "shared-memory tile bytes "
                            "do not match the committed digest"), None))
                    handle.task = None
                elif msg[0] == "error":
                    _tag, kind, message = msg
                    self._done.append((handle.task[0], (kind, message), None))
                    handle.task = None
        except (EOFError, OSError):
            self._lose_worker(handle, "crashed")

    # -- warm-pool lifecycle -----------------------------------------------

    def stats_extra(self) -> dict:
        """The pool's fields of a run's ``KernelStats.extra``."""
        return {"driver": "process", "workers": self.pool.workers,
                "start_method": pool_start_method(self.pool.start_method),
                "respawns_used": self._respawns_used}

    @property
    def tainted(self) -> bool:
        """True once a run was cancelled mid-flight or lost its fleet.

        A run cut at its deadline (or by any error) may leave workers
        with tasks in flight that would write into a reused output
        segment, and a fleet that lost its last worker with the respawn
        budget spent has nothing left to run on; either way callers must
        :meth:`close` the pool rather than reuse it.
        """
        return self._tainted

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the currently live workers (chaos hooks, tests)."""
        return tuple(h.pid for h in self._workers.values())

    def compatible(self, plan: "SketchPlan") -> bool:
        """True if *plan* can execute on this warm pool (same input
        matrix shape, kernel, and — for Algorithm 4 — the same
        ``b_n`` partition, so the one shared conversion stays valid).
        The caller is responsible for matrix *identity*: a warm pool is
        bound to the matrix content it was started with."""
        return self._mismatch(plan) is None

    def _mismatch(self, plan: "SketchPlan") -> str | None:
        base = self.plan
        if (plan.problem.m, plan.problem.n) != (base.problem.m,
                                                base.problem.n):
            return (f"warm pool is bound to a {base.problem.m}x"
                    f"{base.problem.n} input; plan expects "
                    f"{plan.problem.m}x{plan.problem.n}")
        if plan.kernel != base.kernel:
            return (f"warm pool workers are bound to kernel {base.kernel!r}; "
                    f"plan wants {plan.kernel!r}")
        if base.kernel == "algo4" and plan.b_n != base.b_n:
            return (f"warm pool's shared blocked-CSR uses b_n={base.b_n}; "
                    f"plan wants b_n={plan.b_n} (would force reconversion)")
        return None

    def _fleet_want(self) -> int:
        """Workers the current plan can keep busy: one per block task,
        capped by the pool size."""
        from ..kernels.blocking import block_task_count

        p = self.plan
        return min(self.pool.workers,
                   block_task_count(p.problem.d, p.problem.n, p.b_d, p.b_n))

    def start(self) -> "ProcessPoolSupervisor":
        """Publish the shared input segments and spawn the worker fleet.

        Idempotent.  After ``start()`` the pool is *warm*: repeated
        :meth:`execute` calls reuse the fleet and the one-time CSC (and
        blocked-CSR) shared-memory publication, so a request on a warm
        pool pays pure kernel time.  Pair with :meth:`close`.
        """
        import multiprocessing

        if self._started:
            return self
        self._ctx = multiprocessing.get_context(
            pool_start_method(self.pool.start_method))
        self._publish_input()
        self._rebind()
        for _ in range(self._fleet_want()):
            self._spawn_worker()
        self._started = True
        return self

    def close(self) -> None:
        """Shut down the fleet and release shared memory (idempotent)."""
        self._shutdown_workers()
        for name in list(self._segs):
            self._release(name)
        self._started = False
        self._ctx = None

    def _rebind(self) -> None:
        """Bind the fleet to the current plan.

        The shared output is recreated only when its shape changes, and
        never cleared: every tile is written whole, by a worker or by an
        in-process attempt that zeroes a handed-in output's tile first.
        Any change but the seeds sends live workers a ``reload``, which
        pipe order lands before any later task; a seed-only change rides
        on each worker's next dispatch.
        """
        import numpy as np

        p = self.plan.problem
        shape = (p.batch, p.d, p.n) if p.batch > 1 else (p.d, p.n)
        updates = {}
        if self._specs.get("ahat", (None, None, None))[2] != shape:
            self.Ahat = self._segment("ahat", np.float64, shape)
            updates["ahat"] = self._specs["ahat"]
        binding = _binding(self.plan)
        if not updates and binding == self._binding:
            return
        self._binding = binding
        plan_data = self.plan.to_dict()
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("reload", plan_data, updates))
                handle.rng = plan_data["rng"]
            except (OSError, BrokenPipeError):
                self._lose_worker(handle, "crashed")

    # -- entry points ------------------------------------------------------

    def run(self, stripes: "Stripes | None" = None):
        """One-shot execution: start, execute, tear down.

        The classic ``process``-driver path; returns ``(Ahat, stats)``.
        """
        try:
            self.start()
            result, stats = self.execute(stripes=stripes)
        finally:
            self.close()
        # Keep the historical contract: after run() the attribute holds
        # the detached result, never a view of released shared memory.
        self.Ahat = result
        return result, stats

    def execute(self, plan: "SketchPlan | None" = None, rng_factory=None, *,
                injector=None, deadline: float | None = None,
                stripes: "Stripes | None" = None):
        """Run one plan on the warm fleet; returns ``(Ahat, stats)``.

        Parameters
        ----------
        plan:
            Optional replacement plan (``None`` reuses the current one);
            it must satisfy :meth:`compatible`.  A seed-only change
            rebinds each worker's generator on its next dispatch; any
            other change sends a ``reload``, and the shared output is
            recreated only when its shape changes.  The supervision
            policy (``pool``) stays the one that sized the fleet.
        rng_factory, injector:
            Per-run overrides; ``None`` keeps the constructor's.
        deadline:
            Absolute ``time.monotonic()`` instant.  When it passes
            mid-run the scheduler stops: queued tasks are dropped,
            tiles in flight are abandoned (never served), the pool is
            marked :attr:`tainted`, and
            :class:`~repro.errors.TaskTimeoutError` is raised.  A
            tainted pool must be :meth:`close`\\ d, not reused.
        stripes:
            The run's column stripes (:class:`~repro.plan.runtime.Stripes`;
            default one full-width stripe).  The scheduler runs them in
            order, one task group at a time, and each stripe's barrier
            copies its columns out of shared memory.

        Returns a *private copy* of the sketch — the shared segment is
        reused by the next run.
        """
        import numpy as np

        from .executor import PlanExecutionEngine

        if not self._started:
            raise ConfigError("pool is not started; call start() or run()")
        if self._tainted:
            raise ConfigError(
                "pool is tainted by a cancelled run or a lost fleet; "
                "close() and rebuild")
        if plan is not None and plan is not self.plan:
            mismatch = self._mismatch(plan)
            if mismatch:
                raise ConfigError(mismatch)
            self.plan = plan
        if rng_factory is not None:
            self.rng_factory = rng_factory
        if injector is not None:
            self.injector = injector

        self._rebind()
        # Grow the fleet for a bigger plan (fresh members, not respawns).
        want = self._fleet_want()
        while len(self._workers) < want:
            self._spawn_worker()

        engine = PlanExecutionEngine(self.plan, self.A, self.rng_factory,
                                     bus=self.bus, blocked=self.blocked,
                                     injector=self.injector, fleet=self)
        # Each run reports its own health, counting the warm fleet that
        # serves it.
        self.health = engine.health
        self.health.workers_spawned = len(self._workers)
        post = self.rng_factory(0).post_scale
        result = np.empty_like(self.Ahat)

        def detach(c0: int, c1: int) -> None:
            # The shared segment is reused next run: copy the stripe out.
            result[..., c0:c1] = self.Ahat[..., c0:c1]
            if post != 1.0:
                result[..., c0:c1] *= post

        try:
            stats = engine.run(stripes, detach, out=self.Ahat,
                               deadline=deadline,
                               conversion_seconds=self._conversion_seconds)
        except TaskTimeoutError:
            # Cut at the run deadline: tiles may still be in flight.
            if deadline is not None and time.monotonic() >= deadline:
                self._tainted = True
            raise
        finally:
            # Collapsed, or cut short with a task in flight that would
            # land in the next run: the caller rebuilds.
            if not self._workers or self.busy:
                self._tainted = True
        # Conversion happens once per pool (at start); attribute it to
        # the run that paid for it so warm runs report pure kernel time.
        self._conversion_seconds = 0.0
        return result, stats

    def _reap(self, handle: _WorkerHandle, grace: float = 0.0) -> None:
        """Stop *handle*'s process — SIGKILL once *grace* seconds pass —
        and close its pipe."""
        self._workers.pop(handle.wid, None)
        if grace:
            handle.proc.join(timeout=grace)
        if handle.proc.is_alive():
            try:
                os.kill(handle.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
        handle.proc.join(timeout=5)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def _shutdown_workers(self) -> None:
        from ..plan.events import WORKER_LOST

        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
            self._reap(handle, grace=2.0)
            self.bus.emit(WORKER_LOST, worker=handle.wid, pid=handle.pid,
                          reason="shutdown")
