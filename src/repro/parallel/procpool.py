"""Crash-tolerant multi-process execution: the ``process`` Runtime driver.

The thread-pool engine (:mod:`repro.parallel.executor`) is GIL-bound:
with the numpy backend, worker threads only overlap inside individual
NumPy calls, so a multi-core machine is mostly idle and a single wedged
worker can stall a whole sketch.  This module runs the same Algorithm 1
block tasks across N long-lived **worker processes** supervised by the
driver process:

* the frozen, JSON-round-trippable :class:`~repro.plan.SketchPlan` is
  exactly the unit that ships to a worker — each worker rebuilds the
  input matrix from :mod:`multiprocessing.shared_memory` segments and
  derives its generators from the plan's RNG spec, so any worker can
  compute any tile bit-identically;
* output tiles are collected through a **claimed-before-commit**
  protocol: the worker writes the tile into the shared output buffer,
  checksums the *correct* bytes (:mod:`repro.persist.checksum`), and
  commits a claim record over its pipe; the supervisor re-reads the
  shared bytes and only accepts the commit when the digest matches —
  a torn or corrupted write is requeued, never trusted;
* **liveness** is supervised per worker: dispatch counts as the first
  heartbeat, and the worker heartbeats before each later task of a
  batch, so a SIGKILLed worker surfaces as a dead pipe and a hung
  worker as a stale heartbeat past its deadline; either way the
  supervisor requeues the worker's uncommitted tasks (bit-identical
  RNG re-derivation makes the replay exact), kills what is left of the
  worker, and warm-respawns a replacement within a bounded budget;
* replays use **deterministic exponential backoff**
  (:func:`~repro.parallel.resilience.backoff_seconds`, jitter keyed on
  the task's RNG coordinates) and a task that keeps killing its worker
  is **quarantined** after ``max_requeues`` replays instead of being
  retried forever;
* when the pool cannot finish — every worker lost with the respawn
  budget spent, or quarantined poison tasks remain — the supervisor
  walks the **degradation ladder** process → thread → serial in the
  driver process: it hands the leftover tasks to the thread engine's
  task loop (:meth:`~repro.parallel.executor.PlanExecutionEngine.run_tasks`),
  which writes into the shared output and degrades thread → serial
  itself.  Every step is emitted as a ``degraded`` event so
  :class:`~repro.parallel.resilience.RunHealth`, metrics, and traces
  all observe the decision.

Supervision events (``worker_spawned`` / ``worker_lost`` /
``task_requeued``) fire on the runtime's
:class:`~repro.plan.EventBus` from the supervisor process only; worker
processes never touch the bus, the injector, or the checkpoint stack.
Process-level fault injection (``kill_worker`` / ``hang_worker`` /
``corrupt_tile``) is claimed supervisor-side at dispatch time — so
``max_hits`` budgets are exact across requeues and respawns — and
shipped to the worker as plain instructions it applies mechanically.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
from collections import deque
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
        tasks* is declared hung, killed, and its tasks requeued.  Idle
        workers never time out.  Dispatch counts as the first
        heartbeat; after it every pipe message doubles as one, and
        workers send one before each later task of a batch.
    batch_size:
        Tasks shipped per dispatch message (0 = auto-sized from the
        task count and worker count).  Smaller batches narrow the blast
        radius of a lost worker; larger ones cut pipe round trips.
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
    batch_size: int = 0
    max_requeues: int = 3
    max_respawns: int = 8
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    start_method: str = "auto"

    def __post_init__(self) -> None:
        check_positive_int(self.workers, "workers")
        if not self.heartbeat_timeout > 0:
            raise ConfigError(
                f"heartbeat_timeout must be positive, got "
                f"{self.heartbeat_timeout}"
            )
        if self.batch_size < 0:
            raise ConfigError(
                f"batch_size must be >= 0 (0 = auto), got {self.batch_size}"
            )
        if self.max_requeues < 0:
            raise ConfigError(
                f"max_requeues must be >= 0, got {self.max_requeues}"
            )
        if self.max_respawns < 0:
            raise ConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if not self.backoff_base >= 0:
            raise ConfigError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if not self.backoff_factor >= 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not self.backoff_max >= 0:
            raise ConfigError(
                f"backoff_max must be non-negative, got {self.backoff_max}"
            )
        check_choice(self.start_method, "start_method", _START_METHODS)

    def to_dict(self) -> dict:
        return {
            "workers": int(self.workers),
            "heartbeat_timeout": float(self.heartbeat_timeout),
            "batch_size": int(self.batch_size),
            "max_requeues": int(self.max_requeues),
            "max_respawns": int(self.max_respawns),
            "backoff_base": float(self.backoff_base),
            "backoff_factor": float(self.backoff_factor),
            "backoff_max": float(self.backoff_max),
            "start_method": self.start_method,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerPoolConfig":
        return cls(
            workers=int(data.get("workers", 2)),
            heartbeat_timeout=float(data.get("heartbeat_timeout", 30.0)),
            batch_size=int(data.get("batch_size", 0)),
            max_requeues=int(data.get("max_requeues", 3)),
            max_respawns=int(data.get("max_respawns", 8)),
            backoff_base=float(data.get("backoff_base", 0.05)),
            backoff_factor=float(data.get("backoff_factor", 2.0)),
            backoff_max=float(data.get("backoff_max", 1.0)),
            start_method=data.get("start_method", "auto"),
        )


# -- worker process ---------------------------------------------------------


def _open_shared_matrix(shm_seg, spec):
    """Rebuild a :class:`CSCMatrix` over shared-memory-backed arrays."""
    import numpy as np

    from ..sparse.csc import CSCMatrix

    def arr(name, dtype, shape):
        return np.ndarray(shape, dtype=dtype, buffer=shm_seg[name].buf)

    indptr = arr("indptr", np.int64, (spec["n"] + 1,))
    indices = arr("indices", np.int64, (spec["nnz"],))
    data = arr("data", np.float64, (spec["nnz"],))
    return CSCMatrix((spec["m"], spec["n"]), indptr, indices, data,
                     check=False)


def _open_shared_blocked(shm_seg, spec):
    """Rebuild the supervisor's blocked CSR over shared-memory arrays.

    The supervisor converts (or loads from the artifact cache) exactly
    once and ships the four flat arrays; every worker maps them as
    zero-copy views instead of re-running the O(nnz) conversion
    per process.
    """
    import numpy as np

    from ..cache.artifacts import blocked_csr_from_arrays

    def arr(name, dtype, shape):
        return np.ndarray(shape, dtype=dtype, buffer=shm_seg[name].buf)

    n_blocks = spec["n_blocks"]
    block_starts = arr("blk_starts", np.int64, (n_blocks + 1,))
    indptr = arr("blk_indptr", np.int64, (n_blocks, spec["m"] + 1))
    indices = arr("blk_indices", np.int64, (spec["blk_nnz"],))
    data = arr("blk_data", np.float64, (spec["blk_nnz"],))
    return blocked_csr_from_arrays((spec["m"], spec["n"]), block_starts,
                                   indptr, indices, data)


def _worker_main(wid: int, conn, plan_data: dict, shm_names: dict,
                 problem: dict) -> None:
    """Entry point of one worker process.

    Rebuilds the input matrix from shared memory, derives its own
    generators from the shipped plan, then serves task batches until a
    ``shutdown`` message or pipe closure.  A ``reload`` message rebinds
    the worker to a *new plan over the same input matrix* (remapping any
    replaced segments — typically the output buffer); a task batch that
    carries an RNG spec rebinds only the generator, for a plan that
    differs in its seeds alone.  That is how the serving daemon keeps a
    warm fleet across requests.  Injected process faults arrive as plain
    dicts attached to each task and are applied mechanically — the
    worker holds no injector state.
    """
    import dataclasses

    import numpy as np
    from multiprocessing import shared_memory

    from ..kernels.blocking import compute_tile
    from ..persist.checksum import checksum_bytes, default_algo
    from ..plan.spec import RngSpec, SketchPlan
    from ..utils.timing import Stopwatch

    segs = {}

    def remap(names: dict) -> None:
        for name, shm_name in names.items():
            old = segs.pop(name, None)
            if old is not None:
                try:
                    old.close()
                except OSError:  # pragma: no cover - best effort
                    pass
            segs[name] = shared_memory.SharedMemory(name=shm_name)

    try:
        remap(shm_names)
        plan = SketchPlan.from_dict(plan_data)
        A = _open_shared_matrix(segs, problem)
        watch = Stopwatch()
        algo = default_algo()

        def bind(plan: "SketchPlan", problem: dict):
            """(Re)derive the per-plan state: output view, generator,
            and the zero-copy blocked-CSR views for Algorithm 4."""
            d, n = plan.problem.d, plan.problem.n
            batch = plan.problem.batch
            shape = (batch, d, n) if batch > 1 else (d, n)
            Ahat = np.ndarray(shape, dtype=np.float64,
                              buffer=segs["ahat"].buf)
            rng = plan.rng_factory()(wid)
            block_by_offset = {}
            if plan.kernel == "algo4":
                # Zero-copy views over the supervisor's one shared
                # conversion — workers never re-run csc_to_blocked_csr.
                blocked = _open_shared_blocked(segs, problem)
                for j0, blk in blocked.iter_blocks():
                    block_by_offset[j0] = blk
            return Ahat, rng, block_by_offset

        Ahat, rng, block_by_offset = bind(plan, problem)
        conn.send(("ready", wid, os.getpid()))

        while True:
            msg = conn.recv()
            if msg[0] == "shutdown":
                break
            if msg[0] == "reload":
                # A new plan over the same input matrix.  Pipe order
                # guarantees the reload is applied before any task batch
                # the supervisor sends afterwards, so no ack is needed.
                _tag, plan_data, shm_updates, problem = msg
                remap(shm_updates)
                plan = SketchPlan.from_dict(plan_data)
                Ahat, rng, block_by_offset = bind(plan, problem)
                continue
            if msg[0] != "tasks":  # pragma: no cover - protocol guard
                continue
            _tag, items, rng_data = msg
            if rng_data is not None:
                # Same binding, new seeds: only the generator changes.
                plan = dataclasses.replace(plan,
                                           rng=RngSpec.from_dict(rng_data))
                rng = plan.rng_factory()(wid)
            for k, (idx, task, faults) in enumerate(items):
                if k:  # the dispatch itself was the first heartbeat
                    conn.send(("hb", wid, idx))
                i, d1, j, n1 = task
                kinds = {f["kind"] for f in faults}
                try:
                    if "kill_worker" in kinds:
                        # A real process death: no cleanup, no goodbye.
                        os.kill(os.getpid(), signal.SIGKILL)
                    if "hang_worker" in kinds:
                        # Wedge without heartbeating; the supervisor's
                        # deadline, not this sleep, decides our fate.
                        time.sleep(max(f["sleep_seconds"] for f in faults
                                       if f["kind"] == "hang_worker"))
                    samples0 = rng.samples_generated
                    s0 = watch.total("sample")
                    c0 = watch.total("compute")
                    tile = np.zeros(Ahat.shape[:-2] + (d1, n1))
                    compute_tile(plan.kernel, tile, A, block_by_offset, i, j,
                                 n1, rng, watch)
                    Ahat[..., i:i + d1, j:j + n1] = tile
                    # Claimed-before-commit: digest the *correct* bytes;
                    # the supervisor re-reads shared memory and verifies.
                    digest = checksum_bytes(memoryview(tile), algo)
                    if "corrupt_tile" in kinds and tile.size:
                        # Corrupt the shared tile after checksumming — the
                        # supervisor must reject this commit.
                        Ahat[..., i + d1 // 2, j + n1 // 2] = np.nan
                    conn.send(("commit", wid, idx, task, algo, digest, {
                        "sample": watch.total("sample") - s0,
                        "compute": watch.total("compute") - c0,
                        "samples": rng.samples_generated - samples0,
                    }))
                except Exception as exc:  # noqa: BLE001 - fault boundary
                    conn.send(("error", wid, idx, task,
                               type(exc).__name__, str(exc)))
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
    """Supervisor-side record of one live worker process."""

    __slots__ = ("wid", "proc", "conn", "last_seen", "assigned", "current",
                 "pid", "rng")

    def __init__(self, wid, proc, conn, rng: dict) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.last_seen = time.monotonic()
        self.assigned: set[int] = set()
        #: The task the worker is on: the head of its batch at dispatch,
        #: then each ``("hb", wid, idx)`` it sends before the next one.
        self.current: int | None = None
        self.pid = proc.pid
        #: The RNG spec (``RngSpec.to_dict()``) the worker generates with.
        self.rng = rng


class ProcessPoolSupervisor:
    """Supervises N worker processes executing one plan's block tasks.

    The ``process`` driver of :class:`repro.plan.Runtime`: constructed
    per run, returns ``(Ahat, stats)`` from :meth:`run`.  All lifecycle
    and supervision events fire on *bus* from the supervisor process.

    Parameters
    ----------
    plan:
        The compiled :class:`~repro.plan.SketchPlan`; ``plan.pool``
        (or a default :class:`WorkerPoolConfig`) sets the supervision
        policy.  The kernel must be ``algo3`` or ``algo4``.
    A, rng_factory:
        The input matrix and the generator factory.  Worker processes
        derive their generators from ``plan.rng`` — a custom factory
        only affects the in-process degradation ladder and the final
        ``post_scale`` — so factories that do not match the plan's RNG
        spec are unsupported on this driver.
    bus, injector:
        Event bus for lifecycle/supervision events, and the optional
        fault injector whose process-level faults
        (``kill_worker``/``hang_worker``/``corrupt_tile``) are claimed
        at dispatch time.
    blocked:
        Pre-built blocked CSR for Algorithm 4 plans (e.g. served from
        the artifact cache by the runtime).  With or without it the
        supervisor materializes the conversion exactly **once** and
        ships it to workers through shared memory; workers map the
        blocks as zero-copy views and never reconvert.
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
        self.health = RunHealth()
        self.Ahat = None

        self._segs: dict[str, object] = {}
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._respawns_used = 0
        self._started = False
        self._tainted = False
        self._ctx = None
        self._shm_names: dict[str, str] = {}
        self._binding: dict | None = None
        self._ahat_shape: tuple[int, int] | None = None
        self._committed: set[int] = set()
        self._replays: dict[int, int] = {}
        self._dispatches: dict[int, int] = {}
        self._quarantined: list[int] = []
        self._ready: deque[int] = deque()
        self._backoff_heap: list[tuple[float, int]] = []
        self._tasks: list[Task] = []
        self._worker_stats = {"sample": 0.0, "compute": 0.0, "samples": 0}
        self._conversion_seconds = 0.0
        self._track_blocks = False

    # -- shared-memory plumbing --------------------------------------------

    def _ensure_blocked(self) -> None:
        """Materialize the Algorithm 4 conversion once, supervisor-side.

        A pre-built structure (from the caller or the artifact cache)
        is used as-is with zero conversion cost; otherwise the
        supervisor converts here — once per run, not once per worker —
        and records the time in the run's ``conversion_seconds``.
        """
        if self.plan.kernel != "algo4" or self.blocked is not None:
            return
        from ..sparse.convert import csc_to_blocked_csr

        self.blocked, conv = csc_to_blocked_csr(self.A, self.plan.b_n,
                                                threads=1)
        self._conversion_seconds = conv.seconds

    def _create_segments(self) -> dict[str, str]:
        """Allocate shared segments for A's arrays and the output buffer."""
        import numpy as np
        from multiprocessing import shared_memory

        d, n = self.plan.problem.d, self.plan.problem.n
        batch = self.plan.problem.batch
        out_shape = (batch, d, n) if batch > 1 else (d, n)

        def create(name, src_dtype, shape):
            count = 1
            for s in shape:
                count *= s
            nbytes = max(1, count * np.dtype(src_dtype).itemsize)
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segs[name] = seg
            return np.ndarray(shape, dtype=src_dtype, buffer=seg.buf)

        create("indptr", np.int64, self.A.indptr.shape)[:] = self.A.indptr
        create("indices", np.int64, self.A.indices.shape)[:] = self.A.indices
        create("data", np.float64, self.A.data.shape)[:] = self.A.data
        if self.blocked is not None:
            m = self.A.shape[0]
            blocked = self.blocked
            n_blocks = blocked.n_blocks
            create("blk_starts", np.int64, (n_blocks + 1,))[:] = \
                blocked.block_starts
            blk_indptr = create("blk_indptr", np.int64, (n_blocks, m + 1))
            offset = 0
            blk_indices = create("blk_indices", np.int64, (blocked.nnz,))
            blk_data = create("blk_data", np.float64, (blocked.nnz,))
            for b, blk in enumerate(blocked.blocks):
                blk_indptr[b, :] = blk.indptr
                nnz_b = blk.indices.size
                blk_indices[offset:offset + nnz_b] = blk.indices
                blk_data[offset:offset + nnz_b] = blk.data
                offset += nnz_b
        ahat = create("ahat", np.float64, out_shape)
        ahat[:] = 0.0
        self.Ahat = ahat
        self._ahat_shape = out_shape
        return {name: seg.name for name, seg in self._segs.items()}

    def _release_segments(self) -> None:
        for seg in self._segs.values():
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        self._segs.clear()

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self, ctx, shm_names: dict, *,
                      respawn: bool = False) -> _WorkerHandle:
        from ..plan.events import WORKER_SPAWNED

        wid = self._next_wid
        self._next_wid += 1
        parent_conn, child_conn = ctx.Pipe()
        problem = {"m": self.A.shape[0], "n": self.A.shape[1],
                   "nnz": int(self.A.nnz)}
        if self.blocked is not None:
            problem["n_blocks"] = int(self.blocked.n_blocks)
            problem["blk_nnz"] = int(self.blocked.nnz)
        plan_data = self.plan.to_dict()
        proc = ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, plan_data, shm_names, problem),
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
        """Declare *handle* dead: kill, requeue its tasks, maybe respawn."""
        from ..plan.events import WORKER_LOST

        self._workers.pop(handle.wid, None)
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
        self.health.workers_lost += 1
        self.health.record(f"worker {handle.wid} (pid {handle.pid}) lost: "
                           f"{reason}; {len(handle.assigned)} task(s) "
                           f"requeued")
        self.bus.emit(WORKER_LOST, worker=handle.wid, pid=handle.pid,
                      reason=reason)
        # Only the task the worker was on is charged a replay; the
        # batch-mates it never reached go back to the queue uncharged.
        mates = sorted(handle.assigned - {handle.current})
        for idx in mates:
            self._dispatches[idx] -= 1
            self.health.attempts -= 1
        self._ready.extendleft(reversed(mates))
        if handle.current in handle.assigned:
            self._requeue(handle.current, f"worker_{reason}")
        handle.assigned.clear()

    def _maybe_respawn(self, ctx, shm_names: dict) -> None:
        remaining = (len(self._tasks) - len(self._committed)
                     - len(self._quarantined))
        # Top up only to the fleet size actually spawned at startup
        # (capped by the task count), so a small problem never triggers
        # phantom "respawns" of workers that were never wanted.
        target = min(self.pool.workers, max(1, remaining))
        while (remaining > 0 and len(self._workers) < target
                and self._respawns_used < self.pool.max_respawns):
            self._respawns_used += 1
            self._spawn_worker(ctx, shm_names, respawn=True)

    # -- task bookkeeping --------------------------------------------------

    def _key(self, idx: int) -> tuple[int, int]:
        t = self._tasks[idx]
        return (t[0], t[2])

    def _requeue(self, idx: int, reason: str) -> None:
        from ..plan.events import TASK_REQUEUED
        from .resilience import backoff_seconds

        if idx in self._committed:
            return
        key = self._key(idx)
        replays = self._replays.get(idx, 0) + 1
        self._replays[idx] = replays
        if replays > self.pool.max_requeues:
            self._quarantined.append(idx)
            self.health.quarantined_tasks += 1
            self.health.record(
                f"task {key}: poison — {replays - 1} replays failed "
                f"({reason}); quarantined for the degradation ladder")
            return
        pool = self.pool
        delay = backoff_seconds(pool.backoff_base, pool.backoff_factor,
                                pool.backoff_max, seed=self.plan.rng.seed,
                                task=key, attempt=replays)
        self.health.tasks_requeued += 1
        self.health.record(
            f"task {key}: requeued ({reason}), replay {replays}"
            f"/{pool.max_requeues}, backoff {delay * 1e3:.1f} ms")
        self.bus.emit(TASK_REQUEUED, task=key, reason=reason,
                      replays=replays, backoff=delay)
        if delay > 0:
            heapq.heappush(self._backoff_heap,
                           (time.monotonic() + delay, idx))
        else:
            self._ready.append(idx)

    def _drain_backoff(self) -> None:
        now = time.monotonic()
        while self._backoff_heap and self._backoff_heap[0][0] <= now:
            _due, idx = heapq.heappop(self._backoff_heap)
            self._ready.append(idx)

    def _dispatch(self, handle: _WorkerHandle, batch: int) -> None:
        from ..plan.events import BLOCK_START

        items = []
        while self._ready and len(items) < batch:
            idx = self._ready.popleft()
            if idx in self._committed:
                continue
            task = self._tasks[idx]
            key = (task[0], task[2])
            attempt = self._dispatches.get(idx, 0) + 1
            self._dispatches[idx] = attempt
            faults = (self.injector.process_faults(key, self.plan.kernel,
                                                   attempt)
                      if self.injector is not None else [])
            self.health.attempts += 1
            if self._track_blocks:
                self.bus.emit(BLOCK_START, task=key, i=task[0], d1=task[1],
                              j=task[2], n1=task[3], kernel=self.plan.kernel)
            items.append((idx, task, faults))
            handle.assigned.add(idx)
        if items:
            rng = self.plan.rng.to_dict()
            try:
                handle.conn.send(("tasks", items,
                                  rng if rng != handle.rng else None))
                handle.rng = rng
                handle.current = items[0][0]
                handle.last_seen = time.monotonic()
            except (OSError, BrokenPipeError):
                # The worker died between wait() and dispatch; undo the
                # claim and let the liveness pass requeue cleanly.
                for idx, _task, _faults in items:
                    handle.assigned.discard(idx)
                    self._dispatches[idx] -= 1
                    self.health.attempts -= 1
                    self._ready.appendleft(idx)
                self._lose_worker(handle, "crashed")

    # -- message handling --------------------------------------------------

    def _verify_commit(self, idx: int, task: Task, algo: str,
                       digest: str) -> bool:
        import numpy as np

        from ..persist.checksum import checksum_bytes

        i, d1, j, n1 = task
        view = np.ascontiguousarray(self.Ahat[..., i:i + d1, j:j + n1])
        return checksum_bytes(memoryview(view), algo) == digest

    def _on_commit(self, handle: _WorkerHandle, msg) -> None:
        from ..plan.events import BLOCK_DONE
        from .resilience import TaskFailure

        _tag, _wid, idx, task, algo, digest, stats = msg
        handle.assigned.discard(idx)
        if idx in self._committed:
            return  # duplicate from a worker we already replaced
        if not self._verify_commit(idx, tuple(task), algo, digest):
            i, d1, j, n1 = task
            self.Ahat[..., i:i + d1, j:j + n1] = 0.0
            self.health.failures.append(TaskFailure(
                task=(task[0], task[2]),
                attempt=self._dispatches.get(idx, 1),
                kind="checksum_mismatch",
                message="shared-memory tile bytes do not match the "
                        "committed digest",
                context="process"))
            self._requeue(idx, "checksum_mismatch")
            return
        self._committed.add(idx)
        self.health.completed += 1
        for k in ("sample", "compute"):
            self._worker_stats[k] += float(stats.get(k, 0.0))
        self._worker_stats["samples"] += int(stats.get("samples", 0))
        if self._track_blocks:
            i, d1, j, n1 = task
            self.bus.emit(BLOCK_DONE, task=(i, j), i=i, d1=d1, j=j, n1=n1,
                          kernel=self.plan.kernel)

    def _on_error(self, handle: _WorkerHandle, msg) -> None:
        from .resilience import TaskFailure

        _tag, _wid, idx, task, kind, message = msg
        handle.assigned.discard(idx)
        self.health.failures.append(TaskFailure(
            task=(task[0], task[2]), attempt=self._dispatches.get(idx, 1),
            kind=kind, message=message, context="process"))
        self._requeue(idx, kind)

    def _pump_worker(self, handle: _WorkerHandle) -> None:
        """Drain every buffered message from one worker's pipe."""
        try:
            while handle.conn.poll():
                msg = handle.conn.recv()
                handle.last_seen = time.monotonic()
                tag = msg[0]
                if tag == "commit":
                    self._on_commit(handle, msg)
                elif tag == "error":
                    self._on_error(handle, msg)
                elif tag == "hb":
                    handle.current = msg[2]
                # "ready" needs no body: last_seen is refreshed.
        except (EOFError, OSError):
            self._lose_worker(handle, "crashed")

    def _check_liveness(self) -> None:
        now = time.monotonic()
        for handle in list(self._workers.values()):
            if not handle.proc.is_alive():
                self._pump_worker(handle)  # salvage buffered commits
                if handle.wid in self._workers:
                    self._lose_worker(handle, "crashed")
            elif (handle.assigned
                    and now - handle.last_seen > self.pool.heartbeat_timeout):
                self._lose_worker(handle, "hung")

    # -- degradation ladder ------------------------------------------------

    def _degrade(self, leftover: list[int], deadline: float | None) -> None:
        """Finish *leftover* tasks in-process on the engine's task loop.

        The pool could not complete these (collapse or quarantine);
        coordinate-keyed generators make the in-process tiles
        bit-identical.  The loop writes into the shared output (zeroing
        each tile before an attempt, so a dead worker's half-written
        tile is never kept) on up to four threads, under the plan's
        resilience policy or the default one, and counts into the pool's
        :class:`RunHealth`.  The run *deadline* stops it and taints the
        pool.
        """
        import dataclasses

        from ..plan.events import DEGRADED
        from .executor import PlanExecutionEngine
        from .resilience import ResilienceConfig

        self._ensure_blocked()
        self.health.degraded_to_thread = True
        self.health.record(
            f"{len(leftover)} task(s) unfinishable in the process pool; "
            f"degrading process -> thread")
        self.bus.emit(DEGRADED, kind="pool_fallback", tasks=len(leftover))
        plan = dataclasses.replace(
            self.plan, threads=max(1, min(4, self.plan.threads)),
            resilience=self.plan.resilience or ResilienceConfig())
        engine = PlanExecutionEngine(plan, self.A, self.rng_factory,
                                     bus=self.bus, blocked=self.blocked)
        engine.health = self.health  # the loop counts into this report
        try:
            engine.run_tasks([self._tasks[idx] for idx in leftover],
                             self.Ahat, deadline=deadline)
        except TaskTimeoutError:
            if deadline is not None and time.monotonic() >= deadline:
                self._cancel_run(deadline)
            raise
        finally:
            for key, value in engine.work_totals().items():
                self._worker_stats[key] += value
        self._committed.update(leftover)
        self._quarantined = []

    # -- stats -------------------------------------------------------------

    def _finish_stats(self, total_seconds: float):
        from ..kernels.stats import KernelStats
        from ..kernels.backends import NUMPY
        from ..utils.flops import spmm_flops

        sample = self._worker_stats["sample"]
        compute = self._worker_stats["compute"]
        samples = self._worker_stats["samples"]
        stats = KernelStats(
            kernel=f"{self.plan.kernel}-procpool",
            sample_seconds=sample,
            compute_seconds=compute,
            conversion_seconds=self._conversion_seconds,
            total_seconds=total_seconds,
            cpu_seconds=sample + compute,
            wall_seconds=total_seconds,
            samples_generated=samples,
            flops=(self.plan.problem.batch
                   * spmm_flops(self.plan.problem.d, self.A.nnz)),
            blocks_processed=len(self._tasks),
            d=self.plan.problem.d, b_d=self.plan.b_d, b_n=self.plan.b_n,
            extra={"driver": "process", "workers": self.pool.workers,
                   "start_method": pool_start_method(self.pool.start_method),
                   "backend": NUMPY.name,
                   "respawns_used": self._respawns_used,
                   **({"batch": self.plan.problem.batch}
                      if self.plan.problem.batch > 1 else {})},
            health=self.health,
        )
        # Conversion happens once per pool (at start); attribute it to
        # the run that paid for it so warm runs report pure kernel time.
        self._conversion_seconds = 0.0
        return stats

    # -- warm-pool lifecycle -----------------------------------------------

    @property
    def tainted(self) -> bool:
        """True once a run was cancelled mid-flight (deadline abort).

        A tainted pool may still hold workers with claimed tasks that
        would write into a reused output segment; callers must
        :meth:`close` it rather than reuse it.
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
        try:
            self._check_compatible(plan)
        except ConfigError:
            return False
        return True

    def _check_compatible(self, plan: "SketchPlan") -> None:
        base = self.plan
        if (plan.problem.m, plan.problem.n) != (base.problem.m,
                                                base.problem.n):
            raise ConfigError(
                f"warm pool is bound to a {base.problem.m}x{base.problem.n} "
                f"input; plan expects {plan.problem.m}x{plan.problem.n}")
        if plan.kernel != base.kernel:
            raise ConfigError(
                f"warm pool workers are bound to kernel {base.kernel!r}; "
                f"plan wants {plan.kernel!r}")
        if base.kernel == "algo4" and plan.b_n != base.b_n:
            raise ConfigError(
                f"warm pool's shared blocked-CSR uses b_n={base.b_n}; "
                f"plan wants b_n={plan.b_n} (would force reconversion)")

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
        self._ensure_blocked()
        self._shm_names = self._create_segments()
        for _ in range(self._fleet_want()):
            self._spawn_worker(self._ctx, self._shm_names)
        self._binding = _binding(self.plan)
        self._started = True
        return self

    def close(self) -> None:
        """Shut down the fleet and release shared memory (idempotent)."""
        self._shutdown_workers()
        self._release_segments()
        self._started = False
        self._ctx = None
        self._shm_names = {}

    def _refresh_output_segment(self) -> dict[str, str]:
        """Make the shared output buffer match the current plan's shape.

        Returns the segment remappings workers must apply (empty when
        the existing buffer is reused — it is zeroed in place)."""
        import numpy as np
        from multiprocessing import shared_memory

        d, n = self.plan.problem.d, self.plan.problem.n
        batch = self.plan.problem.batch
        shape = (batch, d, n) if batch > 1 else (d, n)
        if self._ahat_shape == shape:
            self.Ahat[:] = 0.0
            return {}
        old = self._segs.pop("ahat", None)
        if old is not None:
            try:
                old.close()
                old.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        seg = shared_memory.SharedMemory(create=True,
                                         size=max(1, batch * d * n * 8))
        self._segs["ahat"] = seg
        self.Ahat = np.ndarray(shape, dtype=np.float64, buffer=seg.buf)
        self.Ahat[:] = 0.0
        self._ahat_shape = shape
        self._shm_names["ahat"] = seg.name
        return {"ahat": seg.name}

    def _reload_workers(self, shm_updates: dict[str, str]) -> None:
        """Rebind live workers to the current plan (new output segment,
        generator recipe, block views).  Pipe ordering guarantees the
        reload lands before any task batch sent afterwards."""
        problem = {"m": self.A.shape[0], "n": self.A.shape[1],
                   "nnz": int(self.A.nnz)}
        if self.blocked is not None:
            problem["n_blocks"] = int(self.blocked.n_blocks)
            problem["blk_nnz"] = int(self.blocked.nnz)
        plan_data = self.plan.to_dict()
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("reload", plan_data, shm_updates, problem))
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
            Optional replacement plan for this run.  Must satisfy
            :meth:`compatible`.  A plan that differs only in its seeds
            (and resilience policy) rebinds each worker's generator on
            its next dispatch; any other change reloads the workers
            with a ``reload`` message.  The shared output buffer is
            recreated only when its shape changes.  ``None`` reuses the
            current plan.  The
            supervision policy (``pool``) stays the one the pool was
            started with — it sized the fleet.
        rng_factory, injector:
            Per-run overrides; ``None`` keeps the constructor's.
        deadline:
            Absolute ``time.monotonic()`` instant.  When it passes
            mid-run the dispatch loop aborts: queued tasks are dropped,
            claimed-but-uncommitted tiles are abandoned (never served),
            the pool is marked :attr:`tainted`, and
            :class:`~repro.errors.TaskTimeoutError` is raised.  A
            tainted pool must be :meth:`close`\\ d, not reused.
        stripes:
            The run's column stripes (:class:`~repro.plan.runtime.Stripes`;
            default one full-width stripe).  The fleet runs them in
            order, one task group at a time, and each stripe's barrier
            copies its columns out of shared memory.

        Returns a *private copy* of the sketch — the shared segment is
        reused by the next run.
        """
        import numpy as np

        from ..kernels.backends import NUMPY
        from ..kernels.blocking import iter_block_tasks
        from ..plan.events import BLOCK_DONE, BLOCK_START
        from ..utils.timing import Timer
        from .resilience import RunHealth

        if not self._started:
            raise ConfigError("pool is not started; call start() or run()")
        if self._tainted:
            raise ConfigError(
                "pool is tainted by a cancelled run; close() and rebuild")
        if plan is not None and plan is not self.plan:
            self._check_compatible(plan)
            self.plan = plan
        if rng_factory is not None:
            self.rng_factory = rng_factory
        if injector is not None:
            self.injector = injector

        if stripes is None:
            from ..plan.runtime import Stripes

            stripes = Stripes(self.plan, self.bus)
        plan_ = self.plan
        d, n = plan_.problem.d, plan_.problem.n

        # Fresh per-run state: each execute() reports its own health.
        self.health = RunHealth()
        self._committed = set()
        self._replays = {}
        self._dispatches = {}
        self._quarantined = []
        self._worker_stats = {"sample": 0.0, "compute": 0.0, "samples": 0}
        self._tasks = list(iter_block_tasks(d, n, plan_.b_d, plan_.b_n))
        self.health.tasks = len(self._tasks)
        self.health.backend = NUMPY.name
        # The warm fleet serving this run was spawned at start(); count
        # it here so each run's health stands alone.
        self.health.workers_spawned = len(self._workers)
        self._track_blocks = self.bus.has_subscribers(BLOCK_START, BLOCK_DONE)

        shm_updates = self._refresh_output_segment()
        binding = _binding(plan_)
        if shm_updates or binding != self._binding:
            self._reload_workers(shm_updates)
            self._binding = binding
        # Grow the fleet for a bigger plan (fresh members, not respawns)
        # — but never resurrect a collapsed pool: that is the caller's
        # signal to recycle it.
        if self._workers:
            want = self._fleet_want()
            while len(self._workers) < want:
                self._spawn_worker(self._ctx, self._shm_names)

        post = self.rng_factory(0).post_scale
        result = np.empty_like(self.Ahat)

        def detach(c0: int, c1: int) -> None:
            # The shared segment is reused next run: copy the stripe out.
            result[..., c0:c1] = self.Ahat[..., c0:c1]
            if post != 1.0:
                result[..., c0:c1] *= post

        with Timer() as total:
            for k in range(len(stripes.bounds)):
                stripes.start(k)
                self._run_group(range(len(self._tasks))[stripes.tasks(k)],
                                deadline)
                stripes.commit(k, detach)
        return result, self._finish_stats(total.elapsed)

    def _run_group(self, group: range, deadline: float | None) -> None:
        """Run one stripe's tasks on the fleet; the degradation ladder
        finishes what the fleet could not."""
        import multiprocessing

        self._ready = deque(group)
        self._backoff_heap = []
        batch = self.pool.batch_size
        if batch <= 0:
            batch = max(1, min(
                8, (len(group) + 4 * self.pool.workers - 1)
                // (4 * self.pool.workers)))
        tick = min(0.05, self.pool.heartbeat_timeout / 5.0)

        while (self._workers
                and (self._ready or self._backoff_heap
                     or any(h.assigned for h in self._workers.values()))):
            if deadline is not None and time.monotonic() >= deadline:
                self._cancel_run(deadline)
            self._drain_backoff()
            for handle in list(self._workers.values()):
                if not handle.assigned and self._ready:
                    self._dispatch(handle, batch)
            conns = {h.conn: h for h in self._workers.values()}
            if conns:
                readable = multiprocessing.connection.wait(
                    list(conns), timeout=tick)
                for conn in readable:
                    handle = conns.get(conn)
                    if handle is not None and handle.wid in self._workers:
                        self._pump_worker(handle)
            self._check_liveness()
            self._maybe_respawn(self._ctx, self._shm_names)

        leftover = [idx for idx in group if idx not in self._committed]
        if leftover:
            if deadline is not None and time.monotonic() >= deadline:
                self._cancel_run(deadline)
            self._degrade(leftover, deadline)

    def _cancel_run(self, deadline: float) -> None:
        """Abort the in-flight run at its deadline.

        Queued work is dropped and claimed-but-uncommitted tiles are
        abandoned; whatever those workers later write lands in a buffer
        nobody will serve, but the pool is tainted so it cannot be
        reused either.  Raises :class:`TaskTimeoutError`.
        """
        claimed = sum(len(h.assigned) for h in self._workers.values())
        pending = len(self._tasks) - self.health.completed
        self._ready.clear()
        self._backoff_heap = []
        self._tainted = True
        self.health.timeouts += 1
        self.health.record(
            f"run deadline expired: {pending} task(s) unfinished, "
            f"{claimed} claimed-but-uncommitted cancelled; pool tainted")
        raise TaskTimeoutError(
            f"run deadline expired with {pending}/{len(self._tasks)} "
            f"task(s) unfinished ({claimed} claimed-but-uncommitted "
            f"cancelled)")

    def _shutdown_workers(self) -> None:
        from ..plan.events import WORKER_LOST

        for handle in list(self._workers.values()):
            self._workers.pop(handle.wid, None)
            try:
                handle.conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
            handle.proc.join(timeout=2)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                try:
                    os.kill(handle.pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
                handle.proc.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            self.bus.emit(WORKER_LOST, worker=handle.wid, pid=handle.pid,
                          reason="shutdown")
