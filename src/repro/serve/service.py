"""The sketch service: admission, execution, recovery, drain.

:class:`SketchService` is the transport-independent core of ``repro
serve``.  The HTTP daemon (:mod:`repro.serve.daemon`) is a thin shell
around it; tests drive it directly.  One service owns:

* a bounded :class:`~repro.serve.admission.AdmissionQueue` consumed by
  a small pool of executor threads — requests either get a seat or are
  shed immediately with a retry hint;
* a :class:`~repro.serve.breaker.CircuitBreaker` over request outcomes
  — consecutive pool degradations flip the service to fast shedding
  until a half-open probe succeeds;
* LRU-bounded stores of input matrices and **warm**
  :class:`~repro.parallel.ProcessPoolSupervisor` pools, so the "fixed
  A, many sketches" workload pays matrix publication and worker
  spawning once, not per request;
* the recovery ladder: a request whose warm pool collapses (or is
  killed by chaos) is deterministically re-executed on the serial
  driver — coordinate-keyed generators make the replay **bit-identical**
  to what the pool would have produced, so clients cannot observe the
  crash except in the stats;
* graceful drain: stop admitting, shed the queue with retry hints,
  finish in-flight work, persist a drain-state file, close the pools;
* request coalescing (``ServeConfig.max_batch > 1``): an executor that
  dequeues a request also drains queued requests *compatible* with it —
  same matrix spec, same planning config apart from the seed, no chaos,
  no frozen plan — and compiles them into one batched plan
  (``batch_seeds``) executed in a single pass over A.  Every request
  gets its own slice of the stacked output; the coordinate-keyed RNG
  contract makes that slice bit-identical to what a solo run would have
  produced.  The pooled run honours the *tightest* member deadline, and
  any pooled failure falls back to processing each member individually,
  so coalescing can never make a request fail that would have succeeded
  alone.

Deadlines bind at every stage: a request expiring while queued is
failed with ``phase="queue"`` without touching a kernel; the remaining
budget of an executing request propagates into
``ResilienceConfig.task_timeout`` *and* the pool's absolute run
deadline, which cancels claimed-but-uncommitted tiles on expiry
(``phase="execute"``) and taints the pool so stale workers can never
write into a served buffer.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import signal
import threading
import time
from collections import OrderedDict

from ..errors import (
    ConfigError,
    ReproError,
    RequestDeadlineError,
    RequestShedError,
    TaskTimeoutError,
)
from ..plan.events import (
    DEADLINE_MISSED,
    DRAIN_STARTED,
    REQUEST_ADMITTED,
    REQUEST_DONE,
    REQUEST_SHED,
    REQUESTS_COALESCED,
    EventBus,
)
from .admission import AdmissionQueue
from .breaker import CircuitBreaker
from .config import ServeConfig
from .protocol import SketchRequest, encode_result, parse_request

__all__ = ["SketchService", "Ticket"]


class Ticket:
    """One admitted request's journey through the executor threads."""

    __slots__ = ("request", "deadline", "enqueued", "done", "response",
                 "error", "slow_client")

    def __init__(self, request: SketchRequest,
                 deadline: float | None) -> None:
        self.request = request
        self.deadline = deadline          # absolute time.monotonic()
        self.enqueued = time.monotonic()
        self.done = threading.Event()
        self.response: dict | None = None
        self.error: ReproError | None = None
        self.slow_client: float = 0.0

    def chaos_kill_pool(self) -> bool:
        chaos = self.request.chaos
        return bool(chaos and chaos.get("kill_pool"))

    def wait(self, timeout: float | None = None) -> dict:
        """Block until processed; returns the response document or
        raises the typed error the request failed with."""
        if not self.done.wait(timeout=timeout):
            raise TaskTimeoutError(
                f"request {self.request.request_id} did not complete "
                f"within the wait timeout")
        if self.error is not None:
            raise self.error
        assert self.response is not None
        return self.response


class SketchService:
    """Long-lived, crash-tolerant executor of sketch requests."""

    def __init__(self, config: ServeConfig | None = None,
                 bus: EventBus | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.bus = bus if bus is not None else EventBus()
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_recovery)
        self.cache = None
        if self.config.cache_dir is not None:
            from ..cache.policy import CachePolicy
            from ..cache.store import ArtifactCache

            self.cache = ArtifactCache(
                CachePolicy(cache_dir=self.config.cache_dir), bus=self.bus)
        self.counters = {"served": 0, "shed": 0, "deadline_missed": 0,
                         "failed": 0, "recovered": 0, "coalesced": 0}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._matrices: OrderedDict[str, tuple] = OrderedDict()
        self._pools: OrderedDict[tuple, object] = OrderedDict()
        self._pool_lock = threading.Lock()
        self._tl = threading.local()
        self._threads: list[threading.Thread] = []
        self._inflight = 0
        self._started = False
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SketchService":
        """Spawn the executor threads (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        for i in range(self.config.executors):
            t = threading.Thread(target=self._executor_loop,
                                 name=f"repro-serve-exec-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    @property
    def ready(self) -> bool:
        """Accepting new requests right now?"""
        return self._started and not self._draining

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._inflight

    def drain(self) -> bool:
        """Graceful shutdown: stop admitting, shed the queue with retry
        hints, let in-flight requests finish, persist drain state,
        close the warm pools.  Returns ``True`` on a clean drain within
        ``drain_timeout`` (→ exit 0)."""
        with self._lock:
            if self._draining:
                return True
            self._draining = True
            in_flight = self._inflight
        self.bus.emit(DRAIN_STARTED, in_flight=in_flight,
                      queued=self.queue.depth)
        retry_after = self.queue.retry_after()
        for ticket in self.queue.close():
            err = RequestShedError(
                "daemon is draining; request was queued but never "
                "started — retry against the replacement instance",
                reason="draining", retry_after=retry_after)
            self._finish_shed(ticket, err)
        deadline = time.monotonic() + self.config.drain_timeout
        clean = True
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                clean = False
        self._write_drain_state(clean)
        self.close_pools()
        return clean

    def close(self) -> None:
        """Hard shutdown (tests): close the queue and the pools."""
        self._draining = True
        for ticket in self.queue.close():
            self._finish_shed(ticket, RequestShedError(
                "service closed", reason="draining",
                retry_after=self.queue.retry_after()))
        for t in self._threads:
            t.join(timeout=5.0)
        self.close_pools()

    def close_pools(self) -> None:
        with self._pool_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    def _write_drain_state(self, clean: bool) -> None:
        """Atomically persist the drain outcome (torn-write safe)."""
        if self.config.checkpoint_dir is None:
            return
        try:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            path = os.path.join(self.config.checkpoint_dir,
                                "serve_drain_state.json")
            tmp = path + ".tmp"
            state = {"clean": clean, "counters": dict(self.counters),
                     "unix_time": time.time()}
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(state, fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - drain must not crash on IO
            pass

    # -- admission ---------------------------------------------------------

    def submit(self, request: SketchRequest) -> Ticket:
        """Admit one request or shed it.

        Raises :class:`RequestShedError` when the daemon is draining,
        the breaker is open, or the queue is full; otherwise returns
        the :class:`Ticket` whose :meth:`Ticket.wait` yields the
        response.
        """
        if not request.request_id:
            request.request_id = f"r{next(self._ids)}"
        if not self.breaker.allow():
            err = RequestShedError(
                "circuit breaker is open after consecutive pool "
                "degradations; backing off",
                reason="breaker_open",
                retry_after=self.breaker.retry_after())
            self._count_shed(request.request_id, err)
            raise err
        seconds = request.deadline_seconds
        if seconds is None:
            seconds = self.config.default_deadline
        deadline = None if seconds is None else time.monotonic() + seconds
        ticket = Ticket(request, deadline)
        if request.chaos:
            ticket.slow_client = float(
                request.chaos.get("slow_client") or 0.0)
        try:
            depth = self.queue.offer(ticket)
        except RequestShedError as err:
            self._count_shed(request.request_id, err)
            raise
        self.bus.emit(REQUEST_ADMITTED, request_id=request.request_id,
                      queue_depth=depth)
        return ticket

    def handle(self, body, *, wait_timeout: float | None = None) -> dict:
        """Parse → submit → wait: the synchronous request path used by
        the HTTP handler and by embedded callers/tests."""
        request = parse_request(body, allow_chaos=self.config.allow_chaos)
        ticket = self.submit(request)
        if wait_timeout is None and ticket.deadline is not None:
            # Give the executor the full budget plus shutdown slack.
            wait_timeout = (ticket.deadline - time.monotonic()
                            + self.config.drain_timeout + 5.0)
        return ticket.wait(timeout=wait_timeout)

    def _count_shed(self, request_id: str, err: RequestShedError) -> None:
        with self._lock:
            self.counters["shed"] += 1
        self.bus.emit(REQUEST_SHED, request_id=request_id,
                      reason=err.reason, retry_after=err.retry_after)

    def _finish_shed(self, ticket: Ticket, err: RequestShedError) -> None:
        self._count_shed(ticket.request.request_id, err)
        ticket.error = err
        ticket.done.set()

    # -- execution ---------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            ticket = self.queue.take(timeout=0.1)
            if ticket is None:
                if self.queue.closed:
                    return
                continue
            group = [ticket]
            if self.config.max_batch > 1:
                group.extend(self._coalesce(ticket))
            with self._lock:
                self._inflight += len(group)
            started = time.monotonic()
            try:
                if len(group) == 1:
                    self._process(ticket)
                else:
                    self._process_batch(group)
            finally:
                elapsed = time.monotonic() - started
                with self._lock:
                    self._inflight -= len(group)
                # The EWMA feeds per-request retry-after hints, so a
                # pooled run reports its amortized per-request cost.
                self.queue.observe_service_time(elapsed / len(group))
                for t in group:
                    status = "ok" if t.error is None else \
                        type(t.error).__name__
                    self.bus.emit(REQUEST_DONE,
                                  request_id=t.request.request_id,
                                  status=status, seconds=elapsed,
                                  queue_wait=started - t.enqueued,
                                  queue_depth=self.queue.depth)
                    t.done.set()

    # -- coalescing --------------------------------------------------------

    def _coalesce_key(self, ticket: Ticket) -> str | None:
        """Canonical compatibility key of one request, or ``None`` when
        the request must not be coalesced.

        Two requests may share a batched run only when everything that
        shapes the computation — matrix spec, kernel, blocking,
        distribution, generator family, driver, partition — is
        identical; only the seed may differ (it becomes that request's
        entry in ``batch_seeds``).  Frozen-plan requests,
        chaos requests, and the pregenerated kernel (which has no
        batched tier) always run solo.
        """
        request = ticket.request
        if request.plan is not None or request.chaos:
            return None
        if request.config.get("kernel") == "pregen":
            return None
        config = {k: v for k, v in request.config.items() if k != "seed"}
        try:
            return json.dumps([request.matrix, config], sort_keys=True)
        except TypeError:
            return None

    def _coalesce(self, leader: Ticket) -> list:
        """Drain queued tickets compatible with *leader* (never blocks
        waiting for more arrivals)."""
        key = self._coalesce_key(leader)
        if key is None:
            return []
        return self.queue.take_matching(
            lambda t: self._coalesce_key(t) == key,
            self.config.max_batch - 1)

    @staticmethod
    def _seed_of(ticket: Ticket) -> int:
        from ..core.config import SketchConfig

        seed = ticket.request.config.get("seed")
        return int(seed) if seed is not None else SketchConfig().seed

    def _process_batch(self, group: list) -> None:
        """Execute coalesced *group* as one batched run and demux the
        stacked sketch back to the member tickets."""
        live = []
        for t in group:
            if t.deadline is not None and time.monotonic() >= t.deadline:
                self._miss_deadline(t, "queue")
            else:
                live.append(t)
        if not live:
            return
        if len(live) == 1:
            self._process(live[0])
            return
        leader = live[0]
        self.bus.emit(REQUESTS_COALESCED, batch=len(live),
                      leader=leader.request.request_id,
                      request_ids=[t.request.request_id for t in live])
        try:
            A, matrix_key = self._matrix_for(leader.request.matrix)
            plan = self._plan_for(
                leader.request, A,
                batch_seeds=[self._seed_of(t) for t in live])
            # The pooled run binds to the tightest member deadline; a
            # looser member whose pooled attempt dies on it is re-run
            # solo below, under its own budget.
            with_deadline = [t for t in live if t.deadline is not None]
            tight = min(with_deadline, key=lambda t: t.deadline) \
                if with_deadline else leader
            plan = self._propagate_deadline(plan, tight)
            self._tl.ticket = tight
            self._tl.matrix_key = matrix_key
            try:
                result = self._execute(plan, A, None, tight)
            finally:
                self._tl.ticket = None
                self._tl.matrix_key = None
        except ConfigError as err:
            # The members share one config, so a bad one fails them all
            # identically — and says nothing about pool health.
            self.breaker.record_neutral()
            with self._lock:
                self.counters["failed"] += len(live)
            for t in live:
                t.error = err
            return
        except ReproError:
            # Coalescing is an optimization, never a correctness risk:
            # any pooled failure (deadline, timeout, crash beyond the
            # recovery ladder) degrades to per-request processing so a
            # member with budget to spare still gets its solo answer.
            self.breaker.record_neutral()
            for t in live:
                self._process(t)
            return
        health = result.stats.health
        degraded = health is not None and (health.degraded_to_thread
                                           or health.degraded_to_serial)
        if degraded:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        recovered = bool(result.stats.extra.get("serve_recovered"))
        for index, t in enumerate(live):
            sub = dataclasses.replace(result, sketch=result.sketch[index])
            t.response = encode_result(sub, t.request.output,
                                       t.request.request_id)
            t.response["coalesced"] = {"batch": len(live), "index": index}
            if recovered:
                t.response["recovered"] = True
            if t.slow_client > 0:
                t.response["slow_client"] = t.slow_client
        with self._lock:
            self.counters["served"] += len(live)
            self.counters["coalesced"] += len(live)

    def _process(self, ticket: Ticket) -> None:
        request = ticket.request
        try:
            if ticket.deadline is not None \
                    and time.monotonic() >= ticket.deadline:
                self._miss_deadline(ticket, "queue")
                return
            A, matrix_key = self._matrix_for(request.matrix)
            plan = self._plan_for(request, A)
            plan = self._propagate_deadline(plan, ticket)
            injector = self._injector_for(request)
            self._tl.ticket = ticket
            self._tl.matrix_key = matrix_key
            try:
                result = self._execute(plan, A, injector, ticket)
            finally:
                self._tl.ticket = None
                self._tl.matrix_key = None
            health = result.stats.health
            degraded = health is not None and (health.degraded_to_thread
                                               or health.degraded_to_serial)
            if degraded:
                # Served fine (the ladder is bit-identical), but the
                # pool is sick — that is the breaker's trip signal.
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
            ticket.response = encode_result(result, request.output,
                                            request.request_id)
            if result.stats.extra.get("serve_recovered"):
                ticket.response["recovered"] = True
            if ticket.slow_client > 0:
                # Chaos hook: the transport delays writing this response
                # on its own connection thread; executors stay free.
                ticket.response["slow_client"] = ticket.slow_client
            with self._lock:
                self.counters["served"] += 1
        except RequestDeadlineError as err:
            # Raised below _process (deadline expired between admission
            # checks, or inside an execution layer): same bookkeeping as
            # a miss detected here.
            self._record_deadline_miss(ticket, err.phase)
            ticket.error = err
        except TaskTimeoutError as err:
            if ticket.deadline is not None \
                    and time.monotonic() >= ticket.deadline:
                self._miss_deadline(ticket, "execute", str(err))
            else:
                self.breaker.record_failure()
                with self._lock:
                    self.counters["failed"] += 1
                ticket.error = err
        except ConfigError as err:
            # A bad request says nothing about pool health.
            self.breaker.record_neutral()
            with self._lock:
                self.counters["failed"] += 1
            ticket.error = err
        except ReproError as err:
            self.breaker.record_failure()
            with self._lock:
                self.counters["failed"] += 1
            ticket.error = err

    def _record_deadline_miss(self, ticket: Ticket, phase: str) -> None:
        with self._lock:
            self.counters["deadline_missed"] += 1
        self.bus.emit(DEADLINE_MISSED,
                      request_id=ticket.request.request_id, phase=phase)
        # A deadline miss says nothing about pool health either way,
        # but a half-open probe must not stay checked out forever.
        self.breaker.record_neutral()

    def _miss_deadline(self, ticket: Ticket, phase: str,
                       detail: str = "") -> None:
        self._record_deadline_miss(ticket, phase)
        message = (f"request {ticket.request.request_id} deadline expired "
                   f"in phase {phase!r}")
        if detail:
            message += f": {detail}"
        ticket.error = RequestDeadlineError(message, phase=phase)

    def _execute(self, plan, A, injector, ticket: Ticket):
        """One run, with deterministic crash recovery.

        A warm-pool collapse mid-request (worker massacre, supervisor
        taint short of a deadline) falls back to a serial re-execution
        of the same plan — bit-identical by the coordinate-keyed RNG
        contract — so the client sees a correct response and only the
        stats betray the crash.
        """
        from ..plan.runtime import Runtime

        runtime = Runtime(self.bus)
        runtime.register_local_driver("process", self._warm_process_driver)
        try:
            return runtime.run(plan, A, injector=injector, cache=self.cache)
        except (RequestDeadlineError, TaskTimeoutError, ConfigError):
            raise
        except ReproError:
            if ticket.deadline is not None \
                    and time.monotonic() >= ticket.deadline:
                raise
            with self._lock:
                self.counters["recovered"] += 1
            serial = dataclasses.replace(plan, driver="serial", threads=1)
            result = Runtime(self.bus).run(serial, A, cache=self.cache)
            result.stats.extra["serve_recovered"] = True
            return result

    # -- planning ----------------------------------------------------------

    def _plan_for(self, request: SketchRequest, A, batch_seeds=None):
        from ..core.config import SketchConfig
        from ..parallel.procpool import WorkerPoolConfig
        from ..parallel.resilience import ResilienceConfig
        from ..plan.planner import Planner
        from ..plan.spec import SketchPlan

        if request.plan is not None:
            try:
                return SketchPlan.from_dict(request.plan)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"invalid plan record: {exc}") from None
        cfg_fields = dict(request.config)
        d = cfg_fields.pop("d", None)
        gamma = cfg_fields.pop("gamma", None)
        driver = cfg_fields.pop("driver", "auto")
        workers = cfg_fields.pop("workers", None)
        resilience = cfg_fields.pop("resilience", None)
        if resilience is not None:
            if not isinstance(resilience, dict):
                raise ConfigError("config.resilience must be an object")
            try:
                resilience = ResilienceConfig(**resilience)
            except TypeError as exc:
                raise ConfigError(
                    f"invalid resilience config: {exc}") from None
        try:
            cfg = SketchConfig(resilience=resilience, **cfg_fields)
        except TypeError as exc:
            raise ConfigError(f"invalid config: {exc}") from None
        pool = None
        if workers is not None:
            pool = WorkerPoolConfig(workers=int(workers))
        return Planner().compile(A, cfg, d=d, gamma=gamma, driver=driver,
                                 pool=pool,
                                 batch_seeds=batch_seeds, cache=self.cache)

    def _propagate_deadline(self, plan, ticket: Ticket):
        """Fold the request's remaining budget into the plan's per-task
        deadline, so every execution layer under this request — engine
        futures, serial post-hoc checks, the pool's fallback rungs —
        enforces it."""
        from ..parallel.resilience import ResilienceConfig

        if ticket.deadline is None:
            return plan
        remaining = ticket.deadline - time.monotonic()
        if remaining <= 0:
            raise RequestDeadlineError(
                f"request {ticket.request.request_id} deadline expired "
                f"before execution began", phase="queue")
        base = plan.resilience if plan.resilience is not None \
            else ResilienceConfig()
        timeout = remaining if base.task_timeout is None \
            else min(base.task_timeout, remaining)
        return dataclasses.replace(
            plan, resilience=dataclasses.replace(base, task_timeout=timeout))

    def _injector_for(self, request: SketchRequest):
        if not request.chaos or not request.chaos.get("faults"):
            return None
        from ..faults.injector import FaultInjector
        from ..faults.plan import FaultPlan, FaultSpec

        specs = []
        for f in request.chaos["faults"]:
            fields = dict(f)
            if fields.get("task") is not None:
                fields["task"] = tuple(fields["task"])
            specs.append(FaultSpec(**fields))
        return FaultInjector(FaultPlan(
            specs, seed=int(request.chaos.get("seed", 0))))

    # -- matrices and warm pools -------------------------------------------

    def _matrix_for(self, spec: dict):
        """Load (or LRU-recall) the request's input matrix; returns
        ``(A, content_fingerprint)``."""
        from ..cache.keys import matrix_fingerprint

        key = json.dumps(spec, sort_keys=True)
        with self._lock:
            entry = self._matrices.get(key)
            if entry is not None:
                self._matrices.move_to_end(key)
                return entry
        if "random" in spec:
            from ..sparse import random_sparse

            m, n, density = spec["random"]
            A = random_sparse(m, n, density, seed=spec.get("seed", 0))
        else:
            from ..sparse.io_mm import read_matrix_market

            try:
                A = read_matrix_market(spec["path"])
            except OSError as exc:
                raise ConfigError(
                    f"cannot read matrix {spec['path']!r}: {exc}") from None
        entry = (A, matrix_fingerprint(A))
        with self._lock:
            self._matrices[key] = entry
            self._matrices.move_to_end(key)
            while len(self._matrices) > self.config.max_matrices:
                self._matrices.popitem(last=False)
        return entry

    def _pool_key(self, plan, matrix_key: str) -> tuple:
        # One pool per matrix: a sharded run uses the same fleet, whole
        # A and whole blocked CSR as an unsharded one.
        b_n = plan.b_n if plan.kernel == "algo4" else None
        return (matrix_key, plan.kernel, b_n)

    def _get_pool(self, plan, A, matrix_key: str, blocked):
        """Fetch or build the warm pool bound to this (matrix, kernel,
        ``b_n``); LRU-evicts (and closes) excess pools."""
        from ..parallel.procpool import ProcessPoolSupervisor

        key = self._pool_key(plan, matrix_key)
        stale = None
        with self._pool_lock:
            pool = self._pools.get(key)
            if pool is not None:
                if not pool.tainted and pool.compatible(plan):
                    self._pools.move_to_end(key)
                    return pool
                stale = self._pools.pop(key)
        if stale is not None:
            stale.close()
        pool = ProcessPoolSupervisor(plan, A, plan.rng_factory(),
                                     bus=self.bus, blocked=blocked)
        pool.start()
        evicted = []
        with self._pool_lock:
            self._pools[key] = pool
            self._pools.move_to_end(key)
            while len(self._pools) > self.config.warm_pools:
                evicted.append(self._pools.popitem(last=False)[1])
        for old in evicted:
            old.close()
        return pool

    def _recycle_pool(self, plan, matrix_key: str) -> None:
        key = self._pool_key(plan, matrix_key)
        with self._pool_lock:
            pool = self._pools.pop(key, None)
        if pool is not None:
            pool.close()

    def _warm_process_driver(self, runtime, plan, A, factory, blocked,
                             injector, stripes):
        """Instance-local ``process`` driver: execute on the warm,
        reused supervisor instead of building one per request."""
        ticket: Ticket = self._tl.ticket
        matrix_key: str = self._tl.matrix_key
        pool = self._get_pool(plan, A, matrix_key, blocked)
        if ticket is not None and ticket.chaos_kill_pool():
            self._schedule_pool_kill(pool)
        # The request's injector, or none: a chaos request's faults must
        # not outlive it on the warm pool.
        pool.injector = injector
        try:
            return pool.execute(plan, factory,
                                deadline=ticket.deadline
                                if ticket is not None else None,
                                stripes=stripes)
        finally:
            if pool.tainted:
                self._recycle_pool(plan, matrix_key)

    def _schedule_pool_kill(self, pool) -> None:
        """Chaos hook ``kill_pool``: SIGKILL every live worker shortly
        after dispatch begins, mid-request."""
        victims = pool.worker_pids()

        def _massacre() -> None:
            for pid in victims:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already gone
                    pass

        timer = threading.Timer(0.05, _massacre)
        timer.daemon = True
        timer.start()
