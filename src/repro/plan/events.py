"""Lightweight lifecycle-event bus for the plan/compile/execute stack.

Every layer of the runtime announces what it is doing through a shared
:class:`EventBus` instead of calling its observers directly: the engine
emits ``block_start``/``block_done`` around every kernel invocation,
``retry``/``degraded`` when the resilience machinery intervenes, and
``checkpoint_written`` after each durable snapshot; the runtime brackets
the whole run with ``plan_compiled`` and ``done``.  Anything that wants
to watch a run — :class:`~repro.parallel.resilience.RunHealth`
consumers, CLI progress output, the observability layer
(:mod:`repro.obs`), the fault injector — subscribes to the names it
cares about and never has to be threaded through executor internals.

The bus distinguishes two kinds of subscriber, because they have
opposite failure contracts:

* **Intervention handlers** (:meth:`EventBus.subscribe`) run inline in
  the emitting thread and may *raise* — that is a feature, not a bug:
  the fault injector's ``task_start`` subscriber injects failures
  exactly this way.  They may also *mutate* the event's payload — the
  ``rng_request`` subscriber swaps in a corrupted generator by
  assigning ``event["rng"]``.
* **Observers** (:meth:`EventBus.subscribe_observer`) watch but must
  never be able to abort or corrupt a sketch: any exception they raise
  is swallowed and counted in :attr:`EventBus.dropped_events`, so a
  bug in a metrics exporter can never change a run's output or exit
  code.  Observers run after the intervention handlers for the same
  event and see their payload mutations.

The bus is deliberately tiny and synchronous.  ``emit`` with zero
subscribers for a name is one lock-free dictionary probe, so
instrumenting the hot path costs nothing when nobody is listening
(dispatch reads an immutable snapshot that is rebuilt on every
``subscribe``/``unsubscribe``, never mutated in place).

Subscribing is thread-safe; a handler registered mid-run sees only
subsequent events.
"""

from __future__ import annotations

import threading
from typing import Callable

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
    "REQUEST_ADMITTED",
    "REQUEST_SHED",
    "REQUEST_DONE",
    "REQUESTS_COALESCED",
    "DEADLINE_MISSED",
    "DRAIN_STARTED",
    "LIFECYCLE_EVENTS",
]

#: Lifecycle events every run emits (in roughly this order).
#: ``block_done``'s payload carries the task's ``i``, ``d1``, ``j``,
#: ``n1``, ``kernel``, and the tile's ``sample_seconds``,
#: ``compute_seconds`` and ``samples`` (sketch entries generated).
PLAN_COMPILED = "plan_compiled"
BLOCK_START = "block_start"
BLOCK_DONE = "block_done"
CHECKPOINT_WRITTEN = "checkpoint_written"
RETRY = "retry"
DEGRADED = "degraded"
DONE = "done"

#: Process-pool supervision events (the ``process`` driver only):
#: ``worker_spawned`` when the supervisor starts a worker (payload
#: ``worker``, ``pid``, ``respawn``), ``worker_lost`` when it declares
#: one dead (payload ``worker``, ``pid``, ``reason`` — ``"crashed"`` /
#: ``"hung"`` / ``"shutdown"``), and ``task_requeued`` when a claimed
#: task returns to the queue (payload ``task``, ``reason``,
#: ``replays``, ``backoff``).
WORKER_SPAWNED = "worker_spawned"
WORKER_LOST = "worker_lost"
TASK_REQUEUED = "task_requeued"

#: Artifact-cache events (:mod:`repro.cache`): ``cache_hit`` when a
#: lookup is served from memory or a verified disk entry (payload
#: ``artifact``, ``key``, ``source`` — ``"memory"`` / ``"disk"``),
#: ``cache_miss`` when it is not (payload ``artifact``, ``key``,
#: ``reason`` — ``"absent"`` / ``"corrupt"``), and ``cache_evicted``
#: when the LRU sweep drops an entry (payload ``artifact``, ``key``,
#: ``nbytes``).
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_EVICTED = "cache_evicted"

#: Sharded-execution events (partitioned plans only): ``shard_start``
#: when the runtime begins one shard's task group (payload ``shard``,
#: ``shards``, ``col_start``, ``col_stop``), ``shard_merged`` after its
#: partial result is folded into the final sketch, in ascending column
#: order (payload ``shard``,
#: ``col_start``, ``col_stop``, ``seconds`` — the measured merge cost —
#: and ``words`` — output words propagated), and ``shard_resumed`` when
#: a shard restored verified checkpoint state (payload ``shard``,
#: ``rows``, ``repartitioned`` — True when the state was re-partitioned
#: from a run with a different shard count — and ``source``).
SHARD_START = "shard_start"
SHARD_MERGED = "shard_merged"
SHARD_RESUMED = "shard_resumed"

#: Serving-daemon lifecycle events (:mod:`repro.serve`):
#: ``request_admitted`` when a request clears admission control (payload
#: ``request_id``, ``queue_depth``), ``request_shed`` when one is
#: rejected by load shedding (payload ``request_id``, ``reason`` —
#: ``"queue_full"`` / ``"breaker_open"`` / ``"draining"`` — and
#: ``retry_after``), ``request_done`` when a response is produced
#: (payload ``request_id``, ``status``, ``seconds`` — dequeue to
#: response — and ``queue_wait``, admission to dequeue),
#: ``requests_coalesced`` when an executor folds compatible queued
#: requests into one batched run (payload ``batch`` — total requests in
#: the pooled run, leader included — ``request_ids``, ``leader``),
#: ``deadline_missed`` when a request's deadline expires (payload
#: ``request_id``, ``phase`` — ``"queue"`` / ``"execute"``), and
#: ``drain_started`` when graceful shutdown begins (payload
#: ``in_flight``, ``queued``).
REQUEST_ADMITTED = "request_admitted"
REQUEST_SHED = "request_shed"
REQUEST_DONE = "request_done"
REQUESTS_COALESCED = "requests_coalesced"
DEADLINE_MISSED = "deadline_missed"
DRAIN_STARTED = "drain_started"

#: Interposition hooks: fired around each task attempt of the engine's
#: task loop so subscribers (the fault injector) can fail, delay, or corrupt
#: an attempt.  Payloads are mutable; ``rng_request`` handlers may
#: replace ``event["rng"]``.
TASK_START = "task_start"
RNG_REQUEST = "rng_request"
BLOCK_COMPUTED = "block_computed"

LIFECYCLE_EVENTS = (
    PLAN_COMPILED, BLOCK_START, BLOCK_DONE, CHECKPOINT_WRITTEN,
    RETRY, DEGRADED, DONE, WORKER_SPAWNED, WORKER_LOST, TASK_REQUEUED,
    CACHE_HIT, CACHE_MISS, CACHE_EVICTED,
    SHARD_START, SHARD_MERGED, SHARD_RESUMED,
    REQUEST_ADMITTED, REQUEST_SHED, REQUEST_DONE, REQUESTS_COALESCED,
    DEADLINE_MISSED, DRAIN_STARTED,
)

#: Hook events whose mere presence switches the engine onto its resilient
#: policy (retries and a health report), exactly as passing
#: ``injector=`` used to.
FAULT_HOOK_EVENTS = (TASK_START, RNG_REQUEST, BLOCK_COMPUTED)


class Event:
    """One emitted event: a name plus a mutable payload dict.

    Payload entries are exposed both as mapping items (``event["task"]``)
    and via :meth:`get`; handlers that need to hand a value back to the
    emitter (e.g. a replacement RNG) assign into the payload.
    """

    __slots__ = ("name", "payload")

    def __init__(self, name: str, payload: dict | None = None) -> None:
        self.name = name
        self.payload = payload if payload is not None else {}

    def __getitem__(self, key: str):
        return self.payload[key]

    def __setitem__(self, key: str, value) -> None:
        self.payload[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.payload

    def get(self, key: str, default=None):
        return self.payload.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, {self.payload!r})"


Handler = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe hub keyed by event name.

    Attributes
    ----------
    dropped_events:
        Count of observer-handler exceptions swallowed so far, keyed by
        event name.  Exported by the observability layer as the
        ``dropped_events`` metric; always zero for intervention
        handlers, whose exceptions propagate.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handlers: dict[str, list[Handler]] = {}
        self._observers: dict[str, list[Handler]] = {}
        # Immutable dispatch snapshot: name -> (intervention, observers).
        # Rebuilt (never mutated) under the lock so ``emit`` can read it
        # without taking the lock.
        self._snapshot: dict[str, tuple[tuple[Handler, ...],
                                        tuple[Handler, ...]]] = {}
        self.dropped_events: dict[str, int] = {}

    def _rebuild_snapshot(self) -> None:
        names = set(self._handlers) | set(self._observers)
        self._snapshot = {
            name: (tuple(self._handlers.get(name, ())),
                   tuple(self._observers.get(name, ())))
            for name in names
            if self._handlers.get(name) or self._observers.get(name)
        }

    def subscribe(self, name: str, handler: Handler) -> Handler:
        """Register an *intervention* handler for events named *name*.

        Intervention handlers run inline, may mutate the payload, and
        may raise — their exceptions propagate to the emitter (the
        fault injector depends on this).  Returns the handler
        (convenient for later :meth:`unsubscribe`).
        """
        with self._lock:
            self._handlers.setdefault(name, []).append(handler)
            self._rebuild_snapshot()
        return handler

    def subscribe_observer(self, name: str, handler: Handler) -> Handler:
        """Register an *observer* handler for events named *name*.

        Observers run after the intervention handlers; any exception
        they raise is swallowed and counted in :attr:`dropped_events`,
        so an observer bug can never abort or slow-path a sketch.
        """
        with self._lock:
            self._observers.setdefault(name, []).append(handler)
            self._rebuild_snapshot()
        return handler

    def unsubscribe(self, name: str, handler: Handler) -> None:
        """Remove a previously subscribed handler of either kind
        (no-op if absent)."""
        with self._lock:
            for table in (self._handlers, self._observers):
                handlers = table.get(name)
                if handlers and handler in handlers:
                    handlers.remove(handler)
            self._rebuild_snapshot()

    def has_subscribers(self, *names: str) -> bool:
        """True if any of *names* has at least one handler (of either
        kind)."""
        snapshot = self._snapshot
        return any(n in snapshot for n in names)

    def dropped_total(self) -> int:
        """Total observer exceptions swallowed across all event names."""
        with self._lock:
            return sum(self.dropped_events.values())

    def emit(self, name: str, **payload) -> Event:
        """Dispatch an event to its subscribers (in registration order).

        Returns the (possibly handler-mutated) :class:`Event` so emitters
        can read values subscribers handed back.  Intervention-handler
        exceptions propagate to the emitter — the engine's task loop treats
        them as task failures, which is how injected faults enter the
        run.  Observer exceptions are swallowed and counted in
        :attr:`dropped_events`.
        """
        entry = self._snapshot.get(name)
        event = Event(name, payload)
        if entry is None:
            return event
        intervention, observers = entry
        for handler in intervention:
            handler(event)
        for handler in observers:
            try:
                handler(event)
            except Exception:  # noqa: BLE001 - observer isolation boundary
                with self._lock:
                    self.dropped_events[name] = \
                        self.dropped_events.get(name, 0) + 1
        return event
