"""The run observer: EventBus lifecycle events → metrics, traces, profiles.

:class:`RunObserver` is the one object callers attach to get the full
observability surface::

    from repro.plan import Planner, Runtime
    from repro.obs import RunObserver

    rt = Runtime()
    obs = RunObserver().attach(rt.bus)
    result = rt.run(plan, A)
    obs.metrics_text()            # Prometheus exposition format
    obs.tracer.to_json("t.json")  # span trace
    obs.profile(result).render()  # roofline-annotated accounting

Every subscription goes through
:meth:`~repro.plan.EventBus.subscribe_observer`, so the documented
guarantee holds by construction: an observer handler that raises is
isolated and counted in the bus's ``dropped_events`` tally (exported as
the ``repro_dropped_events`` metric); it can never change a sketch's
output, exit code, or execution path.  When nothing is attached, the
emitting side pays only the bus's lock-free no-subscriber probe.

Metric catalogue (all names under the ``repro_`` namespace; see
``docs/observability.md`` for the event → metric mapping):

=============================== ========= ==========================================
metric                          type      labels
=============================== ========= ==========================================
``runs_total``                  counter   ``kernel``, ``driver``
``run_seconds``                 histogram ``kernel``, ``driver``
``blocks_total``                counter   ``kernel``, ``phase`` (start/done)
``blocks_in_flight``            gauge     —
``block_seconds``               histogram ``kernel``
``sample_seconds_total``        counter   ``kernel``
``compute_seconds_total``       counter   ``kernel``
``conversion_seconds_total``    counter   ``kernel``
``cpu_seconds_total``           counter   ``kernel``
``wall_seconds_total``          counter   ``kernel``
``samples_generated_total``     counter   ``kernel``
``flops_total``                 counter   ``kernel``
``sample_fraction``             gauge     ``kernel`` (last finished run)
``attained_gflops``             gauge     ``kernel`` (last finished run)
``checkpoints_total``           counter   —
``checkpoint_seconds``          histogram —
``retries_total``               counter   ``kind``
``degraded_total``              counter   ``kind``
``pool_workers``                gauge     — (live supervised worker processes)
``pool_workers_lost_total``     counter   ``reason`` (crashed/hung/shutdown)
``pool_respawns_total``         counter   —
``pool_requeues_total``         counter   ``reason``
``shards_total``                counter   — (stripes started)
``shard_merge_seconds``         histogram — (per-stripe merge latency)
``shard_merge_words_total``     counter   — (output words stripes commit)
``shard_requeues_total``        counter   ``shard`` (requeues while a shard ran)
``shards_resumed_total``        counter   ``repartitioned`` (yes/no)
``cache_hits_total``            counter   ``artifact``, ``source`` (memory/disk)
``cache_misses_total``          counter   ``artifact``, ``reason`` (absent/corrupt)
``cache_evictions_total``       counter   ``artifact``
``serve_requests_admitted_total`` counter —
``serve_requests_shed_total``   counter   ``reason`` (queue_full/breaker_open/draining)
``serve_requests_total``        counter   ``status`` (ok or the error type)
``serve_request_seconds``       histogram —
``serve_queue_wait_seconds``    histogram — (admission to dequeue)
``requests_coalesced_total``    counter   — (requests served via a coalesced batch)
``batch_size``                  histogram — (requests per coalesced batched run)
``serve_deadline_missed_total`` counter   ``phase`` (queue/execute)
``serve_queue_depth``           gauge     — (admission queue depth)
``serve_drains_total``          counter   —
``dropped_events``              gauge     ``event`` (synced at export time)
=============================== ========= ==========================================
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..model.machine import MachineModel
from ..plan.events import (
    BLOCK_DONE,
    BLOCK_START,
    CACHE_EVICTED,
    CACHE_HIT,
    CACHE_MISS,
    CHECKPOINT_WRITTEN,
    DEADLINE_MISSED,
    DEGRADED,
    DONE,
    DRAIN_STARTED,
    PLAN_COMPILED,
    REQUEST_ADMITTED,
    REQUEST_DONE,
    REQUEST_SHED,
    REQUESTS_COALESCED,
    RETRY,
    SHARD_MERGED,
    SHARD_RESUMED,
    SHARD_START,
    TASK_REQUEUED,
    WORKER_LOST,
    WORKER_SPAWNED,
    EventBus,
)
from .metrics import MetricsRegistry
from .profile import ProfileReport, build_profile
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..plan.runtime import SketchResult

__all__ = ["RunObserver"]


class RunObserver:
    """Subscribes metrics + tracing to a bus and aggregates run context.

    Parameters
    ----------
    registry:
        A shared :class:`~repro.obs.MetricsRegistry`; a private one is
        created when omitted.  Families are get-or-create, so many
        observers can feed one registry.
    machine:
        The :class:`~repro.model.MachineModel` profiles are scored
        against (default: the planner's ``LAPTOP`` preset).
    trace:
        Set ``False`` to skip span collection (metrics only).
    """

    def __init__(self, registry: MetricsRegistry | None = None, *,
                 machine: MachineModel | None = None,
                 trace: bool = True) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.machine = machine
        self.tracer = Tracer() if trace else None
        self._lock = threading.Lock()
        self._bus: EventBus | None = None
        self._handlers: list[tuple[str, object]] = []
        # Per-attach aggregates the profile builder consumes.
        self._driver = ""
        self._run_started: float | None = None
        self._checkpoints = 0
        self._checkpoint_seconds = 0.0
        self._checkpoint_max = 0.0
        self._retries = 0
        self._degraded = 0
        # A run executes its stripes one task group at a time, so the
        # most recent shard_start names the shard any requeue belongs to.
        self._current_shard: int | None = None
        self._shard_merge_seconds = 0.0
        self._shards_seen = 0

        r = self.registry
        self._m_runs = r.counter(
            "runs_total", "Finished sketch runs.", ("kernel", "driver"))
        self._m_run_seconds = r.histogram(
            "run_seconds", "Wall time of finished runs.",
            ("kernel", "driver"))
        self._m_blocks = r.counter(
            "blocks_total", "Block task lifecycle events.",
            ("kernel", "phase"))
        self._m_in_flight = r.gauge(
            "blocks_in_flight", "Block tasks currently executing.")
        self._m_block_seconds = r.histogram(
            "block_seconds", "Wall time per block task.", ("kernel",))
        self._m_sample = r.counter(
            "sample_seconds_total", "RNG sample time (Tables III/V).",
            ("kernel",))
        self._m_compute = r.counter(
            "compute_seconds_total", "Arithmetic time.", ("kernel",))
        self._m_conversion = r.counter(
            "conversion_seconds_total",
            "Blocked-CSR conversion time (Tables IV/VI).", ("kernel",))
        self._m_cpu = r.counter(
            "cpu_seconds_total", "Summed per-worker busy seconds.",
            ("kernel",))
        self._m_wall = r.counter(
            "wall_seconds_total", "Wall-clock seconds of runs.", ("kernel",))
        self._m_samples = r.counter(
            "samples_generated_total", "Sketch entries generated on the fly.",
            ("kernel",))
        self._m_flops = r.counter(
            "flops_total", "Useful flops (2 * d * nnz).", ("kernel",))
        self._m_sample_fraction = r.gauge(
            "sample_fraction", "Sample-time share of the last finished run.",
            ("kernel",))
        self._m_gflops = r.gauge(
            "attained_gflops", "GFlop/s of the last finished run.",
            ("kernel",))
        self._m_checkpoints = r.counter(
            "checkpoints_total", "Durable snapshots written.")
        self._m_checkpoint_seconds = r.histogram(
            "checkpoint_seconds", "Snapshot write latency.")
        self._m_retries = r.counter(
            "retries_total", "Task retries by failure kind.", ("kind",))
        self._m_degraded = r.counter(
            "degraded_total", "Degradation decisions by kind.", ("kind",))
        self._m_pool_workers = r.gauge(
            "pool_workers", "Live supervised worker processes.")
        self._m_pool_lost = r.counter(
            "pool_workers_lost_total",
            "Worker processes lost, by reason.", ("reason",))
        self._m_pool_respawns = r.counter(
            "pool_respawns_total", "Warm worker respawns.")
        self._m_pool_requeues = r.counter(
            "pool_requeues_total",
            "Tasks requeued after a worker loss or failed commit.",
            ("reason",))
        self._m_shards = r.counter("shards_total", "Stripes started.")
        self._m_shard_merge_seconds = r.histogram(
            "shard_merge_seconds", "Per-stripe merge latency.")
        self._m_shard_merge_words = r.counter(
            "shard_merge_words_total",
            "Output words committed by stripe merges.")
        self._m_shard_requeues = r.counter(
            "shard_requeues_total",
            "Tasks requeued while a shard was executing, by shard index.",
            ("shard",))
        self._m_shards_resumed = r.counter(
            "shards_resumed_total",
            "Shards seeded from checkpoints, by whether the prior state "
            "was re-partitioned from a different shard layout.",
            ("repartitioned",))
        self._m_cache_hits = r.counter(
            "cache_hits_total",
            "Artifact-cache lookups served from memory or verified disk.",
            ("artifact", "source"))
        self._m_cache_misses = r.counter(
            "cache_misses_total",
            "Artifact-cache lookups that fell through to recompute.",
            ("artifact", "reason"))
        self._m_cache_evictions = r.counter(
            "cache_evictions_total",
            "Artifact-cache entries dropped by the LRU sweep.",
            ("artifact",))
        self._m_requests_admitted = r.counter(
            "serve_requests_admitted_total",
            "Requests that cleared admission control.")
        self._m_requests_shed = r.counter(
            "serve_requests_shed_total",
            "Requests rejected by load shedding, by reason.", ("reason",))
        self._m_requests_served = r.counter(
            "serve_requests_total",
            "Completed requests by terminal status.", ("status",))
        self._m_request_seconds = r.histogram(
            "serve_request_seconds", "Dequeue-to-response latency.")
        self._m_queue_wait_seconds = r.histogram(
            "serve_queue_wait_seconds", "Admission-to-dequeue wait.")
        self._m_requests_coalesced = r.counter(
            "requests_coalesced_total",
            "Requests served inside a coalesced batched run "
            "(leader included).")
        self._m_batch_size = r.histogram(
            "batch_size", "Requests per coalesced batched run.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        self._m_deadline_missed = r.counter(
            "serve_deadline_missed_total",
            "Requests whose deadline expired, by phase.", ("phase",))
        self._m_queue_depth = r.gauge(
            "serve_queue_depth", "Admission queue depth.")
        self._m_drains = r.counter(
            "serve_drains_total", "Graceful drains started.")
        self._m_dropped = r.gauge(
            "dropped_events", "Observer exceptions swallowed by the bus.",
            ("event",))
        self._block_starts: dict[tuple, float] = {}

    # -- bus wiring ----------------------------------------------------------

    def attach(self, bus: EventBus) -> "RunObserver":
        """Subscribe (as isolated observers) to *bus*; returns ``self``."""
        if self._bus is not None:
            raise RuntimeError("observer is already attached to a bus")
        handlers = [
            (PLAN_COMPILED, self._on_plan_compiled),
            (BLOCK_START, self._on_block_start),
            (BLOCK_DONE, self._on_block_done),
            (CHECKPOINT_WRITTEN, self._on_checkpoint),
            (RETRY, self._on_retry),
            (DEGRADED, self._on_degraded),
            (WORKER_SPAWNED, self._on_worker_spawned),
            (WORKER_LOST, self._on_worker_lost),
            (TASK_REQUEUED, self._on_task_requeued),
            (SHARD_START, self._on_shard_start),
            (SHARD_MERGED, self._on_shard_merged),
            (SHARD_RESUMED, self._on_shard_resumed),
            (CACHE_HIT, self._on_cache_hit),
            (CACHE_MISS, self._on_cache_miss),
            (CACHE_EVICTED, self._on_cache_evicted),
            (REQUEST_ADMITTED, self._on_request_admitted),
            (REQUEST_SHED, self._on_request_shed),
            (REQUEST_DONE, self._on_request_done),
            (REQUESTS_COALESCED, self._on_requests_coalesced),
            (DEADLINE_MISSED, self._on_deadline_missed),
            (DRAIN_STARTED, self._on_drain_started),
            (DONE, self._on_done),
        ]
        for name, handler in handlers:
            bus.subscribe_observer(name, handler)
        self._handlers = handlers
        self._bus = bus
        if self.tracer is not None:
            self.tracer.attach(bus)
        return self

    def detach(self) -> None:
        """Unsubscribe every handler registered by :meth:`attach`."""
        if self._bus is None:
            return
        for name, handler in self._handlers:
            self._bus.unsubscribe(name, handler)
        if self.tracer is not None:
            self.tracer.detach()
        self._handlers = []
        self._bus = None

    # -- event handlers ------------------------------------------------------

    def _on_plan_compiled(self, event) -> None:
        with self._lock:
            self._driver = str(event.get("driver", ""))
            self._run_started = time.perf_counter()

    def _on_block_start(self, event) -> None:
        kernel = str(event.get("kernel", ""))
        self._m_blocks.inc(kernel=kernel, phase="start")
        self._m_in_flight.inc()
        with self._lock:
            self._block_starts.setdefault(event.get("task"),
                                          time.perf_counter())

    def _on_block_done(self, event) -> None:
        kernel = str(event.get("kernel", ""))
        self._m_blocks.inc(kernel=kernel, phase="done")
        self._m_in_flight.dec()
        with self._lock:
            started = self._block_starts.pop(event.get("task"), None)
        if started is not None:
            self._m_block_seconds.observe(time.perf_counter() - started,
                                          kernel=kernel)

    def _on_checkpoint(self, event) -> None:
        seconds = float(event.get("seconds", 0.0) or 0.0)
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(seconds)
        with self._lock:
            self._checkpoints += 1
            self._checkpoint_seconds += seconds
            self._checkpoint_max = max(self._checkpoint_max, seconds)

    def _on_retry(self, event) -> None:
        self._m_retries.inc(kind=str(event.get("kind", "unknown")))
        with self._lock:
            self._retries += 1

    def _on_degraded(self, event) -> None:
        self._m_degraded.inc(kind=str(event.get("kind", "unknown")))
        with self._lock:
            self._degraded += 1

    def _on_worker_spawned(self, event) -> None:
        self._m_pool_workers.inc()
        if event.get("respawn"):
            self._m_pool_respawns.inc()

    def _on_worker_lost(self, event) -> None:
        self._m_pool_workers.dec()
        self._m_pool_lost.inc(reason=str(event.get("reason", "unknown")))

    def _on_task_requeued(self, event) -> None:
        self._m_pool_requeues.inc(reason=str(event.get("reason", "unknown")))
        with self._lock:
            shard = self._current_shard
        if shard is not None:
            self._m_shard_requeues.inc(shard=str(shard))

    def _on_shard_start(self, event) -> None:
        self._m_shards.inc()
        with self._lock:
            self._current_shard = event.get("shard")
            self._shards_seen += 1

    def _on_shard_merged(self, event) -> None:
        seconds = float(event.get("seconds", 0.0) or 0.0)
        self._m_shard_merge_seconds.observe(seconds)
        self._m_shard_merge_words.inc(float(event.get("words", 0) or 0))
        with self._lock:
            self._current_shard = None
            self._shard_merge_seconds += seconds

    def _on_shard_resumed(self, event) -> None:
        repartitioned = "yes" if event.get("repartitioned") else "no"
        self._m_shards_resumed.inc(repartitioned=repartitioned)

    def _on_cache_hit(self, event) -> None:
        self._m_cache_hits.inc(
            artifact=str(event.get("artifact", "unknown")),
            source=str(event.get("source", "unknown")))

    def _on_cache_miss(self, event) -> None:
        self._m_cache_misses.inc(
            artifact=str(event.get("artifact", "unknown")),
            reason=str(event.get("reason", "unknown")))

    def _on_cache_evicted(self, event) -> None:
        self._m_cache_evictions.inc(
            artifact=str(event.get("artifact", "unknown")))

    def _on_request_admitted(self, event) -> None:
        self._m_requests_admitted.inc()
        self._m_queue_depth.set(float(event.get("queue_depth", 0)))

    def _on_request_shed(self, event) -> None:
        self._m_requests_shed.inc(reason=str(event.get("reason", "unknown")))

    def _on_request_done(self, event) -> None:
        self._m_requests_served.inc(status=str(event.get("status", "ok")))
        self._m_request_seconds.observe(float(event.get("seconds", 0.0)))
        self._m_queue_wait_seconds.observe(
            float(event.get("queue_wait", 0.0)))
        self._m_queue_depth.set(float(event.get("queue_depth", 0)))

    def _on_requests_coalesced(self, event) -> None:
        batch = float(event.get("batch", 0) or 0)
        self._m_requests_coalesced.inc(batch)
        self._m_batch_size.observe(batch)

    def _on_deadline_missed(self, event) -> None:
        self._m_deadline_missed.inc(phase=str(event.get("phase", "unknown")))

    def _on_drain_started(self, event) -> None:
        self._m_drains.inc()

    def _on_done(self, event) -> None:
        stats = event.get("stats")
        driver = str(event.get("driver", self._driver))
        if stats is None:
            return
        kernel = stats.kernel
        self._m_runs.inc(kernel=kernel, driver=driver)
        with self._lock:
            started = self._run_started
            self._run_started = None
        if started is not None:
            self._m_run_seconds.observe(time.perf_counter() - started,
                                        kernel=kernel, driver=driver)
        self._m_sample.inc(stats.sample_seconds, kernel=kernel)
        self._m_compute.inc(stats.compute_seconds, kernel=kernel)
        self._m_conversion.inc(stats.conversion_seconds, kernel=kernel)
        self._m_cpu.inc(stats.cpu_seconds, kernel=kernel)
        self._m_wall.inc(stats.wall_seconds or stats.total_seconds,
                         kernel=kernel)
        self._m_samples.inc(stats.samples_generated, kernel=kernel)
        self._m_flops.inc(stats.flops, kernel=kernel)
        self._m_sample_fraction.set(stats.sample_fraction, kernel=kernel)
        self._m_gflops.set(stats.gflops_rate, kernel=kernel)
        with self._lock:
            self._block_starts.clear()
            self._current_shard = None
            self._m_in_flight.set(0.0)

    # -- export --------------------------------------------------------------

    def _sync_dropped(self) -> int:
        """Mirror the bus's dropped-event tally into the registry.

        Done at export time because a handler that just crashed cannot
        count its own failure; the bus is the source of truth.
        """
        if self._bus is None:
            return 0
        total = 0
        with self._bus._lock:
            dropped = dict(self._bus.dropped_events)
        for name, count in dropped.items():
            self._m_dropped.set(float(count), event=name)
            total += count
        return total

    def dropped_events(self) -> int:
        """Total observer exceptions the bus has swallowed so far."""
        return self._sync_dropped()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (dropped-event
        counts synced from the bus first)."""
        self._sync_dropped()
        return self.registry.to_prometheus()

    def metrics_dict(self) -> dict:
        """JSON-ready snapshot of the registry."""
        self._sync_dropped()
        return self.registry.to_dict()

    def write_metrics(self, path) -> None:
        """Write :meth:`metrics_text` to *path*."""
        self._sync_dropped()
        self.registry.write_prometheus(path)

    def profile(self, result: "SketchResult",
                machine: MachineModel | None = None) -> ProfileReport:
        """Build the roofline-annotated :class:`ProfileReport` for
        *result*, folding in the event aggregates this observer saw."""
        with self._lock:
            checkpoints = (self._checkpoints, self._checkpoint_seconds,
                           self._checkpoint_max)
            retries, degraded, driver = \
                self._retries, self._degraded, self._driver
        return build_profile(
            result,
            machine=machine if machine is not None else self.machine,
            driver=driver,
            checkpoints=checkpoints,
            retries=retries,
            degraded=degraded,
            dropped_events=self._sync_dropped(),
        )
