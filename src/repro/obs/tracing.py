"""Span-based tracing of a sketching run, fed by lifecycle events.

A :class:`Tracer` subscribed to a :class:`~repro.plan.EventBus` (always
as an *observer* — it can never abort a run) turns the event stream into
a tree of :class:`Span` records:

* ``plan_compiled`` opens the root ``run`` span; ``done`` closes it;
* ``block_start``/``block_done`` bracket one ``block`` span per task
  (re-emitted starts from straggler re-execution reuse the open span);
  its attrs carry the tile's ``sample_seconds``, ``compute_seconds`` and
  ``samples`` (the sketch entries generated for it);
* ``checkpoint_written`` records a ``checkpoint`` span whose duration is
  the measured write latency carried in the event payload;
* ``worker_spawned``/``worker_lost`` bracket one ``worker`` span per
  supervised process-pool worker (attrs carry the pid, whether the spawn
  was a warm respawn, and the loss reason);
* ``shard_start``/``shard_merged`` bracket one ``shard`` span per column
  shard of a partitioned run (attrs carry the column range and — once
  merged — the stripe-copy seconds and words);
* ``retry``, ``degraded``, ``task_requeued``, and ``shard_resumed``
  become zero-duration *annotations* attached to the trace.

Timestamps are ``time.perf_counter`` values rebased to the first event,
so a trace is self-contained and diffable; :meth:`Tracer.to_chrome`
converts to the Chrome ``chrome://tracing`` / Perfetto JSON array format
for visual inspection.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..plan.events import (
    BLOCK_DONE,
    BLOCK_START,
    CHECKPOINT_WRITTEN,
    DEGRADED,
    DONE,
    PLAN_COMPILED,
    RETRY,
    SHARD_MERGED,
    SHARD_RESUMED,
    SHARD_START,
    TASK_REQUEUED,
    WORKER_LOST,
    WORKER_SPAWNED,
    EventBus,
)

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed region of a run (or a zero-duration annotation)."""

    name: str                     # "run" / "block" / "checkpoint" / ...
    start: float                  # seconds since the trace began
    end: float | None = None      # None while still open
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Span duration (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "seconds": self.seconds, "attrs": dict(self.attrs)}


class Tracer:
    """Collects :class:`Span` records from bus lifecycle events.

    Thread-safe: engine workers emit ``block_start``/``block_done``
    concurrently.  All subscriptions are observers, so a tracer bug is
    counted in ``bus.dropped_events`` instead of failing the sketch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t0: float | None = None
        self.spans: list[Span] = []
        self.annotations: list[Span] = []
        self._open_blocks: dict[tuple, Span] = {}
        self._open_workers: dict[int, Span] = {}
        self._open_shards: dict[int, Span] = {}
        self._run: Span | None = None
        self._handlers: list[tuple[str, object]] = []
        self._bus: EventBus | None = None

    # -- time base -----------------------------------------------------------

    def _now(self) -> float:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    # -- bus wiring ----------------------------------------------------------

    def attach(self, bus: EventBus) -> "Tracer":
        """Subscribe (as observers) to *bus*'s lifecycle events."""
        if self._bus is not None:
            raise RuntimeError("tracer is already attached to a bus")
        handlers = [
            (PLAN_COMPILED, self._on_plan_compiled),
            (BLOCK_START, self._on_block_start),
            (BLOCK_DONE, self._on_block_done),
            (CHECKPOINT_WRITTEN, self._on_checkpoint),
            (RETRY, self._on_annotation),
            (DEGRADED, self._on_annotation),
            (WORKER_SPAWNED, self._on_worker_spawned),
            (WORKER_LOST, self._on_worker_lost),
            (TASK_REQUEUED, self._on_annotation),
            (SHARD_START, self._on_shard_start),
            (SHARD_MERGED, self._on_shard_merged),
            (SHARD_RESUMED, self._on_annotation),
            (DONE, self._on_done),
        ]
        for name, handler in handlers:
            bus.subscribe_observer(name, handler)
        self._handlers = handlers
        self._bus = bus
        return self

    def detach(self) -> None:
        """Unsubscribe from the bus attached via :meth:`attach`."""
        if self._bus is None:
            return
        for name, handler in self._handlers:
            self._bus.unsubscribe(name, handler)
        self._bus = None
        self._handlers = []

    # -- event handlers ------------------------------------------------------

    def _on_plan_compiled(self, event) -> None:
        with self._lock:
            plan = event.get("plan")
            attrs = {"driver": event.get("driver")}
            if plan is not None:
                attrs.update(kernel=plan.kernel, d=plan.problem.d,
                             n=plan.problem.n, threads=plan.threads)
            self._run = Span("run", self._now(), attrs=attrs)
            self.spans.append(self._run)

    def _on_block_start(self, event) -> None:
        with self._lock:
            key = event.get("task")
            span = Span("block", self._now(),
                        attrs={"task": list(key) if key else None,
                               "kernel": event.get("kernel")})
            # A straggler re-execution re-emits block_start for a task
            # whose first start never committed; keep the earliest start.
            if key not in self._open_blocks:
                self._open_blocks[key] = span
                self.spans.append(span)

    def _on_block_done(self, event) -> None:
        with self._lock:
            now = self._now()
            key = event.get("task")
            span = self._open_blocks.pop(key, None)
            if span is None:  # done without a tracked start: record anyway
                span = Span("block", now,
                            attrs={"task": list(key) if key else None,
                                   "kernel": event.get("kernel")})
                self.spans.append(span)
            span.end = now
            for name in ("sample_seconds", "compute_seconds", "samples"):
                if name in event.payload:
                    span.attrs[name] = event.payload[name]

    def _on_checkpoint(self, event) -> None:
        with self._lock:
            now = self._now()
            seconds = float(event.get("seconds", 0.0) or 0.0)
            self.spans.append(Span(
                "checkpoint", now - seconds, end=now,
                attrs={"path": str(event.get("path")),
                       "rows": list(event.get("rows") or ()),
                       "snapshot": event.get("snapshots_written")}))

    def _on_worker_spawned(self, event) -> None:
        with self._lock:
            wid = event.get("worker")
            span = Span("worker", self._now(),
                        attrs={"worker": wid, "pid": event.get("pid"),
                               "respawn": bool(event.get("respawn"))})
            # A respawn reuses the worker id; the previous span was
            # closed by the worker_lost that triggered the respawn.
            self._open_workers[wid] = span
            self.spans.append(span)

    def _on_worker_lost(self, event) -> None:
        with self._lock:
            span = self._open_workers.pop(event.get("worker"), None)
            if span is not None:
                span.end = self._now()
                span.attrs["reason"] = event.get("reason")

    def _on_shard_start(self, event) -> None:
        with self._lock:
            idx = event.get("shard")
            span = Span("shard", self._now(),
                        attrs={"shard": idx,
                               "shards": event.get("shards"),
                               "col_start": event.get("col_start"),
                               "col_stop": event.get("col_stop")})
            self._open_shards[idx] = span
            self.spans.append(span)

    def _on_shard_merged(self, event) -> None:
        with self._lock:
            now = self._now()
            span = self._open_shards.pop(event.get("shard"), None)
            if span is None:  # merged without a tracked start
                span = Span("shard", now,
                            attrs={"shard": event.get("shard"),
                                   "col_start": event.get("col_start"),
                                   "col_stop": event.get("col_stop")})
                self.spans.append(span)
            span.end = now
            span.attrs["merge_seconds"] = float(event.get("seconds", 0.0)
                                                or 0.0)
            span.attrs["merge_words"] = event.get("words")

    def _on_annotation(self, event) -> None:
        with self._lock:
            now = self._now()
            self.annotations.append(Span(
                event.name, now, end=now,
                attrs={k: v for k, v in event.payload.items()
                       if isinstance(v, (str, int, float, bool, tuple))}))

    def _on_done(self, event) -> None:
        with self._lock:
            now = self._now()
            if self._run is not None and self._run.end is None:
                self._run.end = now
            # Anything still open (e.g. a crashed block) closes unfinished.
            for span in self._open_blocks.values():
                span.attrs["unfinished"] = True
            self._open_blocks.clear()
            for span in self._open_workers.values():
                span.attrs["unfinished"] = True
            self._open_workers.clear()
            for span in self._open_shards.values():
                span.attrs["unfinished"] = True
            self._open_shards.clear()

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "spans": [s.to_dict() for s in self.spans],
                "annotations": [a.to_dict() for a in self.annotations],
            }

    def to_json(self, path=None, *, indent: int = 2) -> str:
        """Serialize the trace; optionally also write it to *path*."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def to_chrome(self) -> list[dict]:
        """Chrome/Perfetto trace-event array (``X`` complete events)."""
        events = []
        with self._lock:
            for span in self.spans:
                events.append({
                    "name": span.name, "ph": "X", "pid": 0, "tid": 0,
                    "ts": span.start * 1e6, "dur": span.seconds * 1e6,
                    "args": dict(span.attrs),
                })
            for ann in self.annotations:
                events.append({
                    "name": ann.name, "ph": "i", "pid": 0, "tid": 0,
                    "ts": ann.start * 1e6, "s": "g",
                    "args": dict(ann.attrs),
                })
        return events
