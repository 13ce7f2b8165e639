"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` is the stateful half of the fault framework: it
tracks per-``(spec, task)`` hit counts (thread-safely, so parallel workers
observe the planned ``max_hits`` exactly) and records every fault it
actually fired as a :class:`FaultEvent`, letting tests assert that a run's
:class:`~repro.parallel.resilience.RunHealth` report matches the injected
faults one-for-one.

The execution engine talks to the injector through three hooks, all no-ops
when no fault matches:

* :meth:`FaultInjector.on_task_start` — may raise
  :class:`~repro.faults.plan.InjectedFaultError` or sleep (straggler);
* :meth:`FaultInjector.rng_for` — may wrap the task's generator in a
  :class:`CorruptingRNG` (corrupted checkpoint state), member by member
  for a batched generator;
* :meth:`FaultInjector.on_block_computed` — may poison the finished block
  with NaN/Inf.

Since the plan/compile/execute refactor these hooks are not called
directly by the engine: :meth:`FaultInjector.register` subscribes them to
the ``task_start`` / ``rng_request`` / ``block_computed`` events on a
:class:`~repro.plan.EventBus`, and the engine simply emits.  Anything
else that wants to perturb or observe per-attempt execution can
subscribe to the same events without the engine changing.

The snapshot writer (:mod:`repro.persist.snapshot`) adds a fourth hook,
:meth:`FaultInjector.snapshot_faults`, which reports which storage faults
(``torn_write`` / ``bitflip``) to apply to a just-finalized snapshot; the
task coordinate there is ``(snapshot seq, block index)`` rather than a
kernel block offset.

Production code paths pass ``injector=None`` and pay a single ``is None``
check per run — the framework costs ~zero when disabled.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..rng.base import SketchingRNG
from ..rng.batched import BatchedSketchRNG
from .plan import FaultPlan, FaultSpec, InjectedFaultError

__all__ = ["FaultEvent", "FaultInjector", "CorruptingRNG"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired during a run."""

    kind: str
    task: tuple[int, int]
    attempt: int
    context: str      # 'parallel' (pool worker) or 'serial' (driver thread)
    kernel: str


class CorruptingRNG(SketchingRNG):
    """Wraps a :class:`~repro.rng.base.SketchingRNG`, scaling every sample.

    Models a corrupted RNG checkpoint: the generator keeps producing
    finite numbers, but wildly out of distribution — the failure mode the
    *magnitude* guardrail (not the NaN check) exists to catch.

    A proper :class:`~repro.rng.base.SketchingRNG` subclass (mirroring the
    streaming layer's ``_OffsetRNG`` view): every derived entry point —
    :meth:`~repro.rng.base.SketchingRNG.column_block`,
    :meth:`~repro.rng.base.SketchingRNG.materialize`, a batched stack —
    routes through the corrupted :meth:`_panel`, and the identity / counter
    properties forward to the wrapped generator (setters included), so the
    corruption composes with offset views in either nesting order and run
    accounting stays truthful.
    """

    def __init__(self, inner: SketchingRNG, magnitude: float) -> None:
        # Deliberately skip SketchingRNG.__init__: state lives in `inner`.
        self._inner = inner
        self._magnitude = float(magnitude)

    def _bits_block(self, r, d1, js):  # pragma: no cover - not reached
        raise NotImplementedError

    def _panel(self, r, d1, js, out=None):
        out = self._inner._panel(r, d1, js, out)
        out *= self._magnitude
        return out

    @property
    def blocking_independent(self) -> bool:
        return self._inner.blocking_independent

    @property
    def dist(self):
        return self._inner.dist

    @property
    def post_scale(self) -> float:
        return self._inner.post_scale

    @property
    def samples_generated(self) -> int:
        return self._inner.samples_generated

    @samples_generated.setter
    def samples_generated(self, value: int) -> None:
        self._inner.samples_generated = value

    @property
    def family(self) -> str:
        return self._inner.family

    @property
    def seed(self) -> int:
        return self._inner.seed

    @seed.setter
    def seed(self, value: int) -> None:
        self._inner.seed = value


class FaultInjector:
    """Stateful runtime for a :class:`FaultPlan`.

    Thread-safe: hit counters and the event log are lock-protected, so a
    plan's ``max_hits`` budget is honoured exactly even when many workers
    race into the same task's fault (e.g. a straggler's original attempt
    and its re-execution).
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan.empty()
        self._lock = threading.Lock()
        self._hits: dict[tuple[object, tuple[int, int]], int] = {}
        self.events: list[FaultEvent] = []

    # -- internals --------------------------------------------------------

    def _claim(self, spec_id: object, task: tuple[int, int],
               spec: FaultSpec) -> bool:
        """Atomically consume one firing of *spec* at *task* if any remain."""
        key = (spec_id, tuple(task))
        with self._lock:
            count = self._hits.get(key, 0)
            if spec.max_hits is not None and count >= spec.max_hits:
                return False
            self._hits[key] = count + 1
            return True

    def _record(self, spec: FaultSpec, task: tuple[int, int], attempt: int,
                context: str, kernel: str) -> None:
        event = FaultEvent(kind=spec.kind, task=tuple(task), attempt=attempt,
                           context=context, kernel=kernel)
        with self._lock:
            self.events.append(event)

    def _fire(self, kinds: tuple[str, ...], task: tuple[int, int],
              kernel: str, context: str, attempt: int):
        """Yield specs of the given *kinds* that claim a firing now."""
        for spec_id, spec in self.plan.faults_for(task, kernel, context):
            if spec.kind in kinds and self._claim(spec_id, task, spec):
                self._record(spec, task, attempt, context, kernel)
                yield spec

    # -- executor hooks ---------------------------------------------------

    def on_task_start(self, task: tuple[int, int], kernel: str,
                      context: str, attempt: int) -> None:
        """Fire ``stall`` (sleep) then ``raise`` faults for this attempt."""
        for spec in self._fire(("stall",), task, kernel, context, attempt):
            time.sleep(spec.sleep_seconds)
        for spec in self._fire(("raise",), task, kernel, context, attempt):
            raise InjectedFaultError(
                f"injected fault at task (i={task[0]}, j={task[1]}), "
                f"attempt {attempt} [{context}/{kernel}]"
            )

    def rng_for(self, task: tuple[int, int], kernel: str, context: str,
                attempt: int, rng):
        """Return *rng*, or a corrupted copy if an ``rng`` fault fires.

        A :class:`~repro.rng.batched.BatchedSketchRNG` becomes one whose
        members are each a :class:`CorruptingRNG`, so every sketch of the
        batched tile is corrupted.
        """
        for spec in self._fire(("rng",), task, kernel, context, attempt):
            if isinstance(rng, BatchedSketchRNG):
                return BatchedSketchRNG([CorruptingRNG(m, spec.magnitude)
                                         for m in rng.members])
            return CorruptingRNG(rng, spec.magnitude)
        return rng

    def on_block_computed(self, task: tuple[int, int], kernel: str,
                          context: str, attempt: int,
                          block: np.ndarray) -> None:
        """Fire ``nan``/``inf`` corruption on the finished block (in place)."""
        for spec in self._fire(("nan", "inf"), task, kernel, context, attempt):
            if block.size:
                block.flat[block.size // 2] = (np.nan if spec.kind == "nan"
                                               else np.inf)

    # -- event-bus wiring -------------------------------------------------

    def register(self, bus) -> None:
        """Subscribe this injector's hooks to *bus* (idempotent per bus).

        Adapts the three executor hooks to the
        :data:`~repro.plan.events.FAULT_HOOK_EVENTS`:

        * ``task_start`` → :meth:`on_task_start` (may sleep or raise);
        * ``rng_request`` → :meth:`rng_for`, writing the (possibly
          corrupting) generator back into the event's ``rng`` slot;
        * ``block_computed`` → :meth:`on_block_computed` (in-place
          block poisoning).

        The snapshot-storage hook stays out of band: snapshots are
        written by the checkpoint manager, which takes the injector
        directly (see :class:`repro.persist.CheckpointManager`).
        """
        from ..plan.events import BLOCK_COMPUTED, RNG_REQUEST, TASK_START

        with self._lock:
            registered = getattr(self, "_registered_buses", None)
            if registered is None:
                registered = self._registered_buses = set()
            if id(bus) in registered:
                return
            registered.add(id(bus))

        def _on_task_start(event) -> None:
            self.on_task_start(event["task"], event["kernel"],
                               event["context"], event["attempt"])

        def _on_rng_request(event) -> None:
            event["rng"] = self.rng_for(event["task"], event["kernel"],
                                        event["context"], event["attempt"],
                                        event["rng"])

        def _on_block_computed(event) -> None:
            self.on_block_computed(event["task"], event["kernel"],
                                   event["context"], event["attempt"],
                                   event["block"])

        bus.subscribe(TASK_START, _on_task_start)
        bus.subscribe(RNG_REQUEST, _on_rng_request)
        bus.subscribe(BLOCK_COMPUTED, _on_block_computed)

    def process_faults(self, task: tuple[int, int], kernel: str,
                       attempt: int) -> list[dict]:
        """Process-pool faults to ship to the worker assigned *task*.

        Called by the :mod:`repro.parallel.procpool` supervisor at
        *dispatch* time — hits are claimed here, in the supervisor
        process, so a spec's ``max_hits`` budget is honoured exactly
        across requeues and respawned workers (worker processes never
        share this injector's counters).  Each returned dict is a
        self-contained instruction the worker applies mechanically:
        ``{"kind": ..., "sleep_seconds": ...}``.  The context is
        ``"process"``; ``scope="parallel"`` specs do not match it
        (pool workers are processes, not threads).
        """
        from .plan import PROCESS_FAULT_KINDS

        return [{"kind": spec.kind,
                 "sleep_seconds": float(spec.sleep_seconds)}
                for spec in self._fire(PROCESS_FAULT_KINDS, tuple(task),
                                       kernel, "process", attempt)]

    def snapshot_faults(self, seq: int, block_index: int) -> list[str]:
        """Storage-fault kinds to apply to block *block_index* of snapshot *seq*.

        Called by :func:`repro.persist.snapshot.write_snapshot` after a
        snapshot directory is finalized.  The task coordinate is
        ``(seq, block_index)`` — specs targeting ``task=None`` match every
        block of every snapshot; kernel/scope filters use the pseudo
        kernel ``"snapshot"`` and context ``"persist"``.
        """
        return [spec.kind
                for spec in self._fire(("torn_write", "bitflip"),
                                       (int(seq), int(block_index)),
                                       "snapshot", "persist", 1)]

    def cache_faults(self, seq: int) -> list[str]:
        """Storage-fault kinds to apply to the *seq*-th cache entry written.

        Called by :class:`repro.cache.ArtifactCache` after an entry
        directory is finalized — the same out-of-band damage model as
        :meth:`snapshot_faults`, addressed by store order.  The task
        coordinate is ``(seq, 0)``; kernel/scope filters use the pseudo
        kernel ``"cache"`` and context ``"cache"``.
        """
        return [spec.kind
                for spec in self._fire(("torn_write", "bitflip"),
                                       (int(seq), 0), "cache", "cache", 1)]

    # -- inspection -------------------------------------------------------

    @property
    def fault_count(self) -> int:
        """Total faults fired so far."""
        with self._lock:
            return len(self.events)

    def events_by_kind(self) -> dict[str, int]:
        """Histogram of fired fault kinds."""
        out: dict[str, int] = {}
        with self._lock:
            for e in self.events:
                out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def reset(self) -> None:
        """Forget all hits and events (reuse the plan for a fresh run)."""
        with self._lock:
            self._hits.clear()
            self.events.clear()
