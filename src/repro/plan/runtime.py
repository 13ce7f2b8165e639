"""The single instrumented runtime: ``Runtime.run(plan, A)``.

One engine behind every public entry point.  ``sketch()`` /
:class:`~repro.core.SketchOperator` and
:class:`~repro.core.StreamingSketch` (per absorbed batch) compile a
:class:`~repro.plan.SketchPlan` and delegate here, as does any caller
holding a plan; the runtime resolves the plan to one of its *drivers*
and brackets the execution with lifecycle events on its
:class:`~repro.plan.EventBus`.  Three drivers are the one block
scheduler, :class:`~repro.parallel.executor.PlanExecutionEngine`:
``engine`` on ``plan.threads`` threads, ``serial`` pinned to its serial
rung (stats name the bare kernel), and ``process`` with the supervised
worker processes of :mod:`repro.parallel.procpool` as its first rung.
All three honour every policy of a plan (resilience, fault hooks,
durable checkpoints through
:class:`~repro.persist.shards.StripeCheckpoints`), so the choice moves
no bit.  ``pregen`` materializes ``S`` for one GEMM (no row blocks, so
no checkpoints).

Lifecycle events: ``plan_compiled`` at entry, ``block_start`` /
``block_done`` around kernel invocations, ``checkpoint_written`` after
each durable snapshot, ``retry`` / ``degraded`` when the resilience
machinery intervenes, ``shard_start`` / ``shard_merged`` /
``shard_resumed`` around each column stripe of a partitioned plan (see
:class:`Stripes`; the driver still runs once), and ``done`` with the
final stats.  Fault
injection subscribes to the ``task_start`` / ``rng_request`` /
``block_computed`` hook events (see
:meth:`repro.faults.FaultInjector.register`) instead of being threaded
through executor internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import ConfigError, ShapeError
from ..kernels.stats import KernelStats
from ..utils.timing import Timer
from .events import (
    DONE,
    PLAN_COMPILED,
    SHARD_MERGED,
    SHARD_RESUMED,
    SHARD_START,
    EventBus,
)
from .spec import SketchPlan, compute_shards

if TYPE_CHECKING:  # pragma: no cover
    from ..cache.policy import CachePolicy
    from ..cache.store import ArtifactCache
    from ..faults.injector import FaultInjector
    from ..rng.base import SketchingRNG
    from ..sparse.blocked_csr import BlockedCSR
    from ..sparse.csc import CSCMatrix

__all__ = ["SketchResult", "Runtime", "Stripes"]


@dataclass
class SketchResult:
    """Outcome of one sketch application."""

    sketch: np.ndarray          # the d x n dense product (scaled if normalize)
    stats: KernelStats
    kernel_used: str
    scale: float                # normalization factor applied (1.0 if none)
    plan: "SketchPlan | None" = None  # the compiled plan, when one was built


RngFactory = Callable[[int], "SketchingRNG"]


class Stripes:
    """A run's column stripes in commit order, and the barrier after each.

    Every driver runs one column-outer task list over the whole input;
    stripe ``k`` is the contiguous run of tasks whose column offset lies
    in ``bounds[k]`` (``(c0, c1)``, from
    :func:`~repro.plan.compute_shards`), closed by :meth:`commit`.  An
    unsharded run is one full-width stripe with no shard identity: its
    barrier emits no event and records no extra.

    Stripes are ``b_n``-aligned and both generator families key entries
    on ``(row-block offset, sparse row index)``, never the column
    offset, so the stripe order moves no bit of the sketch.  What a
    stripe buys is a checkpoint lineage that completes its row blocks
    after its own sweep (:mod:`repro.persist.shards`).  The measured
    cost of each barrier's merge is surfaced as ``merge_seconds`` /
    ``merge_words`` in the run's stats and on each ``shard_merged``
    event.
    """

    def __init__(self, plan: SketchPlan, bus: EventBus,
                 bounds: tuple[tuple[int, int], ...] = ()) -> None:
        self.plan = plan
        self.bus = bus
        self.sharded = bool(bounds)
        self.bounds = tuple(bounds) or ((0, plan.problem.n),)
        self.merge_seconds = 0.0
        self.merge_words = 0
        self.resumed = 0

    def tasks(self, k: int) -> slice:
        """Stripe *k*'s run of the column-outer task list
        (:func:`~repro.kernels.blocking.iter_block_tasks`)."""
        c0, c1 = self.bounds[k]
        p = self.plan
        rows = -(-p.problem.d // p.b_d)
        return slice(c0 // p.b_n * rows, -(-c1 // p.b_n) * rows)

    def start(self, k: int) -> None:
        """Announce that stripe *k*'s task group begins."""
        if self.sharded:
            c0, c1 = self.bounds[k]
            self.bus.emit(SHARD_START, shard=k, shards=len(self.bounds),
                          col_start=c0, col_stop=c1)

    def commit(self, k: int, merge: Callable[[int, int], None],
               resumed: dict | None = None) -> None:
        """The barrier closing stripe *k*: run and time its *merge* (the
        driver's last pass over the stripe's output columns, called as
        ``merge(c0, c1)``), account it, and announce it.  *resumed*
        describes the rows the stripe restored, if any
        (:meth:`repro.persist.shards.StripeCheckpoints.enter`)."""
        c0, c1 = self.bounds[k]
        with Timer() as timer:
            merge(c0, c1)
        if not self.sharded:
            return
        words = self.plan.problem.batch * self.plan.problem.d * (c1 - c0)
        self.merge_seconds += timer.elapsed
        self.merge_words += words
        self.bus.emit(SHARD_MERGED, shard=k, col_start=c0, col_stop=c1,
                      seconds=timer.elapsed, words=words)
        if resumed:
            self.resumed += 1
            self.bus.emit(SHARD_RESUMED, shard=k, **resumed)

    def record(self, stats: KernelStats) -> None:
        """Stamp the run's partition accounting onto its stats."""
        if not self.sharded:
            return
        stats.extra["shards"] = len(self.bounds)
        stats.extra["merge_seconds"] = self.merge_seconds
        stats.extra["merge_words"] = self.merge_words
        if self.plan.persistence.enabled:
            stats.extra["shards_resumed"] = self.resumed


def _engine_driver(runtime: "Runtime", plan: SketchPlan, A, factory,
                   blocked, injector, stripes: Stripes, *,
                   serial: bool = False):
    """The block scheduler; *serial* pins it to its serial rung."""
    from ..parallel.executor import PlanExecutionEngine

    engine = PlanExecutionEngine(plan, A, factory, bus=runtime.bus,
                                 blocked=blocked, injector=injector,
                                 serial=serial)
    return engine.execute(stripes)


def _pregen_driver(runtime: "Runtime", plan: SketchPlan, A, factory,
                   blocked, injector, stripes: Stripes):
    """Materialize ``S`` densely, then one GEMM (baseline kernel)."""
    from ..kernels.pregen import pregen_full

    return pregen_full(A, plan.problem.d, factory(0))


def _process_driver(runtime: "Runtime", plan: SketchPlan, A, factory,
                    blocked, injector, stripes: Stripes):
    """The supervised multi-process worker pool (crash-tolerant)."""
    from ..parallel.procpool import ProcessPoolSupervisor

    supervisor = ProcessPoolSupervisor(plan, A, factory, bus=runtime.bus,
                                       injector=injector, blocked=blocked)
    return supervisor.run(stripes)


#: The drivers: name -> callable(runtime, plan, A, factory, blocked,
#: injector, stripes) -> (Ahat, stats).
_DRIVERS: dict[str, Callable] = {
    "serial": partial(_engine_driver, serial=True),
    "engine": _engine_driver,
    "pregen": _pregen_driver,
    "process": _process_driver,
}


class Runtime:
    """Executes compiled :class:`SketchPlan` objects.

    Parameters
    ----------
    bus:
        The :class:`~repro.plan.EventBus` lifecycle events are emitted
        on; a private bus is created when omitted.  Subscribe before
        calling :meth:`run` — the engine snapshots hook subscriptions at
        entry.
    """

    def __init__(self, bus: EventBus | None = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        # Instance-local driver overrides: consulted before the built-in
        # drivers, so a long-lived caller (the serving daemon's warm
        # process pool) can re-route e.g. "process" plans onto a reused
        # supervisor without mutating global dispatch for everyone.
        self._local_drivers: dict[str, Callable] = {}

    def register_local_driver(self, name: str, fn: Callable) -> None:
        """Override driver *name* for this runtime instance only.

        The callable has the driver signature
        ``fn(runtime, plan, A, factory, blocked, injector, stripes)``
        (see :class:`Stripes`) and shadows
        the built-in driver of the same name; other :class:`Runtime`
        instances are unaffected.
        """
        self._local_drivers[name] = fn

    # -- driver resolution ---------------------------------------------------

    def resolve_driver(self, plan: SketchPlan) -> str:
        """Which driver this plan executes on.

        ``pregen`` plans always use the pregen driver; an explicit
        ``plan.driver`` wins otherwise; ``"auto"`` picks by thread count
        alone: the engine for ``plan.threads > 1``, else the serial
        driver.  Both honour the same policies, so ``"auto"`` changes
        only the stats label and the ``driver`` label on events.
        """
        if plan.kernel == "pregen":
            return "pregen"
        if plan.driver != "auto":
            return plan.driver
        return "engine" if plan.threads > 1 else "serial"

    # -- execution -----------------------------------------------------------

    def run(self, plan: SketchPlan, A: "CSCMatrix", *,
            rng_factory: RngFactory | None = None,
            blocked: "BlockedCSR | None" = None,
            injector: "FaultInjector | None" = None,
            cache: "ArtifactCache | CachePolicy | None" = None
            ) -> SketchResult:
        """Execute *plan* against *A*; returns the sketch and its stats.

        Parameters
        ----------
        rng_factory:
            Override the plan's generator recipe with live generator
            instances (used by the streaming layer's offset views and by
            executor callers with custom factories); ``None`` builds
            generators from ``plan.rng``.
        blocked:
            Pre-built blocked CSR for Algorithm 4 (skips conversion).
        injector:
            A :class:`~repro.faults.FaultInjector` to wire into this
            run: registered on the bus for the task hooks and handed to
            the checkpoint manager for storage faults.  Testing only.
        cache:
            An :class:`~repro.cache.ArtifactCache` (or
            :class:`~repro.cache.CachePolicy`) for the "fixed A, many
            sketches" hot path: the Algorithm 4 blocked-CSR conversion
            of *A* is fetched from (or stored into) the cache keyed by
            the matrix content and ``b_n``.  A policy opens a cache over
            the process memo of its directory (bounded by the policy's
            ``max_bytes``), so repeat runs reuse the verified conversion
            without rereading the disk.  Cached and cold runs produce
            bit-identical sketches; a corrupt cache entry is quarantined
            and recomputed, never trusted.
        """
        if not isinstance(plan, SketchPlan):
            raise ConfigError(
                f"plan must be a SketchPlan, got {type(plan).__name__}"
            )
        if A.shape != (plan.problem.m, plan.problem.n):
            raise ShapeError(
                f"plan was compiled for a {plan.problem.m} x "
                f"{plan.problem.n} input, matrix has shape {A.shape}"
            )
        if injector is not None:
            injector.register(self.bus)
        factory = rng_factory if rng_factory is not None \
            else plan.rng_factory()
        driver_name = self.resolve_driver(plan)
        if cache is not None:
            from ..cache.store import ArtifactCache

            cache = ArtifactCache.ensure(cache, bus=self.bus)
        hits_before = 0 if cache is None else cache.hit_total()
        misses_before = 0 if cache is None else cache.miss_total()
        blocked_source = None
        cached_conversion_seconds = 0.0
        if cache is not None and plan.kernel == "algo4":
            blocked, cached_conversion_seconds, blocked_source = \
                self._blocked_input(plan, A, blocked, cache)
        driver = self._local_drivers.get(driver_name)
        if driver is None:
            try:
                driver = _DRIVERS[driver_name]
            except KeyError:
                raise ConfigError(
                    f"unknown execution driver {driver_name!r}; expected "
                    f"one of: {', '.join(sorted(_DRIVERS))}"
                ) from None
        self.bus.emit(PLAN_COMPILED, plan=plan, driver=driver_name)
        stripes = Stripes(plan, self.bus, () if plan.partition is None
                          else compute_shards(plan.partition,
                                              n=plan.problem.n, b_n=plan.b_n))
        Ahat, stats = driver(self, plan, A, factory, blocked, injector,
                             stripes)
        stripes.record(stats)
        s = plan.scale()
        if s != 1.0:
            Ahat *= s
        if stats.health is not None:
            # Surface silent observer failures in the run report: any
            # exception the bus swallowed during this run is now visible
            # wherever RunHealth is (CLI reports, tests, logs).
            stats.health.dropped_events = self.bus.dropped_total()
        if cache is not None:
            hits = cache.hit_total() - hits_before
            misses = cache.miss_total() - misses_before
            stats.extra["cache_hits"] = hits
            stats.extra["cache_misses"] = misses
            if blocked_source is not None:
                stats.extra["blocked_csr_source"] = blocked_source
                if blocked_source == "converted":
                    # The driver saw a pre-built structure and reported
                    # zero conversion time; attribute the real cost.
                    stats.conversion_seconds += cached_conversion_seconds
            if stats.health is not None:
                stats.health.cache_hits += hits
                stats.health.cache_misses += misses
        self.bus.emit(DONE, plan=plan, stats=stats, driver=driver_name)
        return SketchResult(sketch=Ahat, stats=stats,
                            kernel_used=plan.kernel, scale=s, plan=plan)

    # -- artifact-cache plumbing --------------------------------------------

    def _blocked_input(self, plan: SketchPlan, A: "CSCMatrix",
                       blocked: "BlockedCSR | None",
                       cache: "ArtifactCache"
                       ) -> tuple["BlockedCSR | None", float, str | None]:
        """Resolve the Algorithm 4 blocked-CSR input of *A*.

        Returns ``(blocked, conversion_seconds, source)`` where *source*
        is ``"caller"`` (a pre-built structure), ``"cache"`` (verified
        disk/memory entry under the matrix's key) or ``"converted"``
        (cache miss — converted here, then stored).  On the
        ``"converted"`` path the measured conversion time is returned so
        the run's stats stay truthful even though the driver sees a
        pre-built structure.  One entry serves every shard count.
        """
        if blocked is not None:
            return blocked, 0.0, "caller"
        from ..cache.artifacts import (
            blocked_csr_key,
            fetch_blocked_csr,
            store_blocked_csr,
        )
        from ..sparse.convert import csc_to_blocked_csr

        key = blocked_csr_key(A, plan.b_n)
        cached = fetch_blocked_csr(cache, key, A.shape)
        if cached is not None:
            return cached, 0.0, "cache"
        built, conv = csc_to_blocked_csr(A, plan.b_n)
        store_blocked_csr(cache, key, built, b_n=plan.b_n)
        return built, conv.seconds, "converted"
