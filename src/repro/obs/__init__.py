"""Observability layer: metrics, traces and roofline profiles.

Everything in this package feeds off the :class:`~repro.plan.EventBus`
lifecycle events through *observer* subscriptions
(:meth:`~repro.plan.EventBus.subscribe_observer`), which gives two hard
guarantees to the sketching hot path:

1. **Observers cannot fail a sketch.**  An exception raised by any
   handler registered here is swallowed by the bus and counted in
   ``bus.dropped_events`` (exported as the ``repro_dropped_events``
   metric); the run's output and exit code are unchanged.
2. **Observers cannot slow-path a sketch.**  Only lifecycle events are
   subscribed — never the fault-injection hook events whose presence
   makes the engine run its resilient per-task policy — and an idle bus
   keeps its lock-free no-subscriber fast path.

Typical use::

    from repro.obs import RunObserver

    obs = RunObserver().attach(runtime.bus)
    result = runtime.run(plan, A)
    obs.write_metrics("metrics.prom")
    print(obs.profile(result).render())

See ``docs/observability.md`` for the metric catalogue and the
event-to-metric mapping.
"""

from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, \
    MetricsRegistry
from .observer import RunObserver
from .profile import PROFILE_FORMAT_VERSION, ProfileReport, build_profile
from .schema import SchemaError, validate_profile, validate_prometheus_text
from .tracing import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Tracer",
    "Span",
    "ProfileReport",
    "build_profile",
    "PROFILE_FORMAT_VERSION",
    "RunObserver",
    "SchemaError",
    "validate_profile",
    "validate_prometheus_text",
]
