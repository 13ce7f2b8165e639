"""Configuration for the sketch-serving daemon.

One frozen dataclass gathers every service-level knob — admission
capacity, deadlines, breaker thresholds, drain budget, warm-pool and
matrix LRU sizes — so the CLI, the embedded :class:`SketchService`, and
tests all construct the daemon the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..utils.validation import check_positive_int


@dataclass(frozen=True)
class ServeConfig:
    """Service policy for ``repro serve``.

    Attributes
    ----------
    host, port:
        Listening address.  The daemon binds localhost by default;
        ``port=0`` asks the OS for an ephemeral port (tests, smoke
        runs) — the bound port is written to *ready_file*.
    queue_capacity:
        Bound of the admission queue.  A request arriving when the
        queue is full is shed with a 429-style
        :class:`~repro.errors.RequestShedError` carrying a
        ``retry_after`` derived from queue depth × recent service time.
    executors:
        Worker threads consuming the admission queue.  Each executes
        one request at a time on the shared warm pools; the default of
        1 serializes compute (the pools already parallelize inside a
        request).
    default_deadline:
        Deadline in seconds applied to requests that do not carry
        their own ``deadline_seconds`` (``None`` = no implicit
        deadline).
    drain_timeout:
        Graceful-drain budget on SIGTERM: in-flight requests get this
        long to finish before the daemon gives up and exits nonzero.
    breaker_threshold, breaker_recovery:
        Circuit breaker: consecutive pool-degraded (or failed)
        requests before the breaker opens, and how long it stays open
        before a half-open probe is allowed through.
    max_batch:
        Coalescing bound: when greater than 1, an executor thread that
        dequeues a request also drains up to ``max_batch - 1`` queued
        requests *compatible* with it — same matrix, same planning
        config apart from the seed, no chaos, no frozen plan — and
        executes them as one batched run (one pass over A computes
        every sketch; coordinate-keyed RNG makes each slice
        bit-identical to a solo run).  1 disables coalescing.
    warm_pools:
        LRU bound on live :class:`ProcessPoolSupervisor` instances
        (one per (matrix, kernel, partition) binding).
    max_matrices:
        LRU bound on input matrices held in memory.
    checkpoint_dir:
        When set, the drain path writes its final state file here and
        engine-driver requests may checkpoint into per-request
        subdirectories.
    cache_dir:
        Artifact-cache directory (blocked-CSR conversions, kernel
        choices) for the fixed-A hot path; ``None`` disables the
        cache.
    allow_chaos:
        Gate for the fault-injection hooks (``chaos`` request field,
        ``slow_client`` / ``kill_pool_mid_request``).  Off by default:
        a production daemon must not accept requests that kill its own
        workers.
    ready_file:
        Path the daemon writes ``host:port\\n`` to once it is
        listening (ephemeral-port discovery for scripts and CI).
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_capacity: int = 16
    executors: int = 1
    default_deadline: float | None = 30.0
    drain_timeout: float = 10.0
    breaker_threshold: int = 3
    breaker_recovery: float = 5.0
    max_batch: int = 1
    warm_pools: int = 2
    max_matrices: int = 4
    checkpoint_dir: str | None = None
    cache_dir: str | None = None
    allow_chaos: bool = False
    ready_file: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.queue_capacity, "queue_capacity")
        check_positive_int(self.executors, "executors")
        check_positive_int(self.max_batch, "max_batch")
        check_positive_int(self.warm_pools, "warm_pools")
        check_positive_int(self.max_matrices, "max_matrices")
        check_positive_int(self.breaker_threshold, "breaker_threshold")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or self.port < 0 or self.port > 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port!r}")
        if self.default_deadline is not None \
                and not self.default_deadline > 0:
            raise ConfigError(
                f"default_deadline must be positive or None, got "
                f"{self.default_deadline!r}")
        if not self.drain_timeout > 0:
            raise ConfigError(
                f"drain_timeout must be positive, got {self.drain_timeout!r}")
        if not self.breaker_recovery > 0:
            raise ConfigError(
                f"breaker_recovery must be positive, got "
                f"{self.breaker_recovery!r}")
