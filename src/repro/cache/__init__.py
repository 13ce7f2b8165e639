"""Content-addressed plan & artifact cache for the fixed-``A`` hot path.

The serving pattern the related work targets — the *same* sparse ``A``
re-sketched over and over — pays the planner's heuristics, the
autotuner's measured trials, and the blocked-CSR conversion on every
call.  This package amortizes all of that per-``A`` setup:

* :class:`CachePolicy` — the knobs (directory, size budget, readonly),
  a sibling of :class:`~repro.plan.PersistencePolicy`;
* :class:`ArtifactCache` — the in-memory + on-disk store (atomic
  writes, per-file checksums, LRU eviction, ``cache_hit`` /
  ``cache_miss`` / ``cache_evicted`` bus events);
* :mod:`repro.cache.keys` — canonical content-addressed key recipes;
* :mod:`repro.cache.artifacts` — the typed artifact classes (autotune
  results, kernel choices, the blocked-CSR conversion).

Correctness contract: a cache hit must be **bit-identical** to a cold
run, and a damaged entry downgrades to a loud miss plus recompute —
never a wrong answer.
"""

from .keys import (
    KEY_VERSION,
    cache_key,
    machine_fingerprint,
    matrix_fingerprint,
    pattern_fingerprint,
)
from .policy import CACHE_DIR_ENV_VAR, DEFAULT_MAX_BYTES, CachePolicy
from .store import ArtifactCache, CacheEntry

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "DEFAULT_MAX_BYTES",
    "KEY_VERSION",
    "CachePolicy",
    "ArtifactCache",
    "CacheEntry",
    "cache_key",
    "pattern_fingerprint",
    "matrix_fingerprint",
    "machine_fingerprint",
]
