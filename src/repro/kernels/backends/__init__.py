"""Kernel backend registry: interchangeable implementations of the hot loops.

The blocking driver (:func:`repro.kernels.sketch_spmm`), the parallel
executor, and the autotuner all consume Algorithms 3 and 4 through a
:class:`KernelBackend` instead of calling the module-level functions
directly.  Two implementations ship:

* ``numpy`` — the vectorized kernels of :mod:`repro.kernels.algo3` /
  :mod:`repro.kernels.algo4` (always available; the reference production
  path);
* ``numba`` — fused ``@njit(cache=True, nogil=True)`` loops that generate
  each sketch entry register-to-register inside the SpMM inner loop
  (:mod:`repro.kernels.backends.numba_backend`); available only when
  Numba is installed, otherwise requests fall back to ``numpy`` with a
  single informational log line.

Selection precedence: an explicit ``backend=`` argument (any entry point)
beats the :data:`REPRO_BACKEND <BACKEND_ENV_VAR>` environment variable,
which beats the automatic choice (``numba`` when importable, ``numpy``
otherwise).

Bit-identity contract: every backend produces the exact same
counter→sample mapping (see :mod:`repro.rng.jit`), and the ``numba``
backend reproduces the *reference* kernels' accumulation order exactly,
so its output is bit-identical to :func:`algo3_block_reference` /
:func:`algo4_block_reference`.  So is ``numpy``'s Algorithm 4, which keeps
the reference order (``tests/kernels/test_algo4.py``); its Algorithm 3
reorders accumulation (matmul/segment sums) and agrees to a few ulps,
with bit-identical samples; ``docs/performance.md`` spells this out.
"""

from __future__ import annotations

import abc
import logging
import os
from typing import TYPE_CHECKING

import numpy as np

from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ...rng.base import SketchingRNG
    from ...sparse.csc import CSCMatrix
    from ...sparse.csr import CSRMatrix
    from ...utils.timing import Stopwatch

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelWorkspace",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "registered_backends",
    "numba_available",
    "get_backend",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_LOG = logging.getLogger("repro.kernels.backends")


class KernelWorkspace:
    """Named, lazily grown scratch buffers reused across kernel calls.

    The blocked drivers invoke the kernels once per (row-block,
    column-block) pair; without reuse every call churns the allocator for
    the same panel-sized temporaries.  A workspace hands out buffers by
    name, growing each underlying allocation monotonically and returning
    exact-shape views, so steady-state block iteration performs zero
    scratch allocations.  Not thread-safe by design: the executor keeps
    one workspace per worker thread.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self._shapes: dict[tuple[str, np.dtype], tuple[int, ...]] = {}

    def get(self, name: str, shape: tuple[int, ...],
            dtype=np.float64) -> np.ndarray:
        """A ``shape``-shaped view of the buffer registered under *name*.

        Contents are uninitialized (like ``np.empty``); callers must fully
        overwrite the view before reading it.  When the requested shape
        differs from the previous request under the same name, the view
        is *re-derived* from the backing allocation — never a stale-shaped
        alias — so interleaving runs with different ``r``/``b_d``/``b_n``
        (or batch sizes) through one long-lived workspace is safe as long
        as callers honor the overwrite contract.
        """
        dt = np.dtype(dtype)
        size = 1
        for extent in shape:
            extent = int(extent)
            if extent < 0:
                raise ConfigError(
                    f"workspace buffer {name!r} requested with negative "
                    f"extent in shape {tuple(shape)}")
            size *= extent
        key = (name, dt)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(max(size, 1), dtype=dt)
            self._buffers[key] = buf
        self._shapes[key] = tuple(int(e) for e in shape)
        return buf[:size].reshape(shape)

    def last_shape(self, name: str, dtype=np.float64) -> tuple[int, ...] | None:
        """The shape most recently requested under *name* (None if never)."""
        return self._shapes.get((name, np.dtype(dtype)))

    def reset(self) -> None:
        """Drop every buffer (and its shape history).

        Long-lived workspaces — one per process-pool worker, surviving
        plan reloads — call this when the plan geometry changes so the
        next run reallocates exact-fit scratch instead of slicing
        oversized stale allocations from a previous geometry.
        """
        self._buffers.clear()
        self._shapes.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all named buffers."""
        return sum(b.nbytes for b in self._buffers.values())


class KernelBackend(abc.ABC):
    """One implementation of the Algorithm 3 / Algorithm 4 block kernels.

    Subclasses are registered by name via :func:`register_backend`; the
    signatures mirror the module-level kernels plus a *workspace* for
    scratch reuse.  All implementations must realize the same
    counter→sample mapping (bit-identical generated entries) for the
    shared RNG types.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Cumulative seconds this instance spent JIT-compiling (0.0 for
        #: interpreted backends); reported via ``KernelStats.extra`` so
        #: benchmarks can separate compile time from steady state.
        self.jit_compile_seconds: float = 0.0

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @abc.abstractmethod
    def algo3_block(self, Ahat_sub: np.ndarray, A_sub: "CSCMatrix", r: int,
                    rng: "SketchingRNG", watch: "Stopwatch | None" = None,
                    panel_nnz: int = 8192,
                    workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 3 (kji, CSC) on one block; in-place into ``Ahat_sub``."""

    @abc.abstractmethod
    def algo4_block(self, Ahat_sub: np.ndarray, A_blk: "CSRMatrix", r: int,
                    rng: "SketchingRNG", watch: "Stopwatch | None" = None,
                    row_chunk: int = 64,
                    workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 4 (jki, blocked CSR) on one block; in-place update."""

    def algo3_block_batched(self, Ahat_stack, A_sub: "CSCMatrix", r: int,
                            brng, watch: "Stopwatch | None" = None,
                            panel_nnz: int = 8192,
                            workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 3 on one block for a whole sketch batch.

        ``Ahat_stack[t]`` is sketch *t*'s ``(d1, n1)`` output block and
        *brng* a :class:`~repro.rng.batched.BatchedSketchRNG`.  The
        default runs the scalar kernel once per member — always correct,
        no amortization; backends override with fused implementations
        that share the RNG pipeline and block bookkeeping across the
        batch.  Every implementation must be bit-identical to the
        member-by-member loop.
        """
        for t, member in enumerate(brng.members):
            self.algo3_block(Ahat_stack[t], A_sub, r, member, watch=watch,
                             panel_nnz=panel_nnz, workspace=workspace)

    def algo4_block_batched(self, Ahat_stack, A_blk: "CSRMatrix", r: int,
                            brng, watch: "Stopwatch | None" = None,
                            row_chunk: int = 64,
                            workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 4 on one block for a whole sketch batch.

        Same contract as :meth:`algo3_block_batched`: the default loops
        the scalar kernel over ``brng.members``; overrides must stay
        bit-identical to that loop.
        """
        for t, member in enumerate(brng.members):
            self.algo4_block(Ahat_stack[t], A_blk, r, member, watch=watch,
                             row_chunk=row_chunk, workspace=workspace)

    def warmup(self, rng: "SketchingRNG",
               dtype=np.float64) -> float:
        """Pre-compile/prime the kernels for *rng*'s family and *dtype*.

        Returns the seconds spent (0.0 when nothing needed compiling).
        Drivers call this *outside* their timed region so measured kernel
        seconds reflect steady state, and surface the returned value as
        ``jit_compile_seconds``.
        """
        return 0.0


_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_FALLBACK_LOGGED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator adding a backend to the registry under ``cls.name``."""
    _REGISTRY[cls.name] = cls
    return cls


def registered_backends() -> list[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of the backends that can run in this environment."""
    return sorted(name for name, cls in _REGISTRY.items()
                  if cls.is_available())


def numba_available() -> bool:
    """Whether the JIT backend's dependency is importable."""
    from ...rng.jit import NUMBA_AVAILABLE

    return NUMBA_AVAILABLE


def get_backend(name: str) -> KernelBackend:
    """The (per-process singleton) backend instance registered as *name*."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered: "
            f"{registered_backends()}"
        ) from None
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = cls()
        _INSTANCES[name] = inst
    return inst


def resolve_backend(name: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend request to a runnable instance.

    ``None``/``"auto"`` consults :data:`BACKEND_ENV_VAR`, then picks
    ``numba`` when available and ``numpy`` otherwise.  An explicit request
    for a registered-but-unavailable backend degrades to ``numpy`` and
    logs one informational line per process (never a warning), so
    numba-less environments run every entry point unchanged.
    """
    if isinstance(name, KernelBackend):
        return name
    requested = name
    if requested is None or requested == "auto":
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        requested = env if env else "auto"
    if requested == "auto":
        for candidate in ("numba", "numpy"):
            cls = _REGISTRY.get(candidate)
            if cls is not None and cls.is_available():
                return get_backend(candidate)
        raise ConfigError("no kernel backend is available")  # pragma: no cover
    if requested not in _REGISTRY:
        raise ConfigError(
            f"unknown kernel backend {requested!r}; registered: "
            f"{registered_backends()}"
        )
    if not _REGISTRY[requested].is_available():
        if requested not in _FALLBACK_LOGGED:
            _FALLBACK_LOGGED.add(requested)
            _LOG.info(
                "kernel backend %r is not available in this environment "
                "(numba not importable); falling back to the numpy backend",
                requested,
            )
        return get_backend("numpy")
    return get_backend(requested)


# Import for registration side effects (must follow the registry
# definitions above).
from . import numpy_backend as _numpy_backend  # noqa: E402,F401
from . import numba_backend as _numba_backend  # noqa: E402,F401
