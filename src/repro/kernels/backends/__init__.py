"""Kernel backend registry: the seam the hot loops are called through.

The blocking driver (:func:`repro.kernels.sketch_spmm`), the parallel
executor, and the autotuner all consume Algorithms 3 and 4 through a
:class:`KernelBackend` instead of calling the module-level functions
directly.  One implementation ships: ``numpy``, the vectorized kernels
of :mod:`repro.kernels.algo3` / :mod:`repro.kernels.algo4`.  ``"auto"``
(and ``None``) resolve to it.

Bit-identity contract: a backend realizes the same counter→sample
mapping as the vectorized generators.  ``numpy``'s Algorithm 4 keeps the
reference accumulation order, so it equals
:func:`algo4_block_reference` bit for bit
(``tests/kernels/test_algo4.py``); its Algorithm 3 reorders accumulation
(matmul/segment sums) and agrees with :func:`algo3_block_reference` to a
few ulps, with bit-identical samples; ``docs/performance.md`` spells
this out.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ...rng.base import SketchingRNG
    from ...sparse.csc import CSCMatrix
    from ...sparse.csr import CSRMatrix
    from ...utils.timing import Stopwatch

__all__ = [
    "KernelWorkspace",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]

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

    @abc.abstractmethod
    def algo3_block(self, Ahat_sub: np.ndarray, A_sub: "CSCMatrix", r: int,
                    rng: "SketchingRNG", watch: "Stopwatch | None" = None,
                    panel_nnz: int = 8192,
                    workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 3 (kji, CSC) on one block; in-place into ``Ahat_sub``."""

    @abc.abstractmethod
    def algo4_block(self, Ahat_sub: np.ndarray, A_blk: "CSRMatrix", r: int,
                    rng: "SketchingRNG", watch: "Stopwatch | None" = None,
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
                            workspace: KernelWorkspace | None = None) -> None:
        """Algorithm 4 on one block for a whole sketch batch.

        Same contract as :meth:`algo3_block_batched`: the default loops
        the scalar kernel over ``brng.members``; overrides must stay
        bit-identical to that loop.
        """
        for t, member in enumerate(brng.members):
            self.algo4_block(Ahat_stack[t], A_blk, r, member, watch=watch,
                             workspace=workspace)


_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator adding a backend to the registry under ``cls.name``."""
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Names of the registered backends, every one of which runs here."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """The (per-process singleton) backend instance registered as *name*."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered: "
            f"{available_backends()}"
        ) from None
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = cls()
        _INSTANCES[name] = inst
    return inst


def resolve_backend(name: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend request to its instance.

    ``None`` and ``"auto"`` mean ``numpy``; any other name must be
    registered (:func:`get_backend` raises :class:`ConfigError`
    otherwise).
    """
    if isinstance(name, KernelBackend):
        return name
    return get_backend("numpy" if name in (None, "auto") else name)


# Import for registration side effects (must follow the registry
# definitions above).
from . import numpy_backend as _numpy_backend  # noqa: E402,F401
