"""Reusable scratch buffers for the chunked sampling loop.

The sampling loop (:func:`repro.rng.base.sample_chunked`) pushes ``S``
through counter → bits → sample one cache-sized chunk at a time.  Every
stage of that pipeline needs chunk-sized temporaries; allocating them
afresh per chunk costs more than the arithmetic (a NumPy temporary that
large is handed fresh pages by the allocator, which must be faulted in).
A :class:`Scratch` hands each stage its temporaries by name instead: the
first chunk allocates them, and every later chunk — never larger —
reuses the same memory, so the loop works on a fixed, cache-resident
set of buffers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Scratch"]


class Scratch:
    """Named flat buffers, grown on demand and reused across chunks.

    ``take(name, shape, dtype)`` returns a C-contiguous view of the
    buffer registered under ``name``.  Each name must belong to one
    pipeline stage, so buffers that are alive at the same time never
    alias.  A ``Scratch`` is local to one sampling call: it is not
    thread-safe and is never shared between generators.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        shape = tuple(shape)
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)
