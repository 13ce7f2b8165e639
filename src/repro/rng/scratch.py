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

Each thread keeps one :class:`Scratch` for its whole life
(:func:`thread_scratch`), shared by every sampling call and generator it
runs, so a call after the first starts on buffers that are already
faulted in.  That is safe because the sampling loop never nests and a
thread runs one sampling call at a time.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Scratch", "thread_scratch"]


class Scratch:
    """Named flat buffers, grown on demand and reused across chunks.

    ``take(name, shape, dtype)`` returns a C-contiguous view of the
    buffer registered under ``name``.  Each name must belong to one
    pipeline stage, so buffers that are alive at the same time never
    alias.  There is one ``Scratch`` per thread (:func:`thread_scratch`),
    reused across calls and generators; it is not thread-safe and is
    never shared between threads.
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


_local = threading.local()


def thread_scratch() -> Scratch:
    """The calling thread's :class:`Scratch`, created on first use."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = Scratch()
    return scratch
