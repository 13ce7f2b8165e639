"""Batched sketch generation: the entries of *k* sketches in one pass.

The fixed-sparse-matrix serving pattern (arXiv 2310.15419) re-sketches
the same ``A`` many times with different seeds.  Once conversion and
planning are cached, what dominates a request is regenerating ``S`` —
and the counter-based generators let that cost amortize across a batch:
Philox and Threefry key their output on ``(seed-derived key, row,
column)``, and their round functions are purely elementwise, so stacking
the *keys* along a leading axis produces the bits of all ``k`` sketches
from **one** counter construction and one vectorized round pipeline.

:class:`BatchedSketchRNG` wraps ``k`` same-family, same-distribution
member generators and exposes the batched form of the
:meth:`~repro.rng.base.SketchingRNG.column_block_batch` contract:

``column_block_stack(r, d1, js)`` returns a C-contiguous ``(k, d1,
len(js))`` array whose slice ``[t]`` is **bit-identical** to
``members[t].column_block_batch(r, d1, js)``.  Counter-based families
take the stacked-key fast path; checkpointed families (xoshiro) and the
junk probe fall back to a per-member loop (still amortizing the Python
bookkeeping above them).  Per-member ``samples_generated`` accounting is
maintained exactly as if the members had been called independently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .base import (PhiloxSketchRNG, SketchingRNG, ThreefrySketchRNG,
                   XoshiroSketchRNG, check_block, make_rng, sample_chunked)
from .philox import philox_uint64
from .scratch import Scratch
from .threefry import threefry_uint64
from .xoshiro import checkpoint_bits_stacked

__all__ = ["BatchedSketchRNG", "make_batched_rng"]

class BatchedSketchRNG:
    """``k`` sketching generators evaluated as one stacked pipeline.

    Parameters
    ----------
    members:
        The per-sketch generators.  All must share the same family,
        distribution, and family parameters (rounds/lanes); each keeps
        its own seed.  Their ``samples_generated`` counters are advanced
        exactly as if each had been called independently.
    """

    def __init__(self, members: Sequence[SketchingRNG]) -> None:
        members = tuple(members)
        if not members:
            raise ConfigError("a batched RNG needs at least one member")
        family = members[0].family
        dist = members[0].dist
        for m in members[1:]:
            if m.family != family:
                raise ConfigError(
                    f"batched RNG members must share one family; got "
                    f"{family!r} and {m.family!r}")
            if m.dist.name != dist.name:
                raise ConfigError(
                    f"batched RNG members must share one distribution; got "
                    f"{dist.name!r} and {m.dist.name!r}")
        self.members = members
        self.family = family
        self.dist = dist
        self._stacked = self._stack_keys()

    # -- construction helpers ---------------------------------------------

    def _stack_keys(self):
        """Precompute the stacked-key arrays for counter-based members.

        Returns ``None`` when the family has no stacked fast path (the
        per-member loop is used instead).  Rounds must agree across
        members for the stacked pipeline to be a single call.
        """
        k = len(self.members)
        first = self.members[0]
        for cls, kind, dtype in ((PhiloxSketchRNG, "philox", np.uint32),
                                 (ThreefrySketchRNG, "threefry", np.uint64)):
            if type(first) is cls and all(
                    type(m) is cls and m.rounds == first.rounds
                    for m in self.members):
                keys = tuple(np.array([m._key[w] for m in self.members],
                                      dtype=dtype).reshape(k, 1, 1)
                             for w in (0, 1))
                return (kind, keys, first.rounds)
        if type(first) is XoshiroSketchRNG and all(
                type(m) is XoshiroSketchRNG and m.n_lanes == first.n_lanes
                for m in self.members):
            seeds = tuple(m.seed for m in self.members)
            return ("xoshiro", seeds, first.n_lanes)
        return None

    # -- properties ---------------------------------------------------------

    @property
    def batch(self) -> int:
        """Number of sketches generated per call."""
        return len(self.members)

    @property
    def blocking_independent(self) -> bool:
        return all(m.blocking_independent for m in self.members)

    @property
    def post_scale(self) -> float:
        return self.dist.post_scale

    @property
    def samples_generated(self) -> int:
        """Total entries generated across all members."""
        return sum(m.samples_generated for m in self.members)

    def reset_counters(self) -> None:
        for m in self.members:
            m.reset_counters()

    # -- core access ---------------------------------------------------------

    def _bits_chunk(self, r: int, d1: int, js_chunk: np.ndarray,
                    scratch: Scratch | None = None) -> np.ndarray:
        """Raw ``uint64`` bits of shape ``(k, d1, len(js_chunk))``."""
        kind, key, param = self._stacked
        if kind == "xoshiro":
            return checkpoint_bits_stacked(key, r, js_chunk, d1, param,
                                           scratch)
        rows = np.arange(r, r + d1, dtype=np.uint64)[:, None]
        cols = js_chunk.astype(np.uint64)[None, :]
        # The (k, 1, 1) keys broadcast the batch axis in, even for k = 1.
        bits_of = philox_uint64 if kind == "philox" else threefry_uint64
        return bits_of(rows, cols, key, param, scratch)

    def column_block_stack(self, r: int, d1: int, js: np.ndarray) -> np.ndarray:
        """Entries ``S_t[r:r+d1, js]`` for every member ``t`` as ``(k, d1, g)``.

        Slice ``[t]`` is bit-identical to
        ``members[t].column_block_batch(r, d1, js)`` — the stacked
        pipeline is elementwise over the batch axis, the distribution
        transform is elementwise too, and the cache-sized column
        chunking (:func:`~repro.rng.base.sample_chunked`, shared with the
        single-sketch path) only changes where call boundaries fall,
        never which coordinate produces which bits.
        """
        r, d1, js = check_block(r, d1, js)
        if self._stacked is None:
            # Fallback: per-member loop (mixed parameters, or families
            # without a stacked pipeline such as the junk probe).
            return np.stack([m.column_block_batch(r, d1, js)
                             for m in self.members])
        k = len(self.members)
        kind, _, param = self._stacked
        out = sample_chunked(
            lambda cols, scratch: self._bits_chunk(r, d1, cols, scratch),
            self.dist, (k, d1), js, k * param if kind == "xoshiro" else 0)
        for m in self.members:
            m.samples_generated += d1 * int(js.size)
        return out


def make_batched_rng(kind: str, seeds: Sequence[int],
                     dist: str = "uniform", **kwargs) -> BatchedSketchRNG:
    """Build a :class:`BatchedSketchRNG` with one member per seed."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("make_batched_rng needs at least one seed")
    return BatchedSketchRNG([make_rng(kind, s, dist, **kwargs)
                             for s in seeds])
