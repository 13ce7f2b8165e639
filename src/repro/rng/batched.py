"""Batched sketch generation: the entries of *k* sketches in one panel.

The fixed-sparse-matrix serving pattern (arXiv 2310.15419) re-sketches
the same ``A`` many times with different seeds.  Once conversion and
planning are cached, what dominates a request is regenerating ``S``.
Sampling does not amortize across seeds — every entry of every sketch
costs its own rounds — but the kernels' apply does: one traversal of
``A`` serves a ``(k, d1, n1)`` stack.

:class:`BatchedSketchRNG` wraps ``k`` same-family, same-distribution
member generators and exposes the batched form of the
:meth:`~repro.rng.base.SketchingRNG.column_block_batch` contract:

``column_block_stack(r, d1, js)`` returns a ``(k, d1, len(js))`` array
whose slice ``[t]`` is **bit-identical** to
``members[t].column_block_batch(r, d1, js)``.  It is a view of one
C-ordered ``(len(js), k, d1)`` panel, the layout the kernels' apply
consumes, and each member writes its own slice of that panel through
the single-sketch sampling loop, so its bits are the single path's by
construction.  Per-member ``samples_generated`` accounting is exactly
as if the members had been called independently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .base import SketchingRNG, check_block, make_rng

__all__ = ["BatchedSketchRNG", "make_batched_rng"]


class BatchedSketchRNG:
    """``k`` sketching generators sampled into one stacked panel.

    Parameters
    ----------
    members:
        The per-sketch generators.  All must share one family and one
        distribution; each keeps its own seed and parameters.  Their
        ``samples_generated`` counters are advanced exactly as if each had
        been called independently.
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

    def column_block_stack(self, r: int, d1: int, js: np.ndarray) -> np.ndarray:
        """Entries ``S_t[r:r+d1, js]`` for every member ``t`` as ``(k, d1, g)``.

        Slice ``[t]`` is bit-identical to
        ``members[t].column_block_batch(r, d1, js)``: member ``t`` samples
        its block straight into row slice ``[:, t]`` of one C-ordered
        ``(g, k, d1)`` panel, through the same loop.  The result is that
        panel's ``moveaxis`` view.
        """
        r, d1, js = check_block(r, d1, js)
        panel = np.empty((js.size, len(self.members), d1), dtype=np.float64)
        for t, m in enumerate(self.members):
            m._panel(r, d1, js, out=panel[:, t])
        return np.moveaxis(panel, 0, -1)


def make_batched_rng(kind: str, seeds: Sequence[int],
                     dist: str = "uniform", **kwargs) -> BatchedSketchRNG:
    """Build a :class:`BatchedSketchRNG` with one member per seed."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("make_batched_rng needs at least one seed")
    return BatchedSketchRNG([make_rng(kind, s, dist, **kwargs)
                             for s in seeds])
