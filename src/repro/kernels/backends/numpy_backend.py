"""The numpy backend: the vectorized block kernels.

A thin adapter putting :func:`repro.kernels.algo3.algo3_block` and
:func:`repro.kernels.algo4.algo4_block` behind named methods.  Each kernel
takes a ``(d1, n1)`` block with one generator or a ``(k, d1, n1)`` stack
with a batched one; the ``*_batched`` names carry the stacks, so a
wrapper timing these methods can tell the two apart.
"""

from __future__ import annotations

from ..algo3 import algo3_block
from ..algo4 import algo4_block

__all__ = ["NUMPY", "NumpyBackend"]


class NumpyBackend:
    """Batched RNG panels added by scipy's compiled sparse x dense apply."""

    name = "numpy"

    def algo3_block(self, Ahat_sub, A_sub, r, rng, watch=None) -> None:
        algo3_block(Ahat_sub, A_sub, r, rng, watch=watch)

    def algo4_block(self, Ahat_sub, A_blk, r, rng, watch=None) -> None:
        algo4_block(Ahat_sub, A_blk, r, rng, watch=watch)

    def algo3_block_batched(self, Ahat_stack, A_sub, r, brng,
                            watch=None) -> None:
        algo3_block(Ahat_stack, A_sub, r, brng, watch=watch)

    def algo4_block_batched(self, Ahat_stack, A_blk, r, brng,
                            watch=None) -> None:
        algo4_block(Ahat_stack, A_blk, r, brng, watch=watch)


#: The one backend instance every driver calls.
NUMPY = NumpyBackend()
