"""The numpy backend: the vectorized block kernels.

A thin adapter putting :func:`repro.kernels.algo3.algo3_block` and
:func:`repro.kernels.algo4.algo4_block` behind the
:class:`~repro.kernels.backends.KernelBackend` interface, including the
workspace pass-through for allocation-free steady state.
"""

from __future__ import annotations

from ..algo3 import algo3_block
from ..algo4 import algo4_block
from ..batched import algo3_block_batched, algo4_block_batched
from . import KernelBackend, KernelWorkspace, register_backend

__all__ = ["NumpyBackend"]


@register_backend
class NumpyBackend(KernelBackend):
    """Batched RNG panels; BLAS/ufunc updates for Algorithm 3 and
    scipy's compiled sparse x dense apply for Algorithm 4."""

    name = "numpy"

    def algo3_block(self, Ahat_sub, A_sub, r, rng, watch=None,
                    panel_nnz: int = 8192,
                    workspace: KernelWorkspace | None = None) -> None:
        algo3_block(Ahat_sub, A_sub, r, rng, watch=watch,
                    panel_nnz=panel_nnz, workspace=workspace)

    def algo4_block(self, Ahat_sub, A_blk, r, rng, watch=None,
                    workspace: KernelWorkspace | None = None) -> None:
        algo4_block(Ahat_sub, A_blk, r, rng, watch=watch,
                    workspace=workspace)

    def algo3_block_batched(self, Ahat_stack, A_sub, r, brng, watch=None,
                            panel_nnz: int = 8192,
                            workspace: KernelWorkspace | None = None) -> None:
        algo3_block_batched(Ahat_stack, A_sub, r, brng, watch=watch,
                            panel_nnz=panel_nnz, workspace=workspace)

    def algo4_block_batched(self, Ahat_stack, A_blk, r, brng, watch=None,
                            workspace: KernelWorkspace | None = None) -> None:
        algo4_block_batched(Ahat_stack, A_blk, r, brng, watch=watch,
                            workspace=workspace)
