"""Sketching SpMM kernels — the paper's primary contribution.

The six loop orderings of the toy kernel (Section II-B), the two
production kernels with on-the-fly random number generation — Algorithm 3
(*kji*, CSC) and Algorithm 4 (*jki*, blocked CSR) — the pre-generated-S
baselines, the Algorithm 1 outer blocking driver, and the architecture/
pattern-sensitive dispatcher.
"""

from .algo3 import algo3_block, algo3_block_reference
from .autotune import TuneResult, autotune_blocking, autotune_kernel
from .algo4 import algo4_block, algo4_block_reference
from .backends import available_backends
from .blocking import (compute_tile, default_block_sizes, iter_block_tasks,
                       sketch_spmm)
from .dispatch import KernelChoice, choose_kernel, column_concentration
from .loop_orders import (
    LOOP_ORDER_KERNELS,
    RULED_OUT,
    kernel_ijk,
    kernel_ikj,
    kernel_jik,
    kernel_jki,
    kernel_kij,
    kernel_kji,
)
from .pregen import pregen_csr_transposed, pregen_full, pregen_rowblocks
from .stats import KernelStats

__all__ = [
    "TuneResult",
    "autotune_blocking",
    "autotune_kernel",
    "algo3_block",
    "algo3_block_reference",
    "algo4_block",
    "algo4_block_reference",
    "available_backends",
    "compute_tile",
    "default_block_sizes",
    "iter_block_tasks",
    "sketch_spmm",
    "KernelChoice",
    "choose_kernel",
    "column_concentration",
    "LOOP_ORDER_KERNELS",
    "RULED_OUT",
    "kernel_ijk",
    "kernel_ikj",
    "kernel_jik",
    "kernel_jki",
    "kernel_kij",
    "kernel_kji",
    "pregen_csr_transposed",
    "pregen_full",
    "pregen_rowblocks",
    "KernelStats",
]
