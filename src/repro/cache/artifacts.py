"""Typed artifact classes over the raw :class:`~repro.cache.ArtifactCache`.

Three artifact classes are cached, each with its own key recipe:

``tune``
    :class:`~repro.kernels.TuneResult` records from
    :func:`~repro.kernels.autotune_blocking` /
    :func:`~repro.kernels.autotune_kernel`.  Keyed by the **pattern**
    fingerprint (tuning depends on structure, not values), the machine
    profile, and every tuning parameter including the recorded
    ``tuning_seed``.
``kernel_choice``
    :class:`~repro.kernels.KernelChoice` records from
    :func:`~repro.kernels.choose_kernel` (the column-concentration scan
    is O(nnz + n log n) — worth skipping on repeat traffic).
``blocked_csr``
    The blocked-CSR conversion of ``A`` itself.  Keyed by the **full
    matrix** fingerprint (values included): serving another matrix's
    blocks would be a wrong answer, the one failure a cache may not
    have.  Stored as four ``.npy`` payloads (block starts, stacked
    per-block indptr, concatenated indices/data) so workers can rebuild
    every block as zero-copy views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..kernels.backends import NUMPY
from ..persist.snapshot import _array_to_npy_bytes, _npy_bytes_to_array
from ..sparse.blocked_csr import BlockedCSR
from ..sparse.csr import CSRMatrix
from .keys import cache_key, machine_fingerprint, matrix_fingerprint, \
    pattern_fingerprint
from .store import ArtifactCache, CacheEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..kernels.autotune import TuneResult
    from ..kernels.dispatch import KernelChoice
    from ..model.machine import MachineModel
    from ..sparse.csc import CSCMatrix

__all__ = [
    "TUNE_ARTIFACT", "CHOICE_ARTIFACT", "BLOCKED_ARTIFACT",
    "tune_key", "fetch_tune_result", "store_tune_result",
    "kernel_choice_key", "fetch_kernel_choice", "store_kernel_choice",
    "blocked_csr_key", "fetch_blocked_csr", "store_blocked_csr",
    "blocked_csr_arrays", "blocked_csr_from_arrays",
]

TUNE_ARTIFACT = "tune"
CHOICE_ARTIFACT = "kernel_choice"
BLOCKED_ARTIFACT = "blocked_csr"


# -- autotune results --------------------------------------------------------


def tune_key(A: "CSCMatrix", *, kernel: str, d: int,
             max_tuning_cols: int, repeats: int, tuning_seed: int,
             machine: "MachineModel | None" = None,
             candidates=None) -> str:
    """Cache key for one autotune invocation (``kernel="race"`` for the
    algo3-vs-algo4 race of :func:`~repro.kernels.autotune_kernel`)."""
    return cache_key(TUNE_ARTIFACT, {
        "pattern": pattern_fingerprint(A),
        "machine": machine_fingerprint(machine),
        "backend": NUMPY.name,
        "kernel": str(kernel),
        "d": int(d),
        "max_tuning_cols": int(max_tuning_cols),
        "repeats": int(repeats),
        "tuning_seed": int(tuning_seed),
        "candidates": (None if candidates is None else
                       [[int(bd), int(bn)] for bd, bn in candidates]),
    })


def fetch_tune_result(cache: ArtifactCache, key: str) -> "TuneResult | None":
    from ..kernels.autotune import TuneResult

    def _load(entry: CacheEntry) -> "TuneResult":
        return TuneResult.from_json(
            entry.payloads["tune.json"].decode("utf-8"))

    return cache.fetch(TUNE_ARTIFACT, key, _load)


def store_tune_result(cache: ArtifactCache, key: str,
                      result: "TuneResult") -> None:
    cache.insert(TUNE_ARTIFACT, key,
                 meta={"kernel": result.kernel, "backend": NUMPY.name},
                 payloads={"tune.json": result.to_json().encode("utf-8")},
                 obj=result)


# -- kernel choices ----------------------------------------------------------


def kernel_choice_key(A: "CSCMatrix", *, concentration_threshold: float,
                      machine: "MachineModel | None" = None) -> str:
    return cache_key(CHOICE_ARTIFACT, {
        "pattern": pattern_fingerprint(A),
        "machine": machine_fingerprint(machine),
        "backend": NUMPY.name,
        "concentration_threshold": float(concentration_threshold),
    })


def fetch_kernel_choice(cache: ArtifactCache,
                        key: str) -> "KernelChoice | None":
    from ..kernels.dispatch import KernelChoice

    def _load(entry: CacheEntry) -> "KernelChoice":
        return KernelChoice.from_json(
            entry.payloads["choice.json"].decode("utf-8"))

    return cache.fetch(CHOICE_ARTIFACT, key, _load)


def store_kernel_choice(cache: ArtifactCache, key: str,
                        choice: "KernelChoice") -> None:
    cache.insert(CHOICE_ARTIFACT, key,
                 meta={"kernel": choice.kernel, "backend": NUMPY.name},
                 payloads={"choice.json": choice.to_json().encode("utf-8")},
                 obj=choice)


# -- the blocked-CSR conversion ----------------------------------------------


def blocked_csr_key(A: "CSCMatrix", b_n: int) -> str:
    """Key for ``A``'s width-``b_n`` blocked-CSR conversion (values pinned).

    One entry serves every shard count: a sharded run reads the same
    whole-matrix conversion, its stripes being runs of its column blocks.
    """
    return cache_key(BLOCKED_ARTIFACT, {
        "matrix": matrix_fingerprint(A),
        "b_n": int(b_n),
    })


def store_blocked_csr(cache: ArtifactCache, key: str, blocked: BlockedCSR,
                      *, b_n: int) -> None:
    """Serialize *blocked* into four npy payloads (one checksum each)."""
    m, n = blocked.shape
    meta = {"m": int(m), "n": int(n), "b_n": int(b_n),
            "n_blocks": int(blocked.n_blocks), "nnz": int(blocked.nnz)}
    cache.insert(
        BLOCKED_ARTIFACT, key,
        meta=meta,
        payloads={f"{name}.npy": _array_to_npy_bytes(arr)
                  for name, arr in blocked_csr_arrays(blocked).items()},
        obj=blocked,
    )


def blocked_csr_arrays(blocked: BlockedCSR) -> dict[str, np.ndarray]:
    """*blocked*'s flat layout, as the cache stores it and the process pool
    publishes it: ``block_starts``, the blocks' ``indptr`` stacked, and
    their ``indices`` and ``data`` concatenated."""
    m = blocked.shape[0]
    blocks = blocked.blocks
    return {
        "block_starts": blocked.block_starts,
        "indptr": (np.stack([blk.indptr for blk in blocks]) if blocks
                   else np.zeros((0, m + 1), dtype=np.int64)),
        "indices": (np.concatenate([blk.indices for blk in blocks])
                    if blocks else np.zeros(0, dtype=np.int64)),
        "data": (np.concatenate([blk.data for blk in blocks]) if blocks
                 else np.zeros(0, dtype=np.float64)),
    }


def blocked_csr_from_arrays(shape: tuple[int, int], block_starts: np.ndarray,
                            indptr: np.ndarray, indices: np.ndarray,
                            data: np.ndarray) -> BlockedCSR:
    """Rebuild a :class:`BlockedCSR` from its flat serialized arrays.

    Blocks are zero-copy views into *indices*/*data*, so the same
    routine reconstructs entries loaded from disk **and** blocks mapped
    from shared memory in pool workers (no per-worker reconversion).
    """
    m, n = int(shape[0]), int(shape[1])
    block_starts = np.asarray(block_starts, dtype=np.int64)
    blocks = []
    offset = 0
    for b in range(block_starts.size - 1):
        width = int(block_starts[b + 1] - block_starts[b])
        ip = indptr[b]
        nnz_b = int(ip[-1])
        blocks.append(CSRMatrix((m, width), ip,
                                indices[offset:offset + nnz_b],
                                data[offset:offset + nnz_b], check=False))
        offset += nnz_b
    return BlockedCSR((m, n), block_starts, blocks, check=False)


def fetch_blocked_csr(cache: ArtifactCache, key: str,
                      expected_shape: tuple[int, int]) -> BlockedCSR | None:
    """Load a cached conversion; shape drift is treated as corruption."""

    def _load(entry: CacheEntry) -> BlockedCSR:
        meta = entry.meta
        shape = (int(meta["m"]), int(meta["n"]))
        if shape != tuple(expected_shape):
            raise ValueError(
                f"cached blocked CSR has shape {shape}, expected "
                f"{tuple(expected_shape)}"
            )
        blocked = blocked_csr_from_arrays(shape, **{
            name: _npy_bytes_to_array(entry.payloads[f"{name}.npy"])
            for name in ("block_starts", "indptr", "indices", "data")})
        if blocked.n_blocks != int(meta["n_blocks"]) or \
                blocked.nnz != int(meta["nnz"]):
            raise ValueError("cached blocked CSR does not match its manifest")
        return blocked

    return cache.fetch(BLOCKED_ARTIFACT, key, _load)
