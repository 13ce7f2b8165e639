"""Content-addressed cache keys.

Every cached artifact is addressed by a SHA-256 digest over the
canonical JSON of its *key components* — never by filename, mtime, or
user-supplied label — so a stale or mislabeled entry is structurally
impossible: change any input that could change the artifact and the key
changes with it.

Two matrix fingerprints exist on purpose:

* :func:`pattern_fingerprint` hashes the sparsity **structure** only
  (shape + ``indptr`` + ``indices``).  Tuning results and kernel choices
  depend on where the nonzeros are, not on their values, so same-pattern
  matrices share those entries.
* :func:`matrix_fingerprint` additionally hashes the stored **values**.
  The blocked-CSR conversion carries ``A``'s data verbatim, so its key
  must pin the values too — a same-pattern, different-values matrix must
  never be served another matrix's blocks (wrong answers are the one
  failure mode a cache may not have).
"""

from __future__ import annotations

import hashlib
import platform
from typing import TYPE_CHECKING

import numpy as np

from ..utils.canonical import canonical_digest, canonical_json

if TYPE_CHECKING:  # pragma: no cover
    from ..model.machine import MachineModel
    from ..sparse.csc import CSCMatrix

__all__ = [
    "KEY_VERSION",
    "pattern_fingerprint",
    "matrix_fingerprint",
    "machine_fingerprint",
    "cache_key",
]

#: Bump to invalidate every existing cache entry (key-schema changes).
KEY_VERSION = 1


def _hash_arrays(header: dict, arrays: "list[np.ndarray]") -> str:
    h = hashlib.sha256()
    h.update(canonical_json(header).encode("utf-8"))
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def pattern_fingerprint(A: "CSCMatrix") -> str:
    """Digest of *A*'s sparsity structure (shape, indptr, indices)."""
    m, n = A.shape
    return _hash_arrays(
        {"kind": "csc-pattern", "m": int(m), "n": int(n), "nnz": int(A.nnz)},
        [A.indptr, A.indices],
    )


def matrix_fingerprint(A: "CSCMatrix") -> str:
    """Digest of *A*'s structure **and** stored values."""
    m, n = A.shape
    return _hash_arrays(
        {"kind": "csc-matrix", "m": int(m), "n": int(n), "nnz": int(A.nnz)},
        [A.indptr, A.indices, A.data],
    )


def machine_fingerprint(machine: "MachineModel | None" = None) -> dict:
    """JSON-ready identity of the machine profile an artifact is valid for.

    Combines the explicit :class:`~repro.model.MachineModel` parameters
    (they steer planning decisions) with the host's coarse hardware
    identity (measured tunings do not transfer across architectures).
    """
    record: dict = {
        "host_system": platform.system(),
        "host_machine": platform.machine(),
    }
    if machine is not None:
        record["model"] = {
            "name": machine.name,
            "cache_bytes": int(machine.cache_bytes),
            "peak_gflops": float(machine.peak_gflops),
            "bandwidth_gbs": float(machine.bandwidth_gbs),
            "h_base": float(machine.h_base),
            "random_access_penalty": float(machine.random_access_penalty),
            "cores": int(machine.cores),
            "bandwidth_saturation_threads":
                int(machine.bandwidth_saturation_threads),
        }
    return record


def cache_key(artifact: str, components: dict) -> str:
    """The content-addressed key for one artifact.

    *components* must be a JSON-ready dict (fingerprint strings, plain
    scalars, nested dicts); the artifact class name and the key-schema
    version are mixed in so distinct artifact types can never collide
    and a schema bump invalidates everything at once.
    """
    return canonical_digest(
        {"artifact": str(artifact), "key_version": KEY_VERSION,
         "components": components}
    )
