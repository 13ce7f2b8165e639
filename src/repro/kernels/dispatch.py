"""Architecture- and pattern-sensitive kernel selection.

Section II-B divides target machines into two cases: those "sensitive to
random access" (Frontera — prefetch-friendly strided loops win, choose
Algorithm 3) and those that "don't heavily penalize random access" or have
expensive RNG relative to bandwidth (Perlmutter — reuse wins, choose
Algorithm 4).  Section V-A's Table VI adds a pattern caveat: Algorithm 4
collapses when nonzeros concentrate in few dense *columns* (Abnormal_C),
while Algorithm 3 is pattern-oblivious.

:func:`choose_kernel` encodes both rules: prefer Algorithm 4 only when the
machine model says random access is cheap relative to RNG **and** the
sparsity pattern does not have Abnormal_C-style column concentration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..sparse.csc import CSCMatrix
from ..utils.canonical import canonical_json
from .backends import NUMPY

if TYPE_CHECKING:  # pragma: no cover
    from ..model.machine import MachineModel

__all__ = ["KERNEL_CHOICE_VERSION", "KernelChoice", "column_concentration",
           "choose_kernel"]

KERNEL_CHOICE_VERSION = 1


@dataclass(frozen=True)
class KernelChoice:
    """A kernel decision and the reasons behind it.

    The serialized record names the one kernel backend (``"numpy"``), as
    cached choices always have.
    """

    kernel: str
    reason: str
    column_concentration: float
    machine_favors_reuse: bool

    # -- serialization (stable: the artifact cache stores this verbatim) ----

    def to_dict(self) -> dict:
        return {
            "version": KERNEL_CHOICE_VERSION,
            "kernel": self.kernel,
            "reason": self.reason,
            "column_concentration": float(self.column_concentration),
            "machine_favors_reuse": bool(self.machine_favors_reuse),
            "backend": NUMPY.name,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact, stable float repr)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "KernelChoice":
        version = int(data.get("version", KERNEL_CHOICE_VERSION))
        if version > KERNEL_CHOICE_VERSION:
            raise ConfigError(
                f"KernelChoice format version {version} is newer than this "
                f"library understands (max {KERNEL_CHOICE_VERSION})"
            )
        return cls(
            kernel=str(data["kernel"]),
            reason=str(data.get("reason", "")),
            column_concentration=float(data["column_concentration"]),
            machine_favors_reuse=bool(data["machine_favors_reuse"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "KernelChoice":
        return cls.from_dict(json.loads(text))


def column_concentration(A: CSCMatrix, top_fraction: float = 0.01) -> float:
    """Fraction of nonzeros held by the densest ``top_fraction`` of columns.

    Abnormal_C (every 1000th column dense) scores ~1.0; a uniform pattern
    scores ~``top_fraction``.  This is the cheap signature the dispatcher
    uses to detect the pattern that doubles Algorithm 4's runtime in
    Table VI (outer products degenerate when "the sparse matrix has most
    of its elements stored contiguously in columns").
    """
    if not (0.0 < top_fraction <= 1.0):
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    counts = A.col_nnz()
    nnz = counts.sum()
    if nnz == 0:
        return 0.0
    k = max(1, int(round(top_fraction * counts.size)))
    top = np.sort(counts)[-k:]
    return float(top.sum() / nnz)


def choose_kernel(machine: "MachineModel", A: CSCMatrix,
                  concentration_threshold: float = 0.5) -> KernelChoice:
    """Pick Algorithm 3 or 4 for *machine* and the pattern of *A*.

    The machine-level signal is
    :attr:`repro.model.MachineModel.favors_reuse` (random-access penalty
    low relative to RNG cost).  Even on a reuse-favouring machine,
    column-concentrated patterns (score above *concentration_threshold*)
    fall back to the pattern-oblivious Algorithm 3.

    Inputs are validated up front: an empty matrix (zero rows, columns,
    or nonzeros) or non-finite machine parameters raise
    :class:`~repro.errors.ConfigError` instead of propagating raw NumPy
    warnings through the concentration heuristic.
    """
    m, n = A.shape
    if m == 0 or n == 0:
        raise ConfigError(
            f"choose_kernel needs a non-empty matrix, got shape {A.shape}"
        )
    if A.nnz == 0:
        raise ConfigError(
            "choose_kernel needs at least one nonzero: an all-zero matrix "
            "has no sparsity pattern to dispatch on"
        )
    A.validate(require_finite=True)
    for attr in ("h_base", "random_access_penalty", "peak_gflops",
                 "bandwidth_gbs"):
        value = float(getattr(machine, attr))
        if not np.isfinite(value):
            raise ConfigError(
                f"machine parameter {attr} must be finite, got {value}"
            )
    if not np.isfinite(concentration_threshold) or concentration_threshold <= 0:
        raise ConfigError(
            f"concentration_threshold must be positive and finite, got "
            f"{concentration_threshold}"
        )
    conc = column_concentration(A)
    if not machine.favors_reuse:
        return KernelChoice(
            kernel="algo3",
            reason=(
                "machine penalizes random access relative to RNG cost; "
                "Algorithm 3's fully strided accesses win (Frontera case)"
            ),
            column_concentration=conc,
            machine_favors_reuse=False,
        )
    if conc >= concentration_threshold:
        return KernelChoice(
            kernel="algo3",
            reason=(
                f"nonzeros concentrated in few columns (score {conc:.2f}); "
                "Algorithm 4's outer products degenerate on this pattern "
                "(Table VI, Abnormal_C)"
            ),
            column_concentration=conc,
            machine_favors_reuse=True,
        )
    return KernelChoice(
        kernel="algo4",
        reason=(
            "machine tolerates random access / RNG is relatively expensive; "
            "Algorithm 4's sample reuse wins (Perlmutter case)"
        ),
        column_concentration=conc,
        machine_favors_reuse=True,
    )
