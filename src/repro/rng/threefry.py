"""Vectorized Threefry2x64 counter-based RNG (Random123 family).

Random123 (Salmon et al., SC'11) ships two crush-resistant CBRNG
families: the multiplication-based Philox (see
:mod:`repro.rng.philox`) and the Threefish-derived, add-rotate-xor
Threefry implemented here.  The paper evaluated "the generators in
Random123" as a class; providing both lets the RNG ablation compare the
families' cost structure on this substrate (Threefry trades Philox's
32x32 multiplies for rotations, which lands differently on different
hardware — and differently again under NumPy).

Threefry2x64-20 follows the reference constants: the Threefish-256 key
parity constant, the 8-round rotation schedule for the 2x64 variant, and
a key injection every 4 rounds.
"""

from __future__ import annotations

import numpy as np

from .scratch import Scratch
from .splitmix import splitmix64

__all__ = ["THREEFRY_DEFAULT_ROUNDS", "threefry2x64", "threefry_uint64",
           "key_pair_from_seed"]

THREEFRY_DEFAULT_ROUNDS = 20

#: Threefish key-schedule parity constant (SKEIN_KS_PARITY64).
_PARITY = np.uint64(0x1BD11BDAA9FC1A22)

#: Rotation schedule for Threefry2x64 (reference implementation).
_ROTATIONS = (16, 42, 12, 31, 16, 32, 24, 21)


def key_pair_from_seed(seed: int) -> tuple[np.uint64, np.uint64]:
    """Expand a user seed into the two 64-bit Threefry key words."""
    k0 = splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    k1 = splitmix64(k0)
    return np.uint64(k0), np.uint64(k1)


def threefry2x64(
    c0: np.ndarray,
    c1: np.ndarray,
    key: tuple[np.uint64, np.uint64],
    rounds: int = THREEFRY_DEFAULT_ROUNDS,
    scratch: Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run Threefry2x64 on arrays of counter words.

    Parameters
    ----------
    c0, c1:
        ``uint64`` arrays (broadcastable) holding each lane's counter.
    key:
        ``(k0, k1)`` scalar key words (see :func:`key_pair_from_seed`).
    rounds:
        Number of mix rounds; 20 is the crush-resistant standard, 13 the
        common fast variant.
    scratch:
        Buffers for the two lanes and the rotate temporary; every round
        updates them in place, and the outputs alias them.

    Returns
    -------
    ``(x0, x1)`` — two ``uint64`` output arrays of the broadcast shape.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    k0, k1 = np.uint64(key[0]), np.uint64(key[1])
    ks = (k0, k1, _PARITY ^ k0 ^ k1)
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    shape = np.broadcast_shapes(c0.shape, c1.shape)
    sc = scratch if scratch is not None else Scratch()
    x0 = sc.take("threefry.x0", shape, np.uint64)
    x1 = sc.take("threefry.x1", shape, np.uint64)
    tmp = sc.take("threefry.tmp", shape, np.uint64)
    with np.errstate(over="ignore"):
        np.add(c0, k0, out=x0)
        np.add(c1, k1, out=x1)
        for r in range(rounds):
            x0 += x1
            rot = _ROTATIONS[r % 8]
            # x1 <- rotl64(x1, rot) ^ x0
            np.left_shift(x1, np.uint64(rot), out=tmp)
            x1 >>= np.uint64(64 - rot)
            x1 |= tmp
            x1 ^= x0
            if (r + 1) % 4 == 0:
                inject = (r + 1) // 4
                x0 += ks[inject % 3]
                x1 += ks[(inject + 1) % 3]
                x1 += np.uint64(inject)
    return x0, x1


def threefry_uint64(
    rows: np.ndarray,
    cols: np.ndarray,
    key: tuple[np.uint64, np.uint64],
    rounds: int = THREEFRY_DEFAULT_ROUNDS,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """One ``uint64`` of random bits per ``(row, col)`` coordinate.

    The coordinate-addressed access mirroring
    :func:`repro.rng.philox_uint64`: the row index is counter word 0, the
    column index word 1, and the first output word is returned.
    """
    return threefry2x64(rows, cols, key, rounds, scratch)[0]
