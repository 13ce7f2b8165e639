"""Vectorized Philox4x32 counter-based RNG (Random123 family).

The paper (Section IV-B1) discusses counter-based RNGs as the "in theory
ideal approach" for on-the-fly sketch generation because the value at any
matrix coordinate can be produced directly from a counter, with no
sequential state.  RandBLAS adopts CBRNGs for exactly this reason (Section
IV-C).  This module implements Philox4x32 from the Salmon et al. SC'11
paper, vectorized over NumPy arrays of counters: one call produces the
random words for an arbitrary set of ``(row, column)`` coordinates of the
sketching matrix ``S``, independent of any blocking or thread schedule.

The implementation follows the reference constants:

* multipliers ``0xD2511F53`` and ``0xCD9E8D57``;
* Weyl key increments ``0x9E3779B9`` (golden ratio) and ``0xBB67AE85``
  (sqrt(3) - 1);
* 10 rounds by default (Philox4x32-10).

Only ``uint32``/``uint64`` NumPy arithmetic is used, so the generator is
reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

from .scratch import Scratch
from .splitmix import splitmix64

__all__ = ["PHILOX_DEFAULT_ROUNDS", "philox4x32", "philox_uint64", "key_from_seed"]

PHILOX_DEFAULT_ROUNDS = 10

_MUL_A = np.uint64(0xD2511F53)
_MUL_B = np.uint64(0xCD9E8D57)
_WEYL_A = np.uint64(0x9E3779B9)
_WEYL_B = np.uint64(0xBB67AE85)
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def key_from_seed(seed: int) -> tuple[np.uint32, np.uint32]:
    """Derive the 2x32-bit Philox key from a 64-bit user seed.

    The seed is avalanche-mixed first so that low-entropy seeds (0, 1, 2…)
    still produce well-separated key pairs.
    """
    mixed = int(splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    return np.uint32(mixed & 0xFFFFFFFF), np.uint32((mixed >> 32) & 0xFFFFFFFF)


def _next_key(k0, k1):
    return (k0 + _WEYL_A) & _LO32, (k1 + _WEYL_B) & _LO32


def _rounds(x, p0, p1, k0, k1, n: int):
    """*n* full Philox4x32 rounds on the lanes *x*, in place.

    Each 32-bit word lives in the low half of a ``uint64``, so the
    32x32 -> 64 multiply is exact without casts; *p0* and *p1* hold the
    products.  Returns the key of the round after the last.
    """
    x0, x1, x2, x3 = x
    for _ in range(n):
        np.multiply(x0, _MUL_A, out=p0)
        np.multiply(x2, _MUL_B, out=p1)
        # Philox round permutation (Salmon et al., Table 2):
        # x0 <- hi(p1) ^ x1 ^ k0, x1 <- lo(p1), x2 <- hi(p0) ^ x3 ^ k1,
        # x3 <- lo(p0).
        np.right_shift(p1, _32, out=x0)
        x0 ^= x1
        x0 ^= k0
        np.bitwise_and(p1, _LO32, out=x1)
        np.right_shift(p0, _32, out=x2)
        x2 ^= x3
        x2 ^= k1
        np.bitwise_and(p0, _LO32, out=x3)
        k0, k1 = _next_key(k0, k1)
    return k0, k1


def _setup(key, rounds: int, shape, scratch: Scratch | None):
    """The scalar key words, and the four lanes and two products of *shape*."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    k0, k1 = (np.asarray(w, dtype=np.uint64) for w in key)
    if k0.ndim or k1.ndim:
        raise ValueError("key words must be scalars: a batch samples each "
                         "member with its own key, not one key per "
                         "leading-axis slice")
    sc = scratch if scratch is not None else Scratch()
    return (k0, k1), [sc.take(f"philox.{w}", shape, np.uint64)
                      for w in ("x0", "x1", "x2", "x3", "p0", "p1")]


def philox4x32(
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    key: tuple[np.uint32, np.uint32],
    rounds: int = PHILOX_DEFAULT_ROUNDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run Philox4x32 on an array of counters.

    Parameters
    ----------
    c0, c1, c2, c3:
        ``uint32`` arrays (broadcastable to a common shape) holding the four
        counter words of each lane.
    key:
        ``(k0, k1)`` pair of scalar ``uint32`` key words (see
        :func:`key_from_seed`).
    rounds:
        Number of S-P rounds; 10 is the standard "crush-resistant" choice,
        7 is the commonly used faster variant.

    Returns
    -------
    Four ``uint32`` arrays of the common broadcast shape: the random output
    words ``x0..x3`` for each lane.
    """
    cs = [np.asarray(c, dtype=np.uint32) for c in (c0, c1, c2, c3)]
    key, (*x, p0, p1) = _setup(
        key, rounds, np.broadcast_shapes(*(c.shape for c in cs)), None)
    for xw, c in zip(x, cs):
        xw[...] = c
    _rounds(x, p0, p1, *key, rounds)
    return tuple(w.astype(np.uint32) for w in x)


def philox_uint64(
    rows: np.ndarray,
    cols: np.ndarray,
    key: tuple[np.uint32, np.uint32],
    rounds: int = PHILOX_DEFAULT_ROUNDS,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """One ``uint64`` of random bits per ``(row, col)`` coordinate.

    This is the coordinate-addressed access that makes the sketching matrix
    ``S`` a *function* rather than stored data: ``S[i, j]`` is derived from
    the bits returned for counter ``(i, j)``.  The counter layout packs the
    64-bit row index into words (c0, c1) and the column index into (c2, c3),
    so any coordinates up to 2^63 are collision-free.

    Returns the low two output words packed as ``x0 | (x1 << 32)``; with a
    *scratch*, the result lives in one of its buffers.
    """
    r = np.asarray(rows, dtype=np.uint64)
    c = np.asarray(cols, dtype=np.uint64)
    (k0, k1), (*x, p0, p1) = _setup(
        key, rounds, np.broadcast_shapes(r.shape, c.shape), scratch)
    x0, x1, x2, x3 = x
    # Round 1 on the counter (lo(r), hi(r), lo(c), hi(c)): p0 varies with
    # the row only and p1 with the column only, so the products are taken
    # on the 1-D words and each lane is one broadcast XOR or one fill.
    r0 = (r & _LO32) * _MUL_A
    c1 = (c & _LO32) * _MUL_B
    np.bitwise_xor((c1 >> _32) ^ k0, r >> _32, out=x0)
    x1[...] = c1 & _LO32
    np.bitwise_xor((r0 >> _32) ^ k1, c >> _32, out=x2)
    x3[...] = r0 & _LO32
    k0, k1 = _rounds(x, p0, p1, *_next_key(k0, k1), rounds - 2)
    if rounds > 1:
        # The last round: the output reads only x0 and x1, so p0 and the
        # x2, x3 updates are skipped; lo(p1) << 32 is p1 << 32.
        np.multiply(x2, _MUL_B, out=p1)
        np.right_shift(p1, _32, out=x0)
        x0 ^= x1
        x0 ^= k0
        np.left_shift(p1, _32, out=x1)
    else:
        x1 <<= _32
    x0 |= x1
    return x0
