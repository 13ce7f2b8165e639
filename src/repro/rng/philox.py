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


def _philox_words(c0, c1, c2, c3, key, rounds: int,
                  scratch: Scratch | None = None) -> list[np.ndarray]:
    """Philox4x32 rounds on counter words held in ``uint64`` lanes.

    Each 32-bit word lives in the low half of a ``uint64``, so the
    32x32 -> 64 multiply is exact without casts.  Every round updates
    the four lanes in place in buffers taken from *scratch*; the
    returned lanes alias them.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    cs = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    k0 = np.asarray(key[0], dtype=np.uint64)
    k1 = np.asarray(key[1], dtype=np.uint64)
    shape = np.broadcast_shapes(*(c.shape for c in cs), k0.shape, k1.shape)
    sc = scratch if scratch is not None else Scratch()
    x0, x1, x2, x3 = x = [sc.take(f"philox.x{w}", shape, np.uint64)
                          for w in range(4)]
    for xw, c in zip(x, cs):
        xw[...] = c
    p0 = sc.take("philox.p0", shape, np.uint64)
    p1 = sc.take("philox.p1", shape, np.uint64)
    # A batch's keys (one per leading-axis slice) are XORed as scalars
    # into each member's slice: a broadcast (k, 1, 1) key walks d1 short
    # rows per member, at about three times the cost per lane.
    n_keys = k0.size
    if k1.size != n_keys or n_keys > 1 and not k0.shape == k1.shape == (
            (n_keys,) + (1,) * (len(shape) - 1)):
        raise ValueError("key words must be scalars or one word per "
                         "leading-axis slice, shape (k, 1, ..., 1)")
    slices = list(zip(x0.reshape(n_keys, -1), x2.reshape(n_keys, -1)))
    for _ in range(rounds):
        np.multiply(x0, _MUL_A, out=p0)
        np.multiply(x2, _MUL_B, out=p1)
        # Philox round permutation (Salmon et al., Table 2):
        # x0 <- hi(p1) ^ x1 ^ k0, x1 <- lo(p1), x2 <- hi(p0) ^ x3 ^ k1,
        # x3 <- lo(p0).  Nothing reads x0 or x2 after their key XOR, so
        # both XORs close the round.
        np.right_shift(p1, _32, out=x0)
        x0 ^= x1
        np.bitwise_and(p1, _LO32, out=x1)
        np.right_shift(p0, _32, out=x2)
        x2 ^= x3
        np.bitwise_and(p0, _LO32, out=x3)
        if n_keys == 1:
            x0 ^= k0
            x2 ^= k1
        else:
            for (lane0, lane2), w0, w1 in zip(slices, k0.flat, k1.flat):
                lane0 ^= w0
                lane2 ^= w1
        k0 = (k0 + _WEYL_A) & _LO32
        k1 = (k1 + _WEYL_B) & _LO32
    return x


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
        ``(k0, k1)`` pair of ``uint32`` key words (see :func:`key_from_seed`).
        Each word may also be a ``uint32`` *array* of shape ``(k, 1, ...,
        1)`` holding one key per sketch of a batch; the round function is
        purely elementwise, so every slice of the broadcast output is
        bit-identical to a scalar-key call with that slice's key.
    rounds:
        Number of S-P rounds; 10 is the standard "crush-resistant" choice,
        7 is the commonly used faster variant.

    Returns
    -------
    Four ``uint32`` arrays of the common broadcast shape: the random output
    words ``x0..x3`` for each lane.
    """
    words = _philox_words(*(np.asarray(c, dtype=np.uint32)
                            for c in (c0, c1, c2, c3)), key, rounds)
    return tuple(w.astype(np.uint32) for w in words)


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
    x0, x1, _, _ = _philox_words(r & _LO32, r >> _32, c & _LO32, c >> _32,
                                 key, rounds, scratch)
    x1 <<= _32
    x0 |= x1
    return x0
