"""Vectorized xoshiro256** with block "checkpoints".

Section IV-B2 of the paper selects the xoshiro (XOR-shift/rotate) family
for production use: it is markedly faster than counter-based generators,
and although it is *sequential* (each draw mutates the state), the blocked
structure of the sketching algorithms means the state only needs to be
re-seeded once per block — "utilizing blocks as checkpoints".  The paper's
Julia implementation uses a SIMD xoshiro with several interleaved lanes;
we mirror that with NumPy arrays of lane states, so one :func:`xoshiro_next`
call advances every lane at once.

Checkpoint semantics
--------------------
The value stream for a checkpoint ``(r, j)`` (``r`` = row offset of the
current block of ``S``, ``j`` = sparse-matrix row, i.e. column of ``S``) is
defined by:

1. hashing ``(seed, r, j, lane)`` through SplitMix64 into per-lane
   4-word states (:func:`seed_states`), and
2. emitting, at step ``t``, the lane-``l`` output into position
   ``t * n_lanes + l`` — the interleaved order a SIMD register naturally
   produces.

Consequently the generated sketch depends on the blocking parameters
(``r`` changes with ``b_d``) — exactly the reproducibility caveat the paper
accepts for xoshiro, and the reason the Philox generator in
:mod:`repro.rng.philox` exists as the blocking-independent alternative.
"""

from __future__ import annotations

import numpy as np

from .scratch import Scratch
from .splitmix import GOLDEN_GAMMA, mix_key, splitmix64

__all__ = ["DEFAULT_LANES", "seed_states", "xoshiro_next", "checkpoint_bits",
           "checkpoint_panel"]

#: Number of interleaved lanes.  The paper's SIMD kernels interleave 8
#: 64-bit lanes (one 512-bit register); the NumPy realization amortizes
#: interpreter overhead across a wider virtual register, so the default is
#: 64 lanes (the stream layout is the same interleaving, just wider).
DEFAULT_LANES = 64

_R7 = np.uint64(7)
_R45 = np.uint64(45)
_R17 = np.uint64(17)
_FIVE = np.uint64(5)
_NINE = np.uint64(9)


def _rotl(x: np.ndarray, k: np.uint64) -> np.ndarray:
    """Rotate-left each ``uint64`` element of *x* by *k* bits."""
    return (x << k) | (x >> (np.uint64(64) - k))


def seed_states(keys: np.ndarray) -> np.ndarray:
    """Expand an array of ``uint64`` keys into xoshiro256** states.

    Returns an array of shape ``(4,) + keys.shape``.  Each key is expanded
    through four SplitMix64 steps, Vigna's recommended seeding procedure;
    SplitMix64's avalanche guarantees no state is all-zero in practice (an
    all-zero state would be a fixed point of the generator).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    state = np.empty((4,) + keys.shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for w in range(4):
            state[w] = splitmix64(keys + GOLDEN_GAMMA * np.uint64(w))
    return state


def xoshiro_next(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Advance every lane of *state* one step; return the lane outputs.

    *state* has shape ``(4,) + lane_shape`` and is updated in place.  The
    output is the xoshiro256** scrambler ``rotl(s1 * 5, 7) * 9`` of shape
    ``lane_shape``, written into *out* when given.
    """
    s0, s1, s2, s3 = state[0], state[1], state[2], state[3]
    with np.errstate(over="ignore"):
        result = np.multiply(_rotl(s1 * _FIVE, _R7), _NINE, out=out)
        t = s1 << _R17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        state[3] = _rotl(s3, _R45)
    state[0], state[1], state[2] = s0, s1, s2
    return result


def checkpoint_panel(
    seed: int,
    r: int,
    js: np.ndarray,
    count: int,
    n_lanes: int = DEFAULT_LANES,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """Random bits for the checkpoints ``(r, j)`` for every ``j`` in *js*.

    Returns a ``uint64`` array of shape ``(len(js), count)`` whose row
    ``t`` is the first *count* outputs of the checkpoint stream for
    ``(r, js[t])``: the panel layout of the sampling loop, each row
    contiguous.  This is the batched form of the paper's
    ``g.set_state(r, j); g.get_samples(v)`` pair (Algorithm 3 lines 7-8 /
    Algorithm 4 lines 6-7), vectorized across both the sample index and
    the sparse rows so a whole block's worth of sketch columns is
    produced with a handful of wide NumPy operations: the lane states
    are held as ``(4, len(js), n_lanes)``, and step ``t`` writes each
    column's lane vector to its entries ``t * n_lanes + l``.  With a
    *scratch*, the result lives in one of its buffers.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if n_lanes < 1:
        raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
    js = np.asarray(js, dtype=np.int64)
    ncols = js.shape[0]
    if count == 0 or ncols == 0:
        return np.zeros((ncols, count), dtype=np.uint64)
    # Per-(j, lane) keys: shape (ncols, n_lanes).
    lanes = np.arange(n_lanes, dtype=np.uint64)[None, :]
    base = mix_key(np.int64(seed), np.int64(r), js)[:, None]  # (ncols, 1)
    with np.errstate(over="ignore"):
        keys = splitmix64(base ^ (lanes * GOLDEN_GAMMA + np.uint64(1)))
    state = seed_states(keys)  # (4, ncols, n_lanes)
    steps = -(-count // n_lanes)
    sc = scratch if scratch is not None else Scratch()
    out = sc.take("xoshiro.out", (ncols, steps, n_lanes), np.uint64)
    for t in range(steps):
        xoshiro_next(state, out=out[:, t])
    return out.reshape(ncols, steps * n_lanes)[:, :count]


def checkpoint_bits(
    seed: int,
    r: int,
    js: np.ndarray,
    count: int,
    n_lanes: int = DEFAULT_LANES,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """Random bits for the checkpoints ``(r, j)``, one column per ``j``.

    The ``(count, len(js))`` transposed view of :func:`checkpoint_panel`:
    column ``t`` is the first *count* outputs of the checkpoint stream
    for ``(r, js[t])``.
    """
    return checkpoint_panel(seed, r, js, count, n_lanes, scratch).T
