"""The sketching-RNG interface and its three implementations.

Algorithms 3 and 4 in the paper access the random matrix ``S`` exclusively
through the pair ``g.set_state(r, j); g.get_samples(v)`` — "give me the
``d1`` entries of column ``j`` of ``S`` that belong to the current row
block starting at offset ``r``".  This module defines that contract as
:class:`SketchingRNG` with a vectorized batch form (many ``j`` at once,
which is how the NumPy kernels call it), plus:

* :class:`PhiloxSketchRNG` — counter-based; ``S[i, j]`` is a pure function
  of the coordinate, so the sketch is reproducible independent of blocking
  and thread count (the RandBLAS-compatible option, Section IV-C);
* :class:`XoshiroSketchRNG` — checkpointed xoshiro256**; faster, but the
  sketch depends on the row-block offsets used (Section IV-B2);
* :class:`JunkRNG` — the paper's Section V-A upper-bound probe, replacing
  random generation with trivially cheap arithmetic to measure how much a
  hardware RNG could help.

Every implementation counts the entries it produced in
:attr:`SketchingRNG.samples_generated`, which the instrumented kernels
report alongside time (the "sample time" columns of Tables III and V).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..utils.validation import check_nonnegative_int, check_positive_int
from .distributions import Distribution, get_distribution
from .philox import PHILOX_DEFAULT_ROUNDS, key_from_seed, philox_uint64
from .scratch import Scratch, thread_scratch
from .threefry import THREEFRY_DEFAULT_ROUNDS, key_pair_from_seed, threefry_uint64
from .xoshiro import DEFAULT_LANES, checkpoint_panel

__all__ = [
    "SketchingRNG",
    "PhiloxSketchRNG",
    "ThreefrySketchRNG",
    "XoshiroSketchRNG",
    "JunkRNG",
    "make_rng",
    "CHUNK_LANES",
]

#: Entries (``d1 * column-chunk``) generated per pass of the sampling
#: loop.  Every stage from counter to sample works on chunk-sized buffers
#: reused from chunk to chunk (:mod:`repro.rng.scratch`), so the working
#: set stays in cache instead of streaming panel-sized temporaries
#: through DRAM, while each NumPy call still covers enough entries to
#: amortize its dispatch cost.  Chunking is bitwise-invisible: every
#: family keys its output on coordinates (or per-``(r, j)``
#: checkpoints), never on call boundaries.
CHUNK_LANES = 32768


def check_block(r, d1, js) -> tuple[int, int, np.ndarray]:
    """Validate and normalize the ``(r, d1, js)`` block address."""
    r = check_nonnegative_int(r, "r")
    d1 = check_positive_int(d1, "d1")
    js = np.asarray(js, dtype=np.int64)
    if js.ndim != 1:
        raise ConfigError(f"js must be 1-D, got ndim={js.ndim}")
    return r, d1, js


def sample_chunked(bits_of: Callable[[np.ndarray, Scratch], np.ndarray],
                   dist: Distribution, d1: int, js: np.ndarray,
                   step_lanes: int = 0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The sampling loop: the ``(len(js), d1)`` panel, into *out* if given.

    The panel is the block ``S[r:r+d1, js]`` transposed, one row per
    column of ``S``: the layout the kernels' compiled apply consumes,
    and one in which a chunk of columns is a contiguous run of rows.
    Walks ``js`` in chunks of about :data:`CHUNK_LANES` entries; for each
    chunk ``bits_of(cols, scratch)`` returns the raw bits of shape
    ``(len(cols), d1)`` and the distribution transform writes them
    straight into the panel.  Both stages draw their temporaries from
    the thread's :class:`~repro.rng.scratch.Scratch`, so every chunk —
    and every later call on the same thread — reuses the same buffers.

    A stepped generator (xoshiro) advances ``step_lanes`` states per
    column with each of its sequential steps, one NumPy call per
    operation of a step.  Its bits are fetched for groups of columns
    wide enough that a step covers :data:`CHUNK_LANES` states, so those
    calls stay wide however tall the block is, and transformed a chunk
    at a time.
    """
    g = int(js.size)
    if out is None:
        out = np.empty((g, d1), dtype=np.float64)
    chunk = max(1, CHUNK_LANES // d1)
    group = max(chunk, CHUNK_LANES // step_lanes) if step_lanes else chunk
    scratch = thread_scratch()
    for glo in range(0, g, group):
        bits = bits_of(js[glo:glo + group], scratch)
        width = bits.shape[0]
        for lo in range(0, width, chunk):
            hi = min(width, lo + chunk)
            dist.sample_from_bits(bits[lo:hi], out=out[glo + lo:glo + hi],
                                  scratch=scratch)
    return out


class SketchingRNG(abc.ABC):
    """Coordinate-addressable generator for entries of the sketch ``S``.

    Subclasses define :meth:`_bits_block` (or, bypassing the bits path,
    :meth:`_panel`); :meth:`column_block_batch` and the scalar
    :meth:`column_block` (the paper's ``set_state``/``get_samples`` pair)
    are derived from it, so batched and one-at-a-time access are
    bit-identical by construction.
    """

    #: Registry name of the generator family (``"philox"`` etc.); used by
    #: checkpoint fingerprints to rebuild an equivalent generator on resume.
    family: str = "abstract"

    def __init__(self, seed: int, dist: str | Distribution) -> None:
        self.seed = int(seed)
        self.dist = get_distribution(dist)
        #: Total number of sketch entries generated through this object.
        self.samples_generated = 0

    # -- core access ------------------------------------------------------

    @abc.abstractmethod
    def _bits_block(self, r: int, d1: int, js: np.ndarray,
                    scratch: Scratch | None = None) -> np.ndarray:
        """Raw ``uint64`` bits of shape ``(len(js), d1)`` for block ``(r, js)``.

        Row ``t`` holds the bits of ``S[r:r+d1, js[t]]``.  With a
        *scratch*, the result may live in one of its buffers.
        """

    def _panel(self, r: int, d1: int, js: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """``S[r:r+d1, js]`` transposed, ``(len(js), d1)``, into *out* if given.

        The one producer of entries: :meth:`column_block_batch` and every
        member of a :class:`~repro.rng.batched.BatchedSketchRNG` call it.
        *out* may be any float64 view whose rows are contiguous.
        """
        out = sample_chunked(
            lambda cols, scratch: self._bits_block(r, d1, cols, scratch),
            self.dist, d1, js, self._step_lanes, out)
        self.samples_generated += d1 * int(js.size)
        return out

    def column_block_batch(self, r: int, d1: int, js: np.ndarray) -> np.ndarray:
        """Entries ``S[r:r+d1, js]`` as a dense ``(d1, len(js))`` array.

        ``js`` holds sparse-matrix row indices (columns of ``S``); they need
        not be sorted or unique.  This is the batched form of Algorithm 3
        lines 7-8 — the workhorse call of the vectorized kernels.  The
        array is the ``.T`` view of a C-ordered ``(len(js), d1)`` panel,
        the layout the kernels' compiled apply reads as it is.
        """
        r, d1, js = check_block(r, d1, js)
        return self._panel(r, d1, js).T

    def column_block(self, r: int, d1: int, j: int) -> np.ndarray:
        """Entries ``S[r:r+d1, j]`` — the scalar ``set_state`` / ``get_samples``."""
        return self.column_block_batch(r, d1, np.array([j]))[:, 0]

    # -- properties ---------------------------------------------------------

    #: States advanced per column by one sequential step of the generator
    #: (0: counter-based, no steps); see :func:`sample_chunked`.
    _step_lanes: int = 0

    @property
    @abc.abstractmethod
    def blocking_independent(self) -> bool:
        """True when the realized sketch does not depend on block offsets."""

    @property
    def post_scale(self) -> float:
        """Scalar to apply to the finished product (scaling trick support)."""
        return self.dist.post_scale

    # -- whole-matrix realization (tests, pre-generation baseline) ---------

    def materialize(self, d: int, m: int, b_d: int | None = None) -> np.ndarray:
        """Realize the full ``d x m`` sketch ``S`` as a dense array.

        For checkpointed generators the realized matrix depends on the
        row-block size ``b_d`` used during multiplication; pass the same
        value the kernel will use (default: one block of height ``d``).
        The returned matrix does **not** include :attr:`post_scale` — it
        matches what the kernels accumulate before their final scaling,
        so ``post_scale * (S @ A_dense)`` is the reference product.
        """
        d = check_positive_int(d, "d")
        m = check_positive_int(m, "m")
        b_d = d if b_d is None else check_positive_int(b_d, "b_d")
        S = np.empty((d, m), dtype=np.float64)
        js = np.arange(m, dtype=np.int64)
        for r in range(0, d, b_d):
            d1 = min(b_d, d - r)
            S[r:r + d1, :] = self.column_block_batch(r, d1, js)
        return S

    def reset_counters(self) -> None:
        """Zero the :attr:`samples_generated` counter."""
        self.samples_generated = 0


class PhiloxSketchRNG(SketchingRNG):
    """Counter-based sketch generator (Philox4x32).

    ``S[i, j]`` depends only on ``(seed, i, j)``: realized sketches are
    invariant to blocking, loop order, and thread count, at roughly the
    RNG cost penalty the paper measured for Random123-style generators.
    """

    family = "philox"

    def __init__(self, seed: int, dist: str | Distribution = "uniform",
                 rounds: int = PHILOX_DEFAULT_ROUNDS) -> None:
        super().__init__(seed, dist)
        self.rounds = check_positive_int(rounds, "rounds")
        self._key = key_from_seed(self.seed)

    def _bits_block(self, r: int, d1: int, js: np.ndarray,
                    scratch: Scratch | None = None) -> np.ndarray:
        rows = np.arange(r, r + d1, dtype=np.uint64)[None, :]
        cols = js.astype(np.uint64)[:, None]
        return philox_uint64(rows, cols, self._key, self.rounds, scratch)

    @property
    def blocking_independent(self) -> bool:
        return True


class ThreefrySketchRNG(SketchingRNG):
    """Counter-based sketch generator (Threefry2x64).

    The second Random123 family: identical contract to
    :class:`PhiloxSketchRNG` (coordinate-addressed, blocking- and
    thread-independent sketches) with an add-rotate-xor round function in
    place of Philox's wide multiplies.
    """

    family = "threefry"

    def __init__(self, seed: int, dist: str | Distribution = "uniform",
                 rounds: int = THREEFRY_DEFAULT_ROUNDS) -> None:
        super().__init__(seed, dist)
        self.rounds = check_positive_int(rounds, "rounds")
        self._key = key_pair_from_seed(self.seed)

    def _bits_block(self, r: int, d1: int, js: np.ndarray,
                    scratch: Scratch | None = None) -> np.ndarray:
        rows = np.arange(r, r + d1, dtype=np.uint64)[None, :]
        cols = js.astype(np.uint64)[:, None]
        return threefry_uint64(rows, cols, self._key, self.rounds, scratch)

    @property
    def blocking_independent(self) -> bool:
        return True


class XoshiroSketchRNG(SketchingRNG):
    """Checkpointed xoshiro256** sketch generator.

    The state is re-seeded from ``(seed, r, j)`` once per (block, column)
    checkpoint and then streamed across interleaved SIMD-style lanes, so
    the realized sketch depends on the row-block offsets (``b_d``) used —
    the reproducibility trade-off of Section IV-B2.
    """

    family = "xoshiro"

    def __init__(self, seed: int, dist: str | Distribution = "uniform",
                 n_lanes: int = DEFAULT_LANES) -> None:
        super().__init__(seed, dist)
        self.n_lanes = check_positive_int(n_lanes, "n_lanes")

    def _bits_block(self, r: int, d1: int, js: np.ndarray,
                    scratch: Scratch | None = None) -> np.ndarray:
        return checkpoint_panel(self.seed, r, js, d1, self.n_lanes, scratch)

    @property
    def _step_lanes(self) -> int:
        return self.n_lanes

    @property
    def blocking_independent(self) -> bool:
        return False


class JunkRNG(SketchingRNG):
    """Deterministic pseudo-entries from trivial arithmetic (Section V-A).

    The paper notes that replacing the RNG with "a number computed from
    simple addition" gives an upper bound on achievable kernel speed (about
    2x on shar_te2-b2), motivating hardware RNGs.  Entries are
    ``(((i + 3 j) mod 7) - 3) / 3`` — mean-zero, bounded, and cheap —
    computed directly in float to skip the bit-transform path.
    """

    family = "junk"

    def __init__(self, seed: int = 0, dist: str | Distribution = "uniform") -> None:
        super().__init__(seed, dist)

    def _bits_block(self, r, d1, js, scratch=None):  # pragma: no cover
        raise NotImplementedError("JunkRNG bypasses the bits path")

    def _panel(self, r, d1, js, out=None):
        rows = np.arange(r, r + d1, dtype=np.int64)[None, :]
        if out is None:
            out = np.empty((js.size, d1), dtype=np.float64)
        np.divide((rows + 3 * js[:, None]) % 7 - 3, 3.0, out=out)
        self.samples_generated += int(out.size)
        return out

    @property
    def blocking_independent(self) -> bool:
        return True


_RNG_KINDS = {
    "philox": PhiloxSketchRNG,
    "threefry": ThreefrySketchRNG,
    "xoshiro": XoshiroSketchRNG,
    "junk": JunkRNG,
}


def make_rng(kind: str, seed: int, dist: str | Distribution = "uniform",
             **kwargs) -> SketchingRNG:
    """Factory: build a sketching RNG by name (``philox``/``threefry``/``xoshiro``/``junk``)."""
    try:
        cls = _RNG_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown RNG kind {kind!r}; available: {sorted(_RNG_KINDS)}"
        ) from None
    return cls(seed, dist, **kwargs)
