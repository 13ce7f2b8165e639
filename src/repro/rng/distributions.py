"""Transforms from raw random bits to sketching-matrix entries.

Section III-C of the paper compares five ways of producing the entries of
the random matrix ``S`` (Figure 4):

* ``gaussian`` — standard normals via Box–Muller; statistically the gold
  standard but by far the most expensive transform ("generating Gaussians
  on the fly is not practical");
* ``uniform`` — uniform over ``(-1, 1)``: "generate a random signed 32-bit
  integer and divide it by 2^31";
* ``uniform_scaled`` — the "(-1,1) and scaling trick": keep the *raw
  integers* as the entries of ``S`` and fold the ``1/2^31`` factor into the
  other operand, i.e. compute ``(S f)(A / f)`` with ``f = 2^31`` — here
  realised as a single ``post_scale`` applied to the output, which is
  algebraically identical;
* ``rademacher`` — uniform over ``{+1, -1}``, representable in 8 bits; the
  cheapest transform (a sign bit);
* pre-generated variants of any of the above, which are the job of
  :mod:`repro.kernels.pregen`, not of this module.

Each :class:`Distribution` carries a relative generation-cost parameter
``h_factor`` used by the performance model (the paper's ``h``: cost of one
random number relative to one memory access), and its variance, which the
high-level sketch API uses to normalize sketches to unit expected column
norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..errors import ConfigError
from .detmath import det_cos_2pi, det_log
from .scratch import Scratch

__all__ = [
    "Distribution",
    "UNIFORM",
    "UNIFORM_SCALED",
    "RADEMACHER",
    "GAUSSIAN",
    "DISTRIBUTIONS",
    "get_distribution",
]

# Exact powers of two: scaling by one is exact, so a multiply gives the
# bits a divide would.
_INV_TWO31 = 2.0**-31
_INV_TWO32 = 2.0**-32
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)

# Every transform has the signature ``(bits, out=None, scratch=None)``:
# the entries go into *out* (a new array when None; any float64 view of
# ``bits.shape``, e.g. a column slice of a larger block) and the
# temporaries come from *scratch* (see :mod:`repro.rng.scratch`), so the
# sampling loop reuses one set of chunk-sized buffers.  *bits* is never
# modified.


def _signed_low32(bits: np.ndarray, scratch: Scratch | None) -> np.ndarray:
    """The low 32 bits of each word as a signed integer (``int64``)."""
    sc = scratch if scratch is not None else Scratch()
    low = np.left_shift(bits, _32, out=sc.take("dist.u64", bits.shape,
                                                np.uint64))
    low = low.view(np.int64)
    low >>= np.int64(32)  # arithmetic shift sign-extends bit 31
    return low


def _bits_to_uniform(bits: np.ndarray, out: np.ndarray | None = None,
                     scratch: Scratch | None = None) -> np.ndarray:
    """Map uint64 bits to uniform(-1, 1): signed low 32 bits divided by 2^31."""
    return np.multiply(_signed_low32(bits, scratch), _INV_TWO31, out=out)


def _bits_to_uniform_scaled(bits: np.ndarray, out: np.ndarray | None = None,
                            scratch: Scratch | None = None) -> np.ndarray:
    """The scaling trick: the raw signed 32-bit integers as float64.

    Callers must multiply the final product by ``post_scale = 2**-31``
    (equivalently, pre-scale ``A``); the integer-valued entries make the
    transform a plain dtype conversion.
    """
    return np.positive(_signed_low32(bits, scratch), out=out,
                       dtype=np.float64)


def _bits_to_rademacher(bits: np.ndarray, out: np.ndarray | None = None,
                        scratch: Scratch | None = None) -> np.ndarray:
    """Map uint64 bits to {-1.0, +1.0} from a single bit.

    Bit 33 is used rather than bit 0 because the low bits of some
    multiplicative generators are the weakest; for Philox/xoshiro** any bit
    is fine, so the choice is just a fixed convention.
    """
    sc = scratch if scratch is not None else Scratch()
    sign_bit = np.right_shift(bits, np.uint64(33),
                              out=sc.take("dist.u64", bits.shape, np.uint64))
    sign_bit &= np.uint64(1)
    out = np.multiply(sign_bit, 2.0, out=out)
    out -= 1.0
    return out


def _bits_to_gaussian(bits: np.ndarray, out: np.ndarray | None = None,
                      scratch: Scratch | None = None) -> np.ndarray:
    """Map uint64 bits to N(0, 1) via Box–Muller on the two 32-bit halves.

    ``u1`` is offset by half an ulp so it is strictly positive (the log is
    finite); each 64-bit word yields exactly one normal deviate, keeping the
    sample-count bookkeeping identical across distributions.

    The transcendentals go through :mod:`repro.rng.detmath` rather than
    libm so the bits→sample map is a platform-independent pure function:
    NumPy's SIMD float64 ``log`` differs from scalar libm by 1 ulp on some
    hosts, which would break the bit-identity contract.
    """
    sc = scratch if scratch is not None else Scratch()
    u1 = np.right_shift(bits, _32, out=sc.take("gauss.u1", bits.shape))
    u1 += 0.5
    u1 *= _INV_TWO32
    u2 = np.bitwise_and(bits, _LO32, out=sc.take("gauss.u2", bits.shape))
    u2 += 0.5
    u2 *= _INV_TWO32
    radius = det_log(u1, out=u1, scratch=sc)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    return np.multiply(radius, det_cos_2pi(u2, out=u2, scratch=sc), out=out)


@dataclass(frozen=True)
class Distribution:
    """A named transform from raw ``uint64`` bits to sketch entries.

    Attributes
    ----------
    name:
        Registry key (``"uniform"``, ``"rademacher"``, …).
    transform:
        Elementwise map ``uint64 ndarray -> float64 ndarray``, called as
        ``transform(bits, out=None, scratch=None)``.
    variance:
        Variance of one entry *after* ``post_scale`` is applied; used to
        normalize sketches (``S / sqrt(d * variance)`` has unit expected
        column norms).
    h_factor:
        Relative cost of generating one entry, with the plain uniform
        transform as 1.0.  Feeds the paper's ``h`` parameter in the
        roofline model (Section III-A); calibrated defaults reflect the
        transform arithmetic (Gaussian pays log/sqrt/cos, the scaling trick
        and +-1 are cheaper than the divide).
    post_scale:
        Scalar the *product* must be multiplied by; 1.0 except for the
        scaling trick.
    bits_per_entry:
        Storage width the paper attributes to the entry type (Figure 4
        notes +-1 can use 8-bit integers); used by memory accounting for
        pre-generated sketches.
    """

    name: str
    transform: Callable[[np.ndarray], np.ndarray]
    variance: float
    h_factor: float
    post_scale: float = 1.0
    bits_per_entry: int = 32

    def sample_from_bits(self, bits: np.ndarray,
                         out: np.ndarray | None = None,
                         scratch: Scratch | None = None) -> np.ndarray:
        """Apply the transform to an array of raw bits (into *out* if given)."""
        return self.transform(bits, out=out, scratch=scratch)

    def normalization(self, d: int) -> float:
        """Factor making a ``d``-row sketch an (approximate) isometry.

        Scaling ``S`` by ``1 / sqrt(d * variance)`` gives
        ``E[||S x||^2] = ||x||^2``.
        """
        if d <= 0:
            raise ConfigError(f"sketch size d must be positive, got {d}")
        return 1.0 / float(np.sqrt(d * self.variance))


UNIFORM = Distribution(
    name="uniform",
    transform=_bits_to_uniform,
    variance=1.0 / 3.0,
    h_factor=1.0,
    bits_per_entry=32,
)

UNIFORM_SCALED = Distribution(
    name="uniform_scaled",
    transform=_bits_to_uniform_scaled,
    variance=1.0 / 3.0,  # after post_scale
    h_factor=0.75,
    post_scale=2.0**-31,
    bits_per_entry=32,
)

RADEMACHER = Distribution(
    name="rademacher",
    transform=_bits_to_rademacher,
    variance=1.0,
    h_factor=0.6,
    bits_per_entry=8,
)

GAUSSIAN = Distribution(
    name="gaussian",
    transform=_bits_to_gaussian,
    variance=1.0,
    h_factor=8.0,
    bits_per_entry=32,
)

DISTRIBUTIONS: Dict[str, Distribution] = {
    d.name: d for d in (UNIFORM, UNIFORM_SCALED, RADEMACHER, GAUSSIAN)
}


def get_distribution(name: str | Distribution) -> Distribution:
    """Look up a distribution by name (pass-through for instances)."""
    if isinstance(name, Distribution):
        return name
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown distribution {name!r}; available: {sorted(DISTRIBUTIONS)}"
        ) from None
