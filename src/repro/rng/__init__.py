"""Random-number-generation substrate for on-the-fly sketching.

Implements the paper's two generator families — counter-based (Philox,
Section IV-B1) and checkpointed XOR-shift (xoshiro256**, Section IV-B2) —
behind the block-addressed :class:`SketchingRNG` interface that Algorithms
3 and 4 consume, together with the entry distributions of Section III-C
and the RNG-vs-bandwidth probes of Section V-A.
"""

from .base import (
    JunkRNG,
    PhiloxSketchRNG,
    SketchingRNG,
    ThreefrySketchRNG,
    XoshiroSketchRNG,
    make_rng,
)
from .batched import BatchedSketchRNG, make_batched_rng
from .benchmark import RngProbe, estimate_h, rng_sample_rate, stream_copy_bandwidth
from .detmath import det_cos_2pi, det_log
from .distributions import (
    DISTRIBUTIONS,
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    UNIFORM_SCALED,
    Distribution,
    get_distribution,
)
from .philox import philox4x32, philox_uint64
from .splitmix import mix_key, splitmix64, splitmix64_stream
from .threefry import key_pair_from_seed, threefry2x64, threefry_uint64
from .xoshiro import checkpoint_bits, seed_states, xoshiro_next

__all__ = [
    "JunkRNG",
    "PhiloxSketchRNG",
    "ThreefrySketchRNG",
    "SketchingRNG",
    "XoshiroSketchRNG",
    "make_rng",
    "BatchedSketchRNG",
    "make_batched_rng",
    "RngProbe",
    "estimate_h",
    "rng_sample_rate",
    "stream_copy_bandwidth",
    "det_cos_2pi",
    "det_log",
    "DISTRIBUTIONS",
    "GAUSSIAN",
    "RADEMACHER",
    "UNIFORM",
    "UNIFORM_SCALED",
    "Distribution",
    "get_distribution",
    "philox4x32",
    "philox_uint64",
    "key_pair_from_seed",
    "threefry2x64",
    "threefry_uint64",
    "mix_key",
    "splitmix64",
    "splitmix64_stream",
    "checkpoint_bits",
    "seed_states",
    "xoshiro_next",
]
