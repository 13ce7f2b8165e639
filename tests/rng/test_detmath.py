"""The vectorized ``detmath`` functions against their scalar oracles.

``det_log`` and ``det_cos_2pi`` (and through them the ``gaussian``
transform) must produce exactly the bits of the plain-Python
``*_reference`` functions in :mod:`repro.rng.detmath`, which spell the
same fdlibm operation sequences one scalar at a time.
"""

import numpy as np

from repro.rng.detmath import (
    det_cos_2pi,
    det_cos_2pi_reference,
    det_log,
    det_log_reference,
    gaussian_reference,
)
from repro.rng.distributions import _bits_to_gaussian
from repro.rng.splitmix import splitmix64


class TestTransformTwins:
    def _bits(self):
        # Edge patterns plus a pseudo-random spread of both 32-bit halves.
        fixed = np.array([0, 1, 2**31, 2**32 - 1, 2**63, 2**64 - 1,
                          0x8000000080000000, 0x7FFFFFFF7FFFFFFF],
                         dtype=np.uint64)
        spread = splitmix64(np.arange(500, dtype=np.uint64))
        return np.concatenate([fixed, spread])

    def test_gaussian(self):
        bits = self._bits()
        expected = _bits_to_gaussian(bits)
        got = np.array([gaussian_reference(b) for b in bits])
        assert np.array_equal(got, expected)


class TestDetmathTwins:
    def test_log_det_matches_vectorized(self):
        xs = np.concatenate([
            np.linspace(1e-12, 1.0 - 1e-12, 400),
            np.array([0.5, 0.25, 0.70710678, 1.0 - 2**-53]),
        ])
        expected = det_log(xs)
        got = np.array([det_log_reference(x) for x in xs])
        assert np.array_equal(got, expected)

    def test_cos_2pi_det_matches_vectorized(self):
        us = np.linspace(0.0, 1.0, 1001, endpoint=False)
        expected = det_cos_2pi(us)
        got = np.array([det_cos_2pi_reference(u) for u in us])
        assert np.array_equal(got, expected)
