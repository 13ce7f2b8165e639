"""Deterministic elementary functions for bit-reproducible transforms.

The Box–Muller transform needs ``log`` and ``cos``, and those are the only
two places where the realized sketch could depend on *which* libm serves
the call: NumPy dispatches float64 ``log`` to SIMD implementations on some
hosts (AVX-512 machines observably differ from scalar libm by 1 ulp), and
a scalar kernel would call scalar libm.  A sketch entry must be the *same
number* on every host and in every kernel — the whole backend contract
is bit-identity — so the Gaussian transform cannot call either library's
transcendentals.

This module provides the two functions as fixed sequences of exactly
rounded IEEE-754 operations (add/sub/mul/div/frexp/floor only), ported
from fdlibm's ``e_log.c`` / ``k_sin.c`` / ``k_cos.c``.  Any IEEE-754
double implementation — NumPy ufunc loops or plain Python floats —
produces identical bits, on every platform.  The scalar
``*_reference`` functions at the end spell the same sequences in plain
Python; they are the oracles the vectorized versions are tested against.
Accuracy is ~1–2 ulp of the true value, far below the statistical
resolution of any sketching use.

Domains are intentionally narrow (this is not a libm): :func:`det_log`
accepts positive normal finite doubles, :func:`det_cos_2pi` arguments in
``[0, 1)`` — exactly what Box–Muller on 32-bit uniforms produces.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .scratch import Scratch

__all__ = ["det_log", "det_cos_2pi", "det_log_reference",
           "det_cos_2pi_reference", "gaussian_reference"]

# fdlibm e_log.c constants: ln2 split hi/lo, Remez coefficients for
# log(1+f) on |f| <= sqrt(2)-1 via s = f/(2+f).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG1 = 6.666666666666735130e-01
_LG2 = 3.999999999940941908e-01
_LG3 = 2.857142874366239149e-01
_LG4 = 2.222219843214978396e-01
_LG5 = 1.818357216161805012e-01
_LG6 = 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01
_SQRT_HALF = 0.70710678118654752440

# fdlibm k_sin.c / k_cos.c kernel coefficients (|x| <= pi/4).
_S1 = -1.66666666666666324348e-01
_S2 = 8.33333333332248946124e-03
_S3 = -1.98412698298579493134e-04
_S4 = 2.75573137070700676789e-06
_S5 = -2.50507602534068634195e-08
_S6 = 1.58969099521155010221e-10
_C1 = 4.16666666666666019037e-02
_C2 = -1.38888888888741095749e-03
_C3 = 2.48015872894767294178e-05
_C4 = -2.75573143513906633035e-07
_C5 = 2.08757232129817482790e-09
_C6 = -1.13596475577881948265e-11
_PI_OVER_2 = 1.5707963267948966


def _series(x: np.ndarray, coeffs: tuple[float, ...],
            out: np.ndarray) -> np.ndarray:
    """``x * (c[0] + x * (c[1] + ... + x * c[-1]))`` in place, innermost first."""
    np.multiply(x, coeffs[-1], out=out)
    for c in reversed(coeffs[:-1]):
        out += c
        out *= x
    return out


def _set_where(flag: np.ndarray, dst: np.ndarray, src,
               tmp: np.ndarray) -> None:
    """``dst = src`` where *flag* is 1, on the float64 bit patterns.

    *flag* is a 0/1 ``uint64`` comparison result (overwritten with the
    0/all-ones select mask); *tmp* is a ``uint64`` scratch lane.  The
    bitwise select copies the chosen operand's bits exactly, as
    ``np.where`` does, but without a data-dependent branch: on a random
    condition ``np.where`` and masked ufunc loops cost ten times more.
    """
    np.negative(flag, out=flag)
    d = dst.view(np.uint64)
    np.bitwise_xor(d, np.asarray(src, dtype=np.float64).view(np.uint64),
                   out=tmp)
    tmp &= flag
    d ^= tmp


def det_log(x: np.ndarray, out: np.ndarray | None = None,
            scratch: Scratch | None = None) -> np.ndarray:
    """Natural log of positive normal doubles, bit-reproducible everywhere.

    fdlibm ``__ieee754_log`` general path: write ``x = m * 2^e`` with
    ``m`` in ``[sqrt(1/2), sqrt(2))`` (exact, via ``frexp``), then evaluate
    ``log(1+f)`` through the odd series in ``s = f/(2+f)``.  Every step is
    a single exactly rounded operation, so the result is a pure function
    of the input bits — independent of libm, SIMD width, or vectorization.
    The steps run in place on buffers from *scratch*; *out* may be *x*.
    :func:`det_log_reference` is the scalar oracle; tests assert the two
    agree exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    sc = scratch if scratch is not None else Scratch()
    buf = functools.partial(sc.take, shape=x.shape)
    m, e = np.frexp(x, out=(buf("log.m"), buf("log.e", dtype=np.intc)))
    low = np.less(m, _SQRT_HALF, out=buf("log.t"))
    dk = np.subtract(e, low, out=buf("log.dk"))
    m *= np.add(low, 1.0, out=low)  # below sqrt(1/2): m * 2 == m + m
    f = m
    f -= 1.0
    hfsq = np.multiply(f, 0.5, out=buf("log.hfsq"))
    hfsq *= f
    s = np.add(f, 2.0, out=buf("log.s"))
    np.divide(f, s, out=s)
    z = np.multiply(s, s, out=buf("log.z"))
    w = np.multiply(z, z, out=buf("log.w"))
    t1 = _series(w, (_LG2, _LG4, _LG6), out=low)
    r = _series(w, (_LG3, _LG5, _LG7), out=buf("log.r"))
    r += _LG1
    r *= z
    r += t1
    # dk*LN2_HI - ((hfsq - (s*(hfsq + r) + dk*LN2_LO)) - f)
    r += hfsq
    r *= s
    r += np.multiply(dk, _LN2_LO, out=t1)
    hfsq -= r
    hfsq -= f
    out = np.multiply(dk, _LN2_HI, out=out)
    out -= hfsq
    return out


def det_cos_2pi(u: np.ndarray, out: np.ndarray | None = None,
                scratch: Scratch | None = None) -> np.ndarray:
    """``cos(2*pi*u)`` for ``u`` in ``[0, 1)``, bit-reproducible everywhere.

    Quadrant reduction is exact: ``t = 4u`` (power-of-two scale),
    ``n = floor(t + 0.5)``, ``g = t - n`` in ``[-0.5, 0.5]`` — so the
    angle is ``(n + g) * pi/2`` and the kernel argument ``g * pi/2`` stays
    inside fdlibm's ``[-pi/4, pi/4]`` polynomial domain.  The quadrant
    ``n mod 4`` selects ``cos/-sin/-cos/sin`` of the kernel value: a
    bitwise pick of ``cos`` or ``sin`` by ``n & 1``, then a sign-bit flip
    for ``n mod 4`` in ``{1, 2}``.  *out* may be *u*.
    """
    u = np.asarray(u, dtype=np.float64)
    sc = scratch if scratch is not None else Scratch()
    buf = functools.partial(sc.take, shape=u.shape)
    theta = np.multiply(u, 4.0, out=buf("cos.theta"))
    n = np.add(theta, 0.5, out=buf("cos.n"))
    np.floor(n, out=n)
    theta -= n
    theta *= _PI_OVER_2
    z = np.multiply(theta, theta, out=buf("cos.z"))

    # k_sin, y=0 path: theta + (z*theta) * (S1 + z*(S2 + ... + z*S6)).
    sin_k = _series(z, (_S2, _S3, _S4, _S5, _S6), out=buf("cos.sin"))
    sin_k += _S1
    zr = np.multiply(z, theta, out=buf("cos.zr"))
    sin_k *= zr
    sin_k += theta

    # k_cos with the cancellation-avoiding qx correction:
    # qx = 0 below |theta| 0.3, 0.28125 above 0.78125, else |theta| / 4.
    zr = _series(z, (_C1, _C2, _C3, _C4, _C5, _C6), out=zr)
    zr *= z
    ax = np.abs(theta, out=theta)
    qx = np.multiply(ax, 0.25, out=buf("cos.qx"))
    flag = buf("cos.flag", dtype=np.uint64)
    tmp = buf("cos.tmp", dtype=np.uint64)
    _set_where(np.greater(ax, 0.78125, out=flag), qx, 0.28125, tmp)
    _set_where(np.less(ax, 0.3, out=flag), qx, 0.0, tmp)
    hz = np.multiply(z, 0.5, out=z)
    hz -= qx
    hz -= zr
    cos_k = np.subtract(1.0, qx, out=qx)
    cos_k -= hz

    q = buf("cos.q", dtype=np.uint64)
    q[...] = n
    _set_where(np.bitwise_and(q, np.uint64(1), out=flag), cos_k, sin_k, tmp)
    q += np.uint64(1)  # bit 1 of n + 1 is set for n mod 4 in {1, 2}
    q &= np.uint64(2)
    q <<= np.uint64(62)
    if out is None:
        out = np.empty(u.shape)
    np.bitwise_xor(cos_k.view(np.uint64), q, out=out.view(np.uint64))
    return out


# -- scalar oracles ----------------------------------------------------------


def det_log_reference(x: float) -> float:
    """Scalar :func:`det_log` of one positive normal ``x``, plain Python."""
    m, e = math.frexp(x)
    dk = float(e)
    if m < _SQRT_HALF:
        m = m + m
        dk = dk - 1.0
    f = m - 1.0
    hfsq = 0.5 * f * f
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    r = t2 + t1
    return dk * _LN2_HI - ((hfsq - (s * (hfsq + r) + dk * _LN2_LO)) - f)


def det_cos_2pi_reference(u: float) -> float:
    """Scalar :func:`det_cos_2pi` of one ``u`` in ``[0, 1)``, plain Python."""
    t = 4.0 * u
    n = math.floor(t + 0.5)
    theta = (t - n) * _PI_OVER_2
    z = theta * theta

    r_s = _S2 + z * (_S3 + z * (_S4 + z * (_S5 + z * _S6)))
    sin_k = theta + (z * theta) * (_S1 + z * r_s)

    r_c = z * (_C1 + z * (_C2 + z * (_C3 + z * (_C4 + z * (_C5 + z * _C6)))))
    ax = abs(theta)
    if ax < 0.3:
        qx = 0.0
    elif ax > 0.78125:
        qx = 0.28125
    else:
        qx = 0.25 * ax
    cos_k = (1.0 - qx) - ((0.5 * z - qx) - z * r_c)
    return (cos_k, -sin_k, -cos_k, sin_k)[n & 3]


def gaussian_reference(bits: int) -> float:
    """The ``gaussian`` transform of one 64-bit word (Box–Muller on halves)."""
    bits = int(bits)
    u1 = ((bits >> 32) + 0.5) / 4294967296.0
    u2 = ((bits & 0xFFFFFFFF) + 0.5) / 4294967296.0
    return math.sqrt(-2.0 * det_log_reference(u1)) * det_cos_2pi_reference(u2)
