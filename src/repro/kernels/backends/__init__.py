"""The kernel backend: the seam the hot loops are called through.

One backend ships, ``numpy``: :data:`NUMPY`, the
:class:`~repro.kernels.backends.numpy_backend.NumpyBackend` whose methods
run the vectorized kernels of :mod:`repro.kernels.algo3` and
:mod:`repro.kernels.algo4`.  Outside :func:`repro.kernels.sketch_spmm`'s
reference loop, every driver reaches them through one tile dispatch,
:func:`repro.kernels.blocking.compute_tile`.  Nothing selects a backend:
``NUMPY.name`` is the ``"backend"`` that plans, cache keys, checkpoint
fingerprints and run reports record.

Bit-identity contract: both kernels add into every output entry in the
order of their ``*_reference`` loops with a separate multiply and add, so
each equals :func:`algo3_block_reference` / :func:`algo4_block_reference`
bit for bit, for one sketch or a ``(k, d1, n1)`` stack
(``tests/kernels/test_compiled_apply.py``).
"""

from __future__ import annotations

from .numpy_backend import NUMPY, NumpyBackend

__all__ = ["NUMPY", "NumpyBackend", "available_backends"]


def available_backends() -> list[str]:
    """Names of the kernel backends, every one of which runs here."""
    return [NUMPY.name]
