"""The sampler writes the panel in the layout the kernels' apply reads.

``column_block_batch`` returns ``(d1, g)`` and ``column_block_stack``
``(k, d1, g)``, but both are views of a C-ordered panel with one row per
column of ``S``: ``(g, d1)`` and ``(g, k, d1)``.  The kernels move the
last axis to the front and hand the result to ``csr_matvecs`` with no
copy, so that view must be C-contiguous.  The values are those of an
independent single-member call, and the sample counts are those of
``k`` such calls.
"""

import numpy as np
import pytest

from repro.rng.base import make_rng
from repro.rng.batched import make_batched_rng

FAMILIES = ("philox", "threefry", "xoshiro")
SEEDS = (3, 14, 15)
JS = np.array([7, 0, 7, 130, 2, 41, 5, 999, 64], dtype=np.int64)


@pytest.mark.parametrize("d1", [1, 33, 200])
@pytest.mark.parametrize("dist", ["uniform", "rademacher", "gaussian"])
@pytest.mark.parametrize("family", FAMILIES)
class TestPanelLayout:
    def test_single_panel_is_apply_layout(self, family, dist, d1):
        V = make_rng(family, 9, dist).column_block_batch(4, d1, JS)
        assert V.shape == (d1, JS.size)
        assert np.moveaxis(V, -1, 0).flags.c_contiguous
        for t, j in enumerate(JS):
            assert np.array_equal(
                V[:, t], make_rng(family, 9, dist).column_block(4, d1, j))

    def test_stack_panel_is_apply_layout(self, family, dist, d1):
        brng = make_batched_rng(family, SEEDS, dist)
        V = brng.column_block_stack(4, d1, JS)
        assert V.shape == (len(SEEDS), d1, JS.size)
        assert np.moveaxis(V, -1, 0).flags.c_contiguous
        for t, seed in enumerate(SEEDS):
            solo = make_rng(family, seed, dist).column_block_batch(4, d1, JS)
            assert np.array_equal(V[t], solo)
        for m in brng.members:
            assert m.samples_generated == d1 * JS.size
        assert brng.samples_generated == len(SEEDS) * d1 * JS.size


def test_junk_panel_is_apply_layout():
    rng = make_rng("junk", 0)
    V = rng.column_block_batch(2, 5, JS)
    assert np.moveaxis(V, -1, 0).flags.c_contiguous
    rows = np.arange(2, 7)[:, None]
    assert np.array_equal(V, ((rows + 3 * JS[None, :]) % 7 - 3) / 3.0)
    assert rng.samples_generated == 5 * JS.size
