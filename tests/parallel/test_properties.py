"""Property-based tests (hypothesis) for the parallel substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import iter_block_tasks
from repro.parallel import bandwidth_at
from repro.model import FRONTERA


@st.composite
def task_grids(draw):
    d = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=40))
    b_d = draw(st.integers(min_value=1, max_value=12))
    b_n = draw(st.integers(min_value=1, max_value=12))
    return d, n, b_d, b_n


class TestTaskGridProperties:
    @given(task_grids())
    @settings(max_examples=50)
    def test_tasks_tile_output_exactly(self, grid):
        d, n, b_d, b_n = grid
        cover = np.zeros((d, n), dtype=int)
        for i, d1, j, n1 in iter_block_tasks(d, n, b_d, b_n):
            assert 1 <= d1 <= b_d and 1 <= n1 <= b_n
            cover[i:i + d1, j:j + n1] += 1
        assert np.all(cover == 1)


class TestBandwidthProperties:
    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=50)
    def test_bandwidth_monotone_and_capped(self, p):
        bw = bandwidth_at(FRONTERA, p)
        assert 0 < bw <= FRONTERA.bandwidth_gbs * 1e9 + 1e-6
        assert bandwidth_at(FRONTERA, p + 1) >= bw - 1e-6
