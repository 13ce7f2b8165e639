"""Tests for repro.model.bn_tuner (the Section III-B b_n tuning sentence)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.model import FRONTERA, PERLMUTTER
from repro.model.bn_tuner import BnChoice, rng_volume_curve, tune_bn
from repro.sparse import abnormal_a, abnormal_c, banded_sparse, random_sparse


class TestRngVolumeCurve:
    def test_monotone_non_increasing(self):
        A = random_sparse(200, 60, 0.05, seed=1801)
        curve = rng_volume_curve(A, 20, [1, 2, 4, 8, 16, 32, 60])
        vols = [v for _, v in curve]
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_bn_one_equals_algo3_volume(self):
        A = random_sparse(150, 40, 0.08, seed=1802)
        curve = rng_volume_curve(A, 15, [1])
        assert curve[0][1] == 15 * A.nnz

    def test_matches_kernel_counter(self):
        from repro.kernels import algo4_block, sketch_spmm
        from repro.rng import PhiloxSketchRNG
        from repro.sparse import csc_to_blocked_csr

        A = random_sparse(120, 36, 0.1, seed=1803)
        d, b_n = 12, 9
        (_, vol), = rng_volume_curve(A, d, [b_n])
        # The model is the paper's per-block algorithm: one algo4_block
        # call per block, each with a fresh generator.
        B, _ = csc_to_blocked_csr(A, b_n)
        per_block = []
        for blk in B.blocks:
            rng = PhiloxSketchRNG(0)
            algo4_block(np.zeros((d, blk.shape[1])), blk, 0, rng)
            per_block.append(rng.samples_generated)
        assert sum(per_block) == vol
        # A plan-order run reuses each panel's rows in the next block.
        _, stats = sketch_spmm(A, d, PhiloxSketchRNG(0), kernel="algo4",
                               b_d=d, b_n=b_n)
        prev, new_rows = set(), 0
        for blk in B.blocks:
            js = set(blk.nonempty_rows().tolist())
            new_rows += len(js - prev)
            prev = js or prev
        assert stats.samples_generated == d * new_rows
        assert stats.samples_generated <= vol

    def test_pattern_signatures(self):
        """Abnormal_A's curve collapses immediately; Abnormal_C's stays flat
        relative to its nnz — the Table VI fingerprint."""
        d = 10
        Aa = abnormal_a(400, 100, period=40, seed=1)
        Ac = abnormal_c(100, 400, period=40, seed=2)
        curve_a = dict(rng_volume_curve(Aa, d, [1, 50]))
        curve_c = dict(rng_volume_curve(Ac, d, [1, 50]))
        drop_a = curve_a[50] / curve_a[1]
        drop_c = curve_c[50] / curve_c[1]
        assert drop_a < 0.1       # dense rows: massive reuse from width
        assert drop_c >= 0.8      # dense cols: width buys only the
        #                           ceil(n/b_n)/#dense-cols sliver

    def test_validation(self):
        A = random_sparse(10, 5, 0.3, seed=3)
        with pytest.raises(ConfigError):
            rng_volume_curve(A, 0, [1])
        with pytest.raises(ConfigError):
            rng_volume_curve(A, 2, [0])


class TestTuneBn:
    def test_returns_feasible_choice(self):
        A = random_sparse(300, 80, 0.04, seed=1804)
        choice = tune_bn(A, 40, FRONTERA)
        assert isinstance(choice, BnChoice)
        assert 1 <= choice.b_n <= 80
        assert choice.rng_entries > 0
        assert len(choice.curve) >= 2
        assert "b_n" in choice.describe()

    def test_banded_prefers_wider_blocks_than_scattered(self):
        """Band-structured matrices reward width (row reuse across
        neighbouring columns); uniformly scattered ones reward it less per
        unit of cache spent."""
        d = 30
        banded = banded_sparse(600, 120, 0.05, bandwidth_frac=0.03, seed=5)
        choice_banded = tune_bn(banded, d, PERLMUTTER)
        # Width must pay off on the banded pattern.
        vol_at_1 = dict((b, v) for b, v, _ in choice_banded.curve)[1]
        assert choice_banded.rng_entries < 0.7 * vol_at_1

    def test_cache_constraint_respected(self):
        from repro.model.machine import MachineModel

        tiny = MachineModel(
            name="tiny", cache_bytes=64 * 1024, peak_gflops=10.0,
            bandwidth_gbs=5.0, h_base=0.5, random_access_penalty=1.5,
            cores=2, bandwidth_saturation_threads=1,
        )
        A = random_sparse(500, 200, 0.02, seed=6)
        choice = tune_bn(A, 400, tiny, b_d=400)
        assert 400 * choice.b_n <= tiny.cache_words // 2

    def test_explicit_candidates(self):
        A = random_sparse(100, 30, 0.1, seed=7)
        choice = tune_bn(A, 20, FRONTERA, bn_values=[3, 30])
        assert choice.b_n in (3, 30)

    def test_empty_candidates_rejected(self):
        A = random_sparse(10, 5, 0.3, seed=8)
        with pytest.raises(ConfigError):
            tune_bn(A, 4, FRONTERA, bn_values=[])
