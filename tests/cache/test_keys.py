"""Content-addressed key recipes: what must and must not share entries."""

import numpy as np

from repro.cache.artifacts import (
    blocked_csr_key,
    kernel_choice_key,
    tune_key,
)
from repro.cache.keys import (
    cache_key,
    machine_fingerprint,
    matrix_fingerprint,
    pattern_fingerprint,
)
from repro.sparse import CSCMatrix, random_sparse


def _same_pattern_different_values(A):
    """A matrix with A's exact sparsity structure but perturbed values."""
    return CSCMatrix(A.shape, A.indptr.copy(), A.indices.copy(),
                     A.data + 1.0)


class TestFingerprints:
    def test_deterministic(self, small_sparse):
        assert pattern_fingerprint(small_sparse) == \
            pattern_fingerprint(small_sparse)
        assert matrix_fingerprint(small_sparse) == \
            matrix_fingerprint(small_sparse)

    def test_pattern_ignores_values(self, small_sparse):
        twin = _same_pattern_different_values(small_sparse)
        assert pattern_fingerprint(twin) == pattern_fingerprint(small_sparse)

    def test_matrix_pins_values(self, small_sparse):
        """The blocked-CSR key recipe must distinguish same-pattern
        matrices — serving another matrix's blocks is a wrong answer."""
        twin = _same_pattern_different_values(small_sparse)
        assert matrix_fingerprint(twin) != matrix_fingerprint(small_sparse)

    def test_structure_changes_both(self, small_sparse):
        other = random_sparse(*small_sparse.shape, 0.1, seed=43)
        assert pattern_fingerprint(other) != pattern_fingerprint(small_sparse)
        assert matrix_fingerprint(other) != matrix_fingerprint(small_sparse)

    def test_machine_fingerprint_is_json_ready(self):
        import json

        from repro.model import LAPTOP

        record = machine_fingerprint(LAPTOP)
        json.dumps(record)  # must not raise
        assert record["model"]["name"] == LAPTOP.name
        assert "model" not in machine_fingerprint(None)


class TestKeyRecipes:
    def test_artifact_classes_never_collide(self):
        components = {"x": 1}
        keys = {cache_key(a, components)
                for a in ("tune", "kernel_choice", "blocked_csr")}
        assert len(keys) == 3

    def test_component_order_is_irrelevant(self):
        assert cache_key("tune", {"a": 1, "b": 2.5}) == \
            cache_key("tune", {"b": 2.5, "a": 1})

    def test_tune_key_tracks_every_input(self, small_sparse):
        base = dict(kernel="algo3", d=30, max_tuning_cols=16, repeats=1,
                    tuning_seed=0)
        ref = tune_key(small_sparse, **base)
        assert tune_key(small_sparse, **base) == ref
        for field, value in [("kernel", "algo4"), ("d", 31),
                             ("max_tuning_cols", 8), ("repeats", 2),
                             ("tuning_seed", 1)]:
            assert tune_key(small_sparse, **{**base, field: value}) != ref
        assert tune_key(small_sparse, **base,
                        candidates=[(4, 4)]) != ref

    def test_blocked_key_pins_values_and_width(self, small_sparse):
        twin = _same_pattern_different_values(small_sparse)
        assert blocked_csr_key(small_sparse, 8) != blocked_csr_key(twin, 8)
        assert blocked_csr_key(small_sparse, 8) != \
            blocked_csr_key(small_sparse, 16)

    def test_choice_key_shares_across_values(self, small_sparse):
        twin = _same_pattern_different_values(small_sparse)
        kw = dict(concentration_threshold=0.5)
        assert kernel_choice_key(small_sparse, **kw) == \
            kernel_choice_key(twin, **kw)
