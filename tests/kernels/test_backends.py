"""Tests for repro.kernels.backends — registry, workspace, stats surface.

* registry semantics (lookup, singletons, instance pass-through);
* workspace reuse must not change results;
* every entry point records the backend that ran.
"""

import numpy as np
import pytest

from repro.core import SketchConfig, sketch
from repro.errors import ConfigError
from repro.kernels.backends import (
    KernelWorkspace,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.kernels.blocking import sketch_spmm
from repro.plan import Planner, Runtime
from repro.rng.base import make_rng
from repro.sparse import CSCMatrix, random_sparse


def _matrix_with_empty_columns(seed: int = 3) -> CSCMatrix:
    """A sparse test matrix whose pattern includes fully empty columns."""
    A = random_sparse(90, 24, 0.08, seed=seed)
    dense = A.to_dense()
    dense[:, 5] = 0.0
    dense[:, 23] = 0.0
    dense[40:60, :] = 0.0     # empty rows for the blocked-CSR path
    return CSCMatrix.from_dense(dense)


class TestRegistry:
    def test_registered_and_available(self):
        assert available_backends() == ["numpy"]

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_resolve_accepts_instance(self):
        be = get_backend("numpy")
        assert resolve_backend(be) is be

    def test_resolve_auto_is_numpy(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("auto").name == "numpy"


class TestKernelWorkspace:
    def test_exact_shape_views_and_monotonic_growth(self):
        ws = KernelWorkspace()
        a = ws.get("x", (4, 8))
        assert a.shape == (4, 8) and a.dtype == np.float64
        b = ws.get("x", (2, 3))
        assert b.shape == (2, 3)
        big = ws.get("x", (16, 16))
        assert big.shape == (16, 16)
        # Shrinking again reuses the grown buffer (no reallocation).
        before = ws.nbytes
        ws.get("x", (1, 1))
        assert ws.nbytes == before

    def test_distinct_names_and_dtypes_do_not_alias(self):
        ws = KernelWorkspace()
        a = ws.get("a", (8,))
        b = ws.get("b", (8,))
        a[:] = 1.0
        b[:] = 2.0
        assert np.all(ws.get("a", (8,)) == 1.0)
        i = ws.get("a", (8,), dtype=np.int64)
        i[:] = 7
        assert np.all(ws.get("a", (8,)) == 1.0)

    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    @pytest.mark.parametrize("dist", ["uniform", "rademacher", "gaussian"])
    def test_workspace_reuse_is_bit_identical(self, kernel, dist):
        A = _matrix_with_empty_columns()
        ws = KernelWorkspace()
        base, _ = sketch_spmm(A, 48, make_rng("xoshiro", 5, dist),
                              kernel=kernel, b_d=16, b_n=7, backend="numpy")
        for _ in range(3):  # steady state: buffers already grown
            again, _ = sketch_spmm(A, 48, make_rng("xoshiro", 5, dist),
                                   kernel=kernel, b_d=16, b_n=7,
                                   backend="numpy", workspace=ws)
            assert np.array_equal(base, again)


class TestStatsSurface:
    def test_sketch_spmm_records_backend(self, tall_sparse):
        _, stats = sketch_spmm(tall_sparse, 80, make_rng("xoshiro", 0),
                               backend="numpy")
        assert stats.extra["backend"] == "numpy"

    def test_reference_path_reports_reference(self, small_sparse):
        _, stats = sketch_spmm(small_sparse, 25, make_rng("philox", 0),
                               reference=True)
        assert stats.extra["backend"] == "reference"

    def test_run_health_carries_backend(self, tall_sparse):
        from repro.parallel import ResilienceConfig

        cfg = SketchConfig(rng_kind="xoshiro", seed=0, kernel="algo3",
                           threads=2, backend="numpy",
                           resilience=ResilienceConfig())
        plan = Planner().compile(tall_sparse, cfg, d=80, driver="engine")
        stats = Runtime().run(plan, tall_sparse).stats
        assert stats.health is not None
        assert stats.health.backend == "numpy"
        assert "backend=numpy" in stats.health.summary()
        assert stats.health.as_dict()["backend"] == "numpy"

    def test_config_rejects_unregistered_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            SketchConfig(backend="cython")

    def test_sketch_backend_kwarg(self, tall_sparse):
        res = sketch(tall_sparse, gamma=2.0, backend="numpy")
        assert res.stats.extra["backend"] == "numpy"

    def test_cli_backend_flag(self, capsys):
        from repro.cli import main

        rc = main(["--json", "sketch", "--random", "200", "30", "0.05",
                   "--backend", "numpy"])
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "numpy"

    def test_cli_rejects_numba(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--random", "120", "20", "0.05",
                  "--backend", "numba"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
