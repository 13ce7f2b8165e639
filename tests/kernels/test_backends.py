"""Tests for repro.kernels.backends — the one backend, reuse, stats surface.

* ``numpy`` is the one backend, and nothing can select another;
* reused per-thread scratch must not change results;
* every entry point records the backend that ran.
"""

import numpy as np
import pytest

from repro.core import SketchConfig, sketch
from repro.kernels.backends import available_backends
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


class TestKernelWorkspace:
    """Kernels keep no scratch of their own; what calls reuse is each
    thread's sampling scratch and Algorithm 4's memoized patterns."""

    @pytest.mark.parametrize("kernel", ["algo3", "algo4"])
    @pytest.mark.parametrize("dist", ["uniform", "rademacher", "gaussian"])
    def test_workspace_reuse_is_bit_identical(self, kernel, dist):
        A = _matrix_with_empty_columns()
        base, _ = sketch_spmm(A, 48, make_rng("xoshiro", 5, dist),
                              kernel=kernel, b_d=16, b_n=7)
        for _ in range(3):  # steady state: buffers already grown
            again, _ = sketch_spmm(A, 48, make_rng("xoshiro", 5, dist),
                                   kernel=kernel, b_d=16, b_n=7)
            assert np.array_equal(base, again)


class TestStatsSurface:
    def test_sketch_spmm_records_backend(self, tall_sparse):
        _, stats = sketch_spmm(tall_sparse, 80, make_rng("xoshiro", 0))
        assert stats.extra["backend"] == "numpy"

    def test_reference_path_reports_reference(self, small_sparse):
        _, stats = sketch_spmm(small_sparse, 25, make_rng("philox", 0),
                               reference=True)
        assert stats.extra["backend"] == "reference"

    def test_run_health_carries_backend(self, tall_sparse):
        from repro.parallel import ResilienceConfig

        cfg = SketchConfig(rng_kind="xoshiro", seed=0, kernel="algo3",
                           threads=2, resilience=ResilienceConfig())
        plan = Planner().compile(tall_sparse, cfg, d=80, driver="engine")
        stats = Runtime().run(plan, tall_sparse).stats
        assert stats.health is not None
        assert stats.health.backend == "numpy"
        assert "backend=numpy" in stats.health.summary()
        assert stats.health.as_dict()["backend"] == "numpy"

    def test_config_rejects_unregistered_backend(self):
        # No name is registered: SketchConfig has no backend setting.
        for name in ("cython", "numpy", "auto"):
            with pytest.raises(TypeError, match="backend"):
                SketchConfig(backend=name)

    def test_sketch_backend_kwarg(self, tall_sparse):
        res = sketch(tall_sparse, gamma=2.0)
        assert res.stats.extra["backend"] == "numpy"
        with pytest.raises(TypeError, match="backend"):
            sketch(tall_sparse, gamma=2.0, backend="numpy")

    def test_cli_backend_flag(self, capsys):
        import json

        from repro.cli import main

        rc = main(["--json", "sketch", "--random", "200", "30", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "numpy"
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--random", "120", "20", "0.05",
                  "--backend", "numpy"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_rejects_numba(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--random", "120", "20", "0.05",
                  "--backend", "numba"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
