"""repro — fast multiplication of random dense matrices with sparse matrices.

A from-scratch Python reproduction of the IPPS 2024 paper by Liang,
Murray, Buluc & Demmel: blocked sketching SpMM kernels with on-the-fly
random number generation (Algorithms 1/3/4), the counter-based and
checkpointed-XOR-shift generator families, the Section III roofline /
data-movement theory (including the sqrt(M) advantage over the GEMM
lower bound), the parallel-scaling model, and the sketch-and-precondition
least-squares pipeline with its LSQR-D and direct sparse QR baselines.

Quickstart::

    import repro

    A = repro.random_sparse(100_000, 1_000, 5e-4, seed=0)   # tall sparse
    result = repro.sketch(A, gamma=3.0)                      # Ahat = S A
    sol = repro.solve_sap(A, b)                              # least squares

Subpackages
-----------
``repro.sparse``   from-scratch COO/CSC/CSR/blocked-CSR + generators
``repro.rng``      Philox & xoshiro sketch generators, distributions
``repro.kernels``  Algorithms 1/3/4, loop-order variants, baselines
``repro.model``    roofline theory, block-size optimizer, cache simulator
``repro.parallel`` thread-pool executor, resilience policies, scaling model
``repro.faults``   deterministic fault-injection plans for robustness tests
``repro.plan``     SketchPlan / Planner / Runtime plan-compile-execute layer
``repro.cache``    content-addressed artifact cache for repeated-A sketching
``repro.core``     public sketch API and distortion diagnostics
``repro.lsq``      LSQR, preconditioners, SAP, direct sparse QR
``repro.workloads`` surrogate suites for the paper's test matrices
"""

from .cache import ArtifactCache, CachePolicy
from .core import (
    SketchConfig,
    SketchOperator,
    SketchResult,
    effective_distortion,
    predicted_condition_bound,
    predicted_distortion,
    sketch,
    sketch_distortion,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FormatError,
    ReproError,
    RetryExhaustedError,
    ShapeError,
    SingularMatrixError,
    SketchQualityError,
    TaskFailedError,
    TaskTimeoutError,
)
from .faults import FaultInjector, FaultPlan, FaultSpec, InjectedFaultError
from .kernels import KernelStats, choose_kernel, sketch_spmm
from .lsq import (
    LstsqSolution,
    error_metric,
    lsqr,
    solve_direct_qr,
    solve_lsqr_diag,
    solve_sap,
)
from .model import FRONTERA, LAPTOP, PERLMUTTER, MachineModel
from .plan import (
    EventBus,
    PersistencePolicy,
    Planner,
    Runtime,
    SketchPlan,
    compile_plan,
)
from .parallel import (
    DegradationPolicy,
    ResilienceConfig,
    RunHealth,
)
from .rng import PhiloxSketchRNG, SketchingRNG, XoshiroSketchRNG, make_rng
from .sparse import (
    BlockedCSR,
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    csc_to_blocked_csr,
    random_sparse,
    read_matrix_market,
    write_matrix_market,
)

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "CachePolicy",
    "SketchConfig",
    "SketchOperator",
    "SketchResult",
    "effective_distortion",
    "predicted_condition_bound",
    "predicted_distortion",
    "sketch",
    "sketch_distortion",
    "ConfigError",
    "ConvergenceError",
    "FormatError",
    "ReproError",
    "RetryExhaustedError",
    "ShapeError",
    "SingularMatrixError",
    "SketchQualityError",
    "TaskFailedError",
    "TaskTimeoutError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "KernelStats",
    "choose_kernel",
    "sketch_spmm",
    "LstsqSolution",
    "error_metric",
    "lsqr",
    "solve_direct_qr",
    "solve_lsqr_diag",
    "solve_sap",
    "FRONTERA",
    "LAPTOP",
    "PERLMUTTER",
    "MachineModel",
    "EventBus",
    "PersistencePolicy",
    "Planner",
    "Runtime",
    "SketchPlan",
    "compile_plan",
    "DegradationPolicy",
    "ResilienceConfig",
    "RunHealth",
    "PhiloxSketchRNG",
    "SketchingRNG",
    "XoshiroSketchRNG",
    "make_rng",
    "BlockedCSR",
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "csc_to_blocked_csr",
    "random_sparse",
    "read_matrix_market",
    "write_matrix_market",
    "__version__",
]
