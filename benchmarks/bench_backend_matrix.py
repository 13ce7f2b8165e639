"""Backend performance matrix and regression gate.

Measures every available kernel backend (``numpy``) across the
kernel x distribution grid and records median
effective bandwidth (GB/s) and generation throughput (samples/s) per
cell.  Two consumers:

* ``pytest benchmarks/ --benchmark-only`` — prints the matrix next to the
  other paper tables;
* ``make bench-gate`` (``python benchmarks/bench_backend_matrix.py``) —
  re-measures, compares each cell against the committed
  ``BENCH_backend.json``, and exits non-zero if any cell regressed by
  more than the tolerance (the ``backend_gbs`` per-metric tolerance from
  ``summarize_reports.py``, or ``--tolerance``).

Neither path rewrites the baseline: a gate that refreshed it on every
pass would let slow drift ratchet it down unnoticed.  Re-record it
deliberately with ``python benchmarks/bench_backend_matrix.py --record``.

"Effective bytes" follows the paper's traffic accounting for the
on-the-fly kernels: the sparse operand (values + indices) plus the
output, plus one word per generated sample that never touches memory —
``8 * (d*nnz + nnz + d*n)`` — so backends are compared on identical
work, not on how much scratch they happen to stream.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from _harness import REPEATS, drift, emit_report, record_or_gate

from repro.kernels import available_backends
from repro.kernels.blocking import sketch_spmm
from repro.rng import make_rng
from repro.sparse import random_sparse

from summarize_reports import gate_tolerance

GATE_PATH = Path(__file__).parent / "reports" / "BENCH_backend.json"
DEFAULT_TOLERANCE = gate_tolerance("backend_gbs")

KERNELS = ("algo3", "algo4")
DISTS = ("uniform", "rademacher", "gaussian")
RNG_KIND = "xoshiro"          # fastest family
GAMMA = 3

# Table-II-style synthetic problem (m, n, density); override for quick
# local smoke runs, e.g. REPRO_BENCH_GATE_DIMS="4096,64,0.01".
_DIMS = os.environ.get("REPRO_BENCH_GATE_DIMS", "262144,256,1e-3").split(",")
GATE_M, GATE_N, GATE_DENSITY = int(_DIMS[0]), int(_DIMS[1]), float(_DIMS[2])


def _effective_bytes(d: int, n: int, nnz: int) -> float:
    """Comparable work volume per sketch (see module docstring)."""
    return 8.0 * (float(d) * nnz + nnz + float(d) * n)


def measure_backend_matrix(repeats: int = REPEATS) -> dict:
    """Run the full backend x kernel x distribution grid once.

    Returns a JSON-ready dict: ``entries["kernel/backend/dist"]`` holds
    median seconds, GB/s, and samples/s.  The process's sampling
    scratch is reused across cells, so later cells measure steady-state
    throughput — the quantity the gate must keep stable.
    """
    A = random_sparse(GATE_M, GATE_N, GATE_DENSITY, seed=0)
    m, n = A.shape
    d = GAMMA * n
    work_bytes = _effective_bytes(d, n, A.nnz)
    entries: dict[str, dict] = {}
    for backend in available_backends():
        for dist in DISTS:
            for kernel in KERNELS:
                times = []
                samples = 0
                for _ in range(max(1, repeats)):
                    rng = make_rng(RNG_KIND, 0, dist)
                    t0 = time.perf_counter()
                    _, stats = sketch_spmm(A, d, rng, kernel=kernel)
                    times.append(time.perf_counter() - t0)
                    samples = stats.samples_generated
                secs = statistics.median(times)
                entries[f"{kernel}/{backend}/{dist}"] = {
                    "kernel": kernel,
                    "backend": backend,
                    "distribution": dist,
                    "seconds": secs,
                    "gbs": work_bytes / secs / 1e9,
                    "samples_per_second": samples / secs,
                }
    return {
        "matrix": f"synthetic({GATE_M}x{GATE_N}, rho={GATE_DENSITY})",
        "shape": [m, n],
        "nnz": A.nnz,
        "d": d,
        "rng": RNG_KIND,
        "repeats": max(1, repeats),
        "backends": list(available_backends()),
        "entries": entries,
    }


def compare_to_baseline(baseline: dict, current: dict,
                        tolerance: float) -> list[str]:
    """Per-cell regression check; returns human-readable failure lines.

    Only cells present in both runs are compared.
    """
    failures = []
    base_entries = baseline.get("entries", {})
    for key, cur in current["entries"].items():
        base = base_entries.get(key)
        if base is not None:
            failures += drift(f"{key}:", cur["gbs"],
                              base["gbs"] * (1.0 - tolerance), base["gbs"],
                              tolerance, fmt="{:.3f}", unit=" GB/s")
    return failures


def _report_rows(payload: dict) -> list[list]:
    return [[e["kernel"], e["backend"], e["distribution"],
             round(e["seconds"], 5), round(e["gbs"], 3),
             f"{e['samples_per_second']:.3g}"]
            for e in payload["entries"].values()]


def test_backend_matrix_report(benchmark):
    payload = benchmark.pedantic(measure_backend_matrix, rounds=1,
                                 iterations=1)
    entries = payload["entries"]
    emit_report(
        "backend_matrix",
        "Kernel backend matrix (median effective GB/s, samples/s)",
        ["kernel", "backend", "dist", "seconds", "GB/s", "samples/s"],
        _report_rows(payload),
    )
    assert all(e["gbs"] > 0 for e in entries.values())


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Backend perf-regression gate (compare against the "
                    "committed BENCH_backend.json)")
    parser.add_argument("--baseline", default=str(GATE_PATH),
                        help="baseline JSON to gate against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional GB/s drop per cell "
                             "(default: the backend_gbs per-metric "
                             "tolerance; see summarize_reports.py)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--record", action="store_true",
                        help="write this run to the baseline file instead "
                             "of gating against it")
    args = parser.parse_args()

    current = measure_backend_matrix(args.repeats)
    for row in _report_rows(current):
        print("  ".join(str(c) for c in row))
    record_or_gate(
        "bench-gate", current, Path(args.baseline), args.record,
        lambda base: compare_to_baseline(base, current, args.tolerance),
        f"OK ({len(current['entries'])} cells, tolerance "
        f"{args.tolerance:.0%})")
