"""Batched multi-sketch throughput matrix and regression gate.

Measures the batched kernel tier (:func:`repro.kernels.sketch_spmm` with a
batched generator) against ``k`` independent :func:`~repro.kernels.sketch_spmm` runs of the
same matrix — the "fixed A, many sketches" hot path that request
coalescing in ``repro serve`` rides on.  For every kernel x RNG-family
cell it records both wall times, the throughput ratio, and verifies the
batched stack is *bit-identical* slice-by-slice to the independent runs
(the batched tier's core contract).

Two consumers:

* ``pytest benchmarks/ --benchmark-only`` — prints the matrix;
* ``make batch-smoke`` (``python benchmarks/bench_batch_matrix.py``) —
  re-measures and fails when any cell that met the 1.5x bar in the
  committed baseline drops below it (minus the noise tolerance), or when
  bit-identity breaks.

Neither path rewrites the baseline; re-record it deliberately with
``python benchmarks/bench_batch_matrix.py --record``.

The headline number is the *best* cell's ratio: the batching win is an
amortization of A's traversal, so its magnitude varies by kernel/family,
but at k=8 the well-suited cells sustain >= 1.5x — that floor is the
gate.

Each batch member samples its own sketch, so only the apply is shared.
With ``f`` the sample share of the sequential runs and ``c`` the apply
sharing factor (the sequential runs' apply seconds over the batched
run's), the ratio is at most ``1 / (f + (1 - f) / c)``; every cell
records and prints that ceiling next to its ratio.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from _harness import REPEATS, drift, emit_report, record_or_gate, shape_check

from repro.kernels.blocking import sketch_spmm
from repro.rng import make_rng
from repro.rng.batched import make_batched_rng
from repro.sparse import random_sparse

from summarize_reports import gate_tolerance

GATE_PATH = Path(__file__).parent / "reports" / "BENCH_batch.json"
DEFAULT_TOLERANCE = gate_tolerance("batch_ratio")

#: The acceptance floor: at k=8 a gated cell must sustain at least this
#: multiple of the sequential (k independent runs) throughput.
TARGET_RATIO = 1.5

KERNELS = ("algo3", "algo4")
RNG_KINDS = ("philox", "threefry")
SEEDS = tuple(range(101, 109))          # k = 8
GAMMA_D = 256
B_D = 64
B_N = 100

_DIMS = os.environ.get("REPRO_BENCH_BATCH_DIMS", "3000,600,0.01").split(",")
BATCH_M, BATCH_N, BATCH_DENSITY = int(_DIMS[0]), int(_DIMS[1]), float(_DIMS[2])


def measure_batch_matrix(repeats: int = REPEATS) -> dict:
    """Time sequential vs batched sketching for every cell.

    Returns a JSON-ready dict whose ``entries["kernel/rng"]`` hold both
    wall times (best-of-*repeats*), the ratio, and the bit-identity
    verdict.  The numpy backend is measured — it is the only one
    guaranteed present, and the committed baseline must gate every CI
    host.
    """
    A = random_sparse(BATCH_M, BATCH_N, BATCH_DENSITY, seed=0)
    d = GAMMA_D
    entries: dict[str, dict] = {}
    for kernel in KERNELS:
        for rng_kind in RNG_KINDS:
            seq_best = float("inf")
            solo = None
            for _ in range(max(1, repeats)):
                outs = []
                sample = apply = 0.0
                t0 = time.perf_counter()
                for seed in SEEDS:
                    rng = make_rng(rng_kind, seed, "uniform")
                    Ahat, stats = sketch_spmm(A, d, rng, kernel=kernel,
                                              b_d=B_D, b_n=B_N)
                    outs.append(Ahat)
                    sample += stats.sample_seconds
                    apply += stats.compute_seconds
                elapsed = time.perf_counter() - t0
                if elapsed < seq_best:
                    seq_best, seq_sample, seq_apply = elapsed, sample, apply
                solo = outs
            bat_best = float("inf")
            stacked = None
            for _ in range(max(1, repeats)):
                brng = make_batched_rng(rng_kind, SEEDS, "uniform")
                t0 = time.perf_counter()
                stacked, stats = sketch_spmm(
                    A, d, brng, kernel=kernel, b_d=B_D, b_n=B_N)
                elapsed = time.perf_counter() - t0
                if elapsed < bat_best:
                    bat_best, bat_apply = elapsed, stats.compute_seconds
            identical = all(np.array_equal(stacked[t], solo[t])
                            for t in range(len(SEEDS)))
            share = seq_sample / (seq_sample + seq_apply)
            sharing = seq_apply / bat_apply
            entries[f"{kernel}/{rng_kind}"] = {
                "kernel": kernel,
                "rng": rng_kind,
                "batch": len(SEEDS),
                "sequential_seconds": seq_best,
                "batched_seconds": bat_best,
                "ratio": seq_best / bat_best,
                "sample_share": share,
                "apply_sharing": sharing,
                "ceiling": 1.0 / (share + (1.0 - share) / sharing),
                "bit_identical": identical,
            }
    ratios = [e["ratio"] for e in entries.values()]
    return {
        "matrix": f"synthetic({BATCH_M}x{BATCH_N}, rho={BATCH_DENSITY})",
        "nnz": A.nnz,
        "d": d,
        "b_d": B_D,
        "b_n": B_N,
        "batch": len(SEEDS),
        "backend": "numpy",
        "repeats": max(1, repeats),
        "target_ratio": TARGET_RATIO,
        "best_ratio": max(ratios),
        "entries": entries,
    }


def compare_to_baseline(baseline: dict, current: dict,
                        tolerance: float) -> list[str]:
    """Gate the current run; returns human-readable failure lines.

    Two checks per cell: bit-identity must hold unconditionally, and a
    cell that met :data:`TARGET_RATIO` in the committed baseline must
    stay above ``TARGET_RATIO * (1 - tolerance)`` — so the 1.5x
    acceptance bar is held where it was demonstrated, with headroom for
    host noise, while a cell that never reached it cannot flake the CI.
    """
    failures = []
    base_entries = baseline.get("entries", {})
    for key, cur in current["entries"].items():
        if not cur["bit_identical"]:
            failures.append(f"{key}: batched output is NOT bit-identical "
                            f"to the sequential runs")
        base = base_entries.get(key)
        if base is not None and base["ratio"] >= TARGET_RATIO:
            failures += drift(f"{key}: batched speedup", cur["ratio"],
                              TARGET_RATIO * (1.0 - tolerance), base["ratio"],
                              tolerance, note=f"target {TARGET_RATIO}x, "
                              f"{_ceiling(cur)}, ")
    if current["best_ratio"] < TARGET_RATIO * (1.0 - tolerance):
        best = max(e["ceiling"] for e in current["entries"].values())
        failures.append(
            f"headline: best cell {current['best_ratio']:.2f}x < "
            f"{TARGET_RATIO}x acceptance bar (tolerance {tolerance:.0%}; "
            f"best ceiling {best:.2f}x)")
    return failures


def _ceiling(e: dict) -> str:
    return (f"ceiling {e['ceiling']:.2f}x at f={e['sample_share']:.2f}, "
            f"c={e['apply_sharing']:.1f}")


def _report_rows(payload: dict) -> list[list]:
    return [[e["kernel"], e["rng"], e["batch"],
             round(e["sequential_seconds"], 4),
             round(e["batched_seconds"], 4),
             f"{e['ratio']:.2f}x", _ceiling(e),
             "yes" if e["bit_identical"] else "NO"]
            for e in payload["entries"].values()]


def test_batch_matrix_report(benchmark):
    payload = benchmark.pedantic(measure_batch_matrix, rounds=1,
                                 iterations=1)
    entries = payload["entries"]
    notes = [shape_check(
        payload["best_ratio"] >= TARGET_RATIO,
        f"k={payload['batch']} batched sketching sustains >= "
        f"{TARGET_RATIO}x sequential throughput "
        f"(best {payload['best_ratio']:.2f}x)")]
    emit_report(
        "batch_matrix",
        "Batched multi-sketch matrix (k sketches per pass vs k runs)",
        ["kernel", "rng", "k", "seq s", "batched s", "speedup",
         "ceiling 1/(f+(1-f)/c)", "bit-identical"],
        _report_rows(payload),
        notes="\n".join(notes),
    )
    assert all(e["bit_identical"] for e in entries.values())


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Batched-sketching perf gate (compare against the "
                    "committed BENCH_batch.json)")
    parser.add_argument("--baseline", default=str(GATE_PATH),
                        help="baseline JSON to gate against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="noise headroom under the 1.5x bar "
                             "(default: the batch_ratio per-metric "
                             "tolerance; see summarize_reports.py)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--record", action="store_true",
                        help="write this run to the baseline file instead "
                             "of gating against it")
    args = parser.parse_args()

    current = measure_batch_matrix(args.repeats)
    for row in _report_rows(current):
        print("  ".join(str(c) for c in row))
    record_or_gate(
        "batch-gate", current, Path(args.baseline), args.record,
        lambda base: compare_to_baseline(base, current, args.tolerance),
        f"OK ({len(current['entries'])} cells, best "
        f"{current['best_ratio']:.2f}x, bar {TARGET_RATIO}x)")
