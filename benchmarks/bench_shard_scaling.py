"""Sharded-execution benchmark and gate.

The partition stage runs a sketch's column stripes as consecutive task
groups of one driver run, each closed by a barrier that merges its
stripe.  There is no per-stripe setup: the one worker fleet, the one
shared copy of ``A`` and the one blocked-CSR conversion serve every
stripe.  On one host the stripes run one after another, so sharding
buys checkpoint granularity, not speed; what it costs is the merge
sweep (the pool's per-stripe copy out of shared memory) plus the fleet
draining at each barrier.  Two consumers:

* ``pytest benchmarks/ --benchmark-only`` — prints the sharded-vs-
  unsharded comparison;
* ``make shard-smoke`` (``python benchmarks/bench_shard_scaling.py``) —
  re-measures on the supervised **process pool** and fails unless
  (a) every sharded sketch is **bit-identical** to the unsharded one,
  (b) the run executed the requested shard count, and (c) the merge
  stage accounted its words.  The measured sharded/unsharded ratio is
  also gated against the committed baseline with
  ``REPRO_BENCH_GATE_TOL``; a missing baseline fails the gate.

Neither path rewrites the baseline; re-record it deliberately with
``python benchmarks/bench_shard_scaling.py --record``.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np
from _harness import REPEATS, drift, emit_report, record_or_gate, shape_check

from repro.core import SketchConfig
from repro.parallel import WorkerPoolConfig
from repro.plan import PartitionSpec, Planner, Runtime
from repro.sparse import random_sparse

from summarize_reports import gate_tolerance

GATE_PATH = Path(__file__).parent / "reports" / "BENCH_shard.json"
DEFAULT_TOLERANCE = gate_tolerance("shard_ratio")

# Tall-and-sparse, Algorithm-4 shaped; override for quick local smoke
# runs, e.g. REPRO_BENCH_SHARD_DIMS="8192,96,2e-3".
_DIMS = os.environ.get("REPRO_BENCH_SHARD_DIMS", "20000,128,2e-3").split(",")
SHARD_M, SHARD_N, SHARD_DENSITY = int(_DIMS[0]), int(_DIMS[1]), float(_DIMS[2])
GAMMA = 2.0
B_N = 16
B_D = 64
SHARDS = int(os.environ.get("REPRO_BENCH_SHARD_COUNT", "4"))
WORKERS = 2


def _one_run(A, partition: PartitionSpec | None) -> dict:
    """One compile+execute on the supervised process pool."""
    cfg = SketchConfig(gamma=GAMMA, kernel="algo4", rng_kind="philox",
                       seed=0, b_d=B_D, b_n=B_N)
    plan = Planner().compile(A, cfg, driver="process",
                             pool=WorkerPoolConfig(workers=WORKERS),
                             partition=partition)
    runtime = Runtime()
    t0 = time.perf_counter()
    result = runtime.run(plan, A)
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "sketch": result.sketch,
        "shards": result.stats.extra.get("shards", 1),
        "merge_seconds": result.stats.extra.get("merge_seconds", 0.0),
        "merge_words": result.stats.extra.get("merge_words", 0),
    }


def measure_shard_scaling(repeats: int = REPEATS) -> dict:
    """Unsharded vs sharded process-pool runs.

    Returns a JSON-ready payload; ``sketch_identical`` certifies the
    acceptance bit: every sharded sketch equals the unsharded one
    exactly, for every repeat.
    """
    A = random_sparse(SHARD_M, SHARD_N, SHARD_DENSITY, seed=0)
    d = int(np.ceil(GAMMA * SHARD_N))
    partition = PartitionSpec(shards=SHARDS)
    repeats = max(1, repeats)
    unsharded = [_one_run(A, None) for _ in range(repeats)]
    sharded = [_one_run(A, partition) for _ in range(repeats)]
    identical = all(np.array_equal(s["sketch"], unsharded[0]["sketch"])
                    for s in sharded + unsharded)
    un_seconds = statistics.median(u["seconds"] for u in unsharded)
    sh_seconds = statistics.median(s["seconds"] for s in sharded)
    return {
        "matrix": f"synthetic({SHARD_M}x{SHARD_N}, rho={SHARD_DENSITY})",
        "d": d,
        "b_d": B_D,
        "b_n": B_N,
        "workers": WORKERS,
        "repeats": repeats,
        "shards_requested": SHARDS,
        "shards_executed": max(s["shards"] for s in sharded),
        "unsharded_seconds": un_seconds,
        "sharded_seconds": sh_seconds,
        "measured_ratio": sh_seconds / un_seconds,
        "merge_seconds": max(s["merge_seconds"] for s in sharded),
        "merge_words": max(s["merge_words"] for s in sharded),
        "sketch_identical": identical,
    }


def structural_failures(payload: dict) -> list[str]:
    """The acceptance invariants; empty list means the gate passes."""
    failures = []
    if not payload["sketch_identical"]:
        failures.append("sharded sketch differs from unsharded sketch "
                        "(MUST be bit-identical)")
    if payload["shards_executed"] != payload["shards_requested"]:
        failures.append(
            f"run executed {payload['shards_executed']} shard(s); "
            f"requested {payload['shards_requested']}")
    if payload["merge_words"] <= 0:
        failures.append("sharded run reported zero merge words; the "
                        "merge stage did not account its traffic")
    return failures


def compare_to_baseline(baseline: dict, current: dict,
                        tolerance: float) -> list[str]:
    """Drift check against the committed baseline's measured ratio."""
    base = baseline.get("measured_ratio")
    return [] if base is None else drift(
        "measured_ratio:", current["measured_ratio"],
        base * (1.0 + tolerance) + tolerance, base, tolerance, fmt="{:.3f}",
        ceiling=True)


def _report_rows(payload: dict) -> list[list]:
    return [
        ["unsharded", round(payload["unsharded_seconds"], 4), "1.000", 1,
         "-"],
        [f"x{payload['shards_requested']}",
         round(payload["sharded_seconds"], 4),
         f"{payload['measured_ratio']:.3f}",
         payload["shards_executed"],
         round(payload["merge_seconds"], 5)],
    ]


def test_shard_scaling_report(benchmark):
    payload = benchmark.pedantic(measure_shard_scaling, rounds=1,
                                 iterations=1)
    notes = [
        shape_check(payload["sketch_identical"],
                    "sharded sketch bit-identical to unsharded"),
        shape_check(payload["shards_executed"]
                    == payload["shards_requested"],
                    f"executed all {payload['shards_requested']} shards"),
    ]
    emit_report(
        "shard_scaling",
        "Sharded execution: process pool, sharded vs unsharded",
        ["run", "seconds", "ratio", "shards", "merge_s"],
        _report_rows(payload),
        notes="\n".join(notes),
    )
    # Correctness is a hard assertion even in the soft-shape bench leg.
    assert payload["sketch_identical"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Sharded-execution regression gate (bit-identical "
                    "output, full shard count, merge accounting, measured "
                    "process-pool ratio against the baseline)")
    parser.add_argument("--baseline", default=str(GATE_PATH),
                        help="baseline JSON to gate drift against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed measured-ratio growth vs the baseline "
                             "(default: the shard_ratio per-metric "
                             "tolerance; see summarize_reports.py)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--record", action="store_true",
                        help="write this run to the baseline file instead "
                             "of gating against it")
    args = parser.parse_args()

    current = measure_shard_scaling(args.repeats)
    for row in _report_rows(current):
        print("  ".join(str(c) for c in row))
    record_or_gate(
        "shard-smoke", current, Path(args.baseline), args.record,
        lambda base: (structural_failures(current)
                      + compare_to_baseline(base, current, args.tolerance)),
        f"OK (ratio {current['measured_ratio']:.3f}, bit-identical, "
        f"{current['shards_executed']} shards)")
