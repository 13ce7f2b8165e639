"""Warm-vs-cold artifact-cache benchmark and regression gate.

The cache exists for exactly one workload: "fixed ``A``, many sketches".
This bench measures what a second process pays on that path — compile
(``tune="measure"``) plus execute — first against an empty cache
directory, then against the directory the cold run populated.  Two
consumers:

* ``pytest benchmarks/ --benchmark-only`` — prints the comparison next to
  the paper tables;
* ``make cache-smoke`` (``python benchmarks/bench_cache_warm.py``) —
  re-measures and fails unless the warm run (a) issued **zero** autotune
  probes and **zero** blocked-CSR conversions (asserted through the
  cache's per-artifact miss counters and the run's
  ``blocked_csr_source``), (b) beat the cold run by at least
  ``REPRO_CACHE_GATE_MIN_SPEEDUP`` (default 2x), and (c) produced a
  bit-identical sketch.  The warm speedup is also gated against the
  committed baseline with ``REPRO_BENCH_GATE_TOL``; a missing baseline
  fails the gate.

Neither path rewrites the baseline; re-record it deliberately with
``python benchmarks/bench_cache_warm.py --record``.

Every timed cold and warm run constructs a fresh :class:`ArtifactCache`
so the warm legs exercise the disk path (checksum verification
included), not the in-process memo.  A last, in-process leg then makes
the calls ``sketch()`` makes through a new :class:`CachePolicy` each
time, on the populated directory: every cache ``ensure`` opens for a
policy shares the directory's process memo, so every ``blocked_csr`` hit
after the leg's first must come from memory, with a bit-identical
sketch.  The leg prints its per-call time; it has no timing gate.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from _harness import REPEATS, drift, emit_report, record_or_gate, shape_check

from repro.cache import ArtifactCache, CachePolicy
from repro.core import SketchConfig
from repro.plan import CACHE_HIT, CACHE_MISS, Planner, Runtime
from repro.sparse import random_sparse

from summarize_reports import gate_tolerance

GATE_PATH = Path(__file__).parent / "reports" / "BENCH_cache.json"
DEFAULT_TOLERANCE = gate_tolerance("cache_speedup")
MIN_SPEEDUP = float(os.environ.get("REPRO_CACHE_GATE_MIN_SPEEDUP", "2.0"))

# Tall-and-sparse, Algorithm-4 shaped; override for quick local smoke
# runs, e.g. REPRO_BENCH_CACHE_DIMS="8192,96,2e-3".
_DIMS = os.environ.get("REPRO_BENCH_CACHE_DIMS", "32768,128,2e-3").split(",")
CACHE_M, CACHE_N, CACHE_DENSITY = int(_DIMS[0]), int(_DIMS[1]), float(_DIMS[2])
GAMMA = 3.0


CFG = SketchConfig(gamma=GAMMA, kernel="algo4", rng_kind="philox", seed=0)


def _one_run(A, cache_dir: Path) -> dict:
    """One full compile+execute against *cache_dir*; fresh cache object."""
    cache = ArtifactCache(CachePolicy(cache_dir=str(cache_dir)))
    t0 = time.perf_counter()
    plan = Planner(tune="measure").compile(A, CFG, cache=cache)
    result = Runtime().run(plan, A, cache=cache)
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "sketch": result.sketch,
        "plan_digest": plan.digest(),
        "tune_misses": cache.misses.get("tune", 0),
        "blocked_misses": cache.misses.get("blocked_csr", 0),
        "hits": cache.hit_total(),
        "misses": cache.miss_total(),
        "blocked_csr_source": result.stats.extra.get("blocked_csr_source"),
        "conversion_seconds": result.stats.conversion_seconds,
    }


def _in_process_leg(A, cache_dir: Path, calls: int) -> dict:
    """*calls* compile+execute runs, each through a new policy on
    *cache_dir* (so through the directory's process memo): their median
    time, their sketches, and how each ``blocked_csr`` lookup went (a
    hit's source, or ``"miss"``)."""
    seconds, sketches, lookups = [], [], []

    def note(event) -> None:
        if event.payload["artifact"] == "blocked_csr":
            lookups.append(event.payload.get("source", "miss"))

    for _ in range(calls):
        runtime = Runtime()
        runtime.bus.subscribe_observer(CACHE_HIT, note)
        runtime.bus.subscribe_observer(CACHE_MISS, note)
        policy = CachePolicy(cache_dir=str(cache_dir))
        t0 = time.perf_counter()
        plan = Planner(tune="measure").compile(A, CFG, cache=policy)
        result = runtime.run(plan, A, cache=policy)
        seconds.append(time.perf_counter() - t0)
        sketches.append(result.sketch)
    return {"seconds": statistics.median(seconds), "sketches": sketches,
            "lookups": lookups}


def measure_cache_warm(repeats: int = REPEATS) -> dict:
    """Cold run against an empty directory, then *repeats* warm runs.

    Returns a JSON-ready payload; ``sketch_identical`` certifies the
    acceptance bit: every warm sketch equals the cold one exactly.
    """
    A = random_sparse(CACHE_M, CACHE_N, CACHE_DENSITY, seed=0)
    workdir = Path(tempfile.mkdtemp(prefix="repro-cache-bench-"))
    try:
        cold = _one_run(A, workdir)
        warms = [_one_run(A, workdir) for _ in range(max(1, repeats))]
        identical = all(np.array_equal(w["sketch"], cold["sketch"])
                        for w in warms)
        same_plan = all(w["plan_digest"] == cold["plan_digest"]
                        for w in warms)
        warm_seconds = statistics.median(w["seconds"] for w in warms)
        leg = _in_process_leg(A, workdir, max(2, repeats))
        return {
            "matrix": f"synthetic({CACHE_M}x{CACHE_N}, rho={CACHE_DENSITY})",
            "d": int(np.ceil(GAMMA * CACHE_N)),
            "repeats": max(1, repeats),
            "cold_seconds": cold["seconds"],
            "warm_seconds": warm_seconds,
            "warm_speedup": cold["seconds"] / warm_seconds,
            "cold_misses": cold["misses"],
            "warm_tune_misses": max(w["tune_misses"] for w in warms),
            "warm_blocked_misses": max(w["blocked_misses"] for w in warms),
            "warm_hits": min(w["hits"] for w in warms),
            "warm_conversion_seconds": max(w["conversion_seconds"]
                                           for w in warms),
            "cold_blocked_csr_source": cold["blocked_csr_source"],
            "warm_blocked_csr_source": warms[0]["blocked_csr_source"],
            "sketch_identical": identical,
            "plan_digest_stable": same_plan,
            "in_process_seconds": leg["seconds"],
            "in_process_lookups": leg["lookups"],
            "in_process_identical": all(
                np.array_equal(s, cold["sketch"]) for s in leg["sketches"]),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def structural_failures(payload: dict,
                        min_speedup: float = MIN_SPEEDUP) -> list[str]:
    """The acceptance invariants; empty list means the gate passes."""
    failures = []
    if not payload["sketch_identical"]:
        failures.append("warm sketch differs from cold sketch (MUST be "
                        "bit-identical)")
    if not payload["plan_digest_stable"]:
        failures.append("warm compile produced a different plan digest")
    if payload["warm_tune_misses"] != 0:
        failures.append(
            f"warm run issued {payload['warm_tune_misses']} autotune "
            f"probe set(s); expected zero")
    if payload["warm_blocked_misses"] != 0 or \
            payload["warm_blocked_csr_source"] != "cache":
        failures.append(
            f"warm run reconverted A (source="
            f"{payload['warm_blocked_csr_source']!r}, "
            f"{payload['warm_blocked_misses']} miss(es)); expected zero "
            f"conversions")
    if payload["warm_conversion_seconds"] != 0.0:
        failures.append(
            f"warm run billed {payload['warm_conversion_seconds']:.4f}s of "
            f"conversion time; expected none")
    lookups = payload["in_process_lookups"]
    if len(lookups) < 2 or any(s != "memory" for s in lookups[1:]):
        failures.append(
            f"in-process leg: blocked_csr lookups went {lookups}; every "
            f"one after the first must hit the process memo")
    if not payload["in_process_identical"]:
        failures.append("in-process leg: a sketch differs from the cold "
                        "sketch (MUST be bit-identical)")
    if payload["warm_speedup"] < min_speedup:
        failures.append(
            f"warm speedup {payload['warm_speedup']:.2f}x below the "
            f"{min_speedup:.1f}x floor")
    return failures


def compare_to_baseline(baseline: dict, current: dict,
                        tolerance: float) -> list[str]:
    """Drift check against the committed baseline's warm speedup."""
    base = baseline.get("warm_speedup")
    return [] if base is None else drift(
        "warm_speedup:", current["warm_speedup"], base * (1.0 - tolerance),
        base, tolerance)


def _report_rows(payload: dict) -> list[list]:
    return [
        ["cold", round(payload["cold_seconds"], 4), "1.0x",
         payload["cold_misses"], payload["cold_blocked_csr_source"]],
        ["warm", round(payload["warm_seconds"], 4),
         f"{payload['warm_speedup']:.2f}x",
         payload["warm_tune_misses"] + payload["warm_blocked_misses"],
         payload["warm_blocked_csr_source"]],
        ["in-process", round(payload["in_process_seconds"], 4),
         f"{payload['cold_seconds'] / payload['in_process_seconds']:.2f}x",
         payload["in_process_lookups"].count("miss"),
         "/".join(payload["in_process_lookups"])],
    ]


def test_cache_warm_report(benchmark):
    payload = benchmark.pedantic(measure_cache_warm, rounds=1, iterations=1)
    notes = [
        shape_check(payload["warm_speedup"] >= MIN_SPEEDUP,
                    f"warm run {payload['warm_speedup']:.2f}x faster than "
                    f"cold (floor {MIN_SPEEDUP:.1f}x)"),
        shape_check(payload["warm_tune_misses"] == 0,
                    "warm compile: zero autotune probes"),
        shape_check(payload["warm_blocked_csr_source"] == "cache",
                    "warm run: blocked CSR served from cache, zero "
                    "conversions"),
    ]
    emit_report(
        "cache_warm",
        "Artifact cache: cold vs warm (compile + execute)",
        ["run", "seconds", "speedup", "misses", "blocked_csr"],
        _report_rows(payload),
        notes="\n".join(notes),
    )
    # Correctness is a hard assertion even in the soft-shape bench leg.
    assert payload["sketch_identical"]
    assert payload["plan_digest_stable"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Warm-cache regression gate (zero probes, zero "
                    "conversions, bit-identical output, speedup floor)")
    parser.add_argument("--baseline", default=str(GATE_PATH),
                        help="baseline JSON to gate drift against")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional warm-speedup drop vs the "
                             "baseline (default: the cache_speedup "
                             "per-metric tolerance; see "
                             "summarize_reports.py)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="hard floor on cold/warm speedup (default "
                             "from REPRO_CACHE_GATE_MIN_SPEEDUP or 2.0)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--record", action="store_true",
                        help="write this run to the baseline file instead "
                             "of gating against it")
    args = parser.parse_args()

    current = measure_cache_warm(args.repeats)
    for row in _report_rows(current):
        print("  ".join(str(c) for c in row))
    record_or_gate(
        "cache-smoke", current, Path(args.baseline), args.record,
        lambda base: (structural_failures(current, args.min_speedup)
                      + compare_to_baseline(base, current, args.tolerance)),
        f"OK (warm {current['warm_speedup']:.2f}x, zero probes, zero "
        f"conversions, bit-identical)")
