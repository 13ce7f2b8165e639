"""Paired comparison of two sets of benchmark runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``RUN_<workload>_seed<N>_trace0.json`` records
that ``run.py --out DIR`` writes.  A parent record and a change record of
the same workload and seed form a pair; run the two sides alternately,
at least ten pairs per workload.  One row per (workload, end-to-end
metric), with bounds from ``BENCHMARK.json``.  ``gain`` is the change's
median relative to the parent's, positive when better:

* ``unresolved`` - either side's IQR/median exceeds the bound, unless
  every change run reads better than every parent run (then improved);
* ``regressed`` - the change's median is worse than the parent's by more
  than the bound;
* ``improved`` - the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``unchanged`` - anything else.

Exits 1 when any row regressed, 2 when a workload has fewer than ten
pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory: Path) -> dict:
    """``{(workload, seed): metrics}`` of the untraced records."""
    runs = {}
    for path in sorted(directory.glob("RUN_*_trace0.json")):
        doc = json.loads(path.read_text())
        runs[(doc["workload"], doc["seed"])] = {
            k: v["value"] for k, v in doc["metrics"].items()}
    return runs


def verdict(parent: list, change: list, lower_is_better: bool,
            bound: float) -> tuple[str, dict]:
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    stats = {"parent": (pm, p1, p3), "change": (cm, c1, c3),
             "gain": -worse, "wins": wins}
    if spread > bound:
        best_parent = min(sign * p for p in parent)
        if all(sign * c < best_parent for c in change):
            return "improved", stats
        return "unresolved", stats
    if worse > bound:
        return "regressed", stats
    if wins >= 0.9 * len(parent) and -worse * pm > (p3 - p1):
        return "improved", stats
    return "unchanged", stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _seed in keys})
    if not workloads:
        print("no paired records found", file=sys.stderr)
        return 2
    status = 0
    print(f"{'workload':<12} {'metric':<15} {'pairs':>5} "
          f"{'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'gain':>7} {'wins':>5}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < MIN_PAIRS:
            print(f"{workload}: {len(seeds)} pairs, need {MIN_PAIRS}",
                  file=sys.stderr)
            status = 2
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [parent[(workload, s)][name] for s in seeds]
            b = [change[(workload, s)][name] for s in seeds]
            v, st = verdict(a, b, metric["better"] == "lower",
                            metric["bound"])
            pm, p1, p3 = st["parent"]
            cm, c1, c3 = st["change"]
            print(f"{workload:<12} {name:<15} {len(seeds):>5} "
                  f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
                  f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} "
                  f"{st['gain']:>+7.1%} {st['wins']:>5}  {v}")
            if v == "regressed" and status == 0:
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
