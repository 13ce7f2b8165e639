"""Rerunnable end-to-end benchmark of ``sketch()`` and ``repro serve``.

    python3 perfbench/run.py --workload fixed_a --seed 0 --seconds 18 --trace 0

Each workload runs in processes of its own (``workloads.py``): three
cold starts, one after the other, each measuring a third of the run, so
``setup_s`` is the median of three cold starts.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate run in one process with span recording, reports the per-layer
metrics, and writes a Chrome trace and a ledger into ``--out``.  Without
``--workload`` all five workloads run one after another.

The end-to-end times and rates are brought to a reference machine speed
measured in the same processes (``speed.py``); the numbers as measured
(``*_measured``) and the speed factor are printed and recorded next to
them.

Prints ``workload metric value unit`` per metric, writes a JSON record
``RUN_<workload>_seed<seed>_trace<0|1>.json`` into ``--out`` (merged into
``--record FILE`` when given), and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when any
checked output differs from the serial reference, 2 when a workload
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import quantile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: An untraced run measures in this many cold processes, one after the
#: other, each for a third of the run.  A process keeps much of the speed
#: it started with, so two processes of the same code and seed can read
#: several percent apart for their whole life; pooling three evens that
#: out.  ``setup_s`` is the median of their set-ups.
COLD_STARTS = 3
CHILD_TIMEOUT = 150.0
P90_WINDOWS = 6


class WorkloadError(RuntimeError):
    pass


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}


def child(args, workload: str, seconds: float) -> dict:
    flags = [f for f, on in (("--trace", args.trace), ("--smoke", args.smoke),
                             ("--inject-mismatch", args.inject_mismatch))
             if on]
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload",
           workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--out", str(args.out), "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{workload}: process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{workload}: process exited "
                            f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def windowed_p90(lat: list) -> float:
    """The p90 of each of six consecutive stretches of the run, median
    over the six.  On a shared host a burst of outside load slows every
    op it overlaps; this way one burst moves at most the stretches it
    falls in, not the whole tail.  Runs too short for six stretches of
    ten ops (smoke runs) report the plain p90."""
    n = len(lat) // P90_WINDOWS
    if n < 10:
        return quantile(lat, 0.9)
    return statistics.median(quantile(lat[k * n:(k + 1) * n], 0.9)
                             for k in range(P90_WINDOWS))


def pooled(docs: list, suffix: str) -> dict:
    """Set-up, rate and latencies of the processes together: the median
    of their set-ups, the mean of their rates, the percentiles of all
    their latencies.  *suffix* ``""`` takes the numbers as measured,
    ``"_norm"`` those at reference speed."""
    lat = [x for d in docs for x in d[f"latencies_ms{suffix}"]]
    return {"setup_s": statistics.median(d[f"setup_s{suffix}"]
                                         for d in docs),
            "ops_per_s": statistics.fmean(d[f"ops_per_s{suffix}"]
                                          for d in docs),
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_p90": windowed_p90(lat)}


def run_workload(args, workload: str, spec: dict) -> dict:
    """Run one workload; returns its record."""
    starts = 1 if (args.trace or args.smoke) else COLD_STARTS
    docs = [child(args, workload, args.seconds / starts)
            for _ in range(starts)]
    as_measured = pooled(docs, "")
    if args.trace:
        section = "per_layer"
        values = docs[0]["layers"]
    else:
        section = "end_to_end"
        values = pooled(docs, "_norm")
        values["peak_rss_mb"] = max(d["peak_rss_mb"] for d in docs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    return {
        "env": docs[0]["env"],
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "smoke": args.smoke,
        "metrics": metrics,
        "as_measured": as_measured,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / max(1, attempted),
        "checked": sum(d["checked"] for d in docs),
        "samples": sum(len(d["latencies_ms"]) for d in docs),
        "processes": [{k: v for k, v in d.items()
                       if k not in ("env", "layers")} for d in docs],
    }


def write_record(args, env: dict, record: dict) -> None:
    env = {**env, **record.pop("env")}
    name = (f"RUN_{record['workload']}_seed{args.seed}"
            f"_trace{int(args.trace)}.json")
    (args.out / name).write_text(json.dumps({"env": env, **record},
                                            indent=1))
    if args.record is None:
        return
    path = Path(args.record)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["env"] = env
    entry = doc.setdefault("workloads", {}).setdefault(record["workload"], {})
    section = "per_layer" if args.trace else "end_to_end"
    entry[section] = {k: v["value"] for k, v in record["metrics"].items()}
    entry[f"{section}_run"] = {k: record[k] for k in (
        "seed", "seconds", "attempted", "failed", "samples", "checked",
        "as_measured")}
    entry[f"{section}_run"]["speed_factors"] = [
        d["speed_factor"] for d in record["processes"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Five workloads over sketch() and repro serve.")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all five in turn)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default 18, smoke 1.5)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny dimensions, for tests")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for records, traces and ledgers")
    p.add_argument("--record", default=None,
                   help="also merge the results into this JSON file")
    p.add_argument("--inject-mismatch", action="store_true",
                   help="flip one bit of the first reference output "
                        "(checks that the benchmark catches it)")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else 18.0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    env = environment()

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        try:
            record = run_workload(args, workload, spec)
        except WorkloadError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        records.append(record)
        write_record(args, env, record)
        for name, m in record["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in record["as_measured"].items():
            print(f"{workload} {name}_measured {value:.6g} {units[name]}")
        factor = statistics.median(d["speed_factor"]
                                   for d in record["processes"])
        print(f"{workload} speed_factor {factor:.6g} ratio")
        print(f"{workload} failed_frac {record['failed_frac']:.6g} fraction")

    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
