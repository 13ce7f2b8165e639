"""Self-check of the benchmark at tiny dimensions (a few seconds per run).

    python3 perfbench/smoke.py

For every workload, untraced and traced:

* every metric ``BENCHMARK.json`` names is printed with its unit;
* ``failed_frac`` is 0 and the command exits 0;
* in the traced ledger, each op's layer self times plus the residual
  equal the op's wall time.

And for one library and one serve workload: ``--inject-mismatch``
(one flipped bit in a reference output) counts exactly one op as failed
and makes the command exit non-zero.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(out: Path, workload: str, *flags: str) -> tuple[int, list, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {flags}: no output\n"
                             f"{proc.stderr[-2000:]}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_printed(workload: str, lines: list, specs: list) -> None:
    printed = {}
    for line in lines:
        w, name, _value, unit = line.split()
        check(w == workload, f"unexpected line {line!r}")
        printed[name] = unit
    for spec in specs:
        check(printed.get(spec["name"]) == spec["unit"],
              f"{workload}: {spec['name']} not printed with unit "
              f"{spec['unit']!r}")
    check(printed.get("failed_frac") == "fraction",
          f"{workload}: failed_frac not printed")


def check_ledger(out: Path, workload: str) -> None:
    ledger = json.loads((out / f"LEDGER_{workload}.json").read_text())
    check(ledger["ops"] > 0, f"{workload}: empty ledger")
    for op in ledger["per_op"]:
        total = op["residual"] + sum(op["layers"].values())
        check(abs(total - op["wall"]) <= 1e-9 * max(1.0, op["wall"]),
              f"{workload}: op {op['op']} ledger sums to {total}, "
              f"wall is {op['wall']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp)
        try:
            for workload in WORKLOADS:
                for trace, section in (("0", "end_to_end"),
                                       ("1", "per_layer")):
                    code, lines, last = bench(out, workload, "--trace",
                                              trace)
                    check(code == 0 and last["correct"]
                          and last["failed"] == 0,
                          f"{workload} trace {trace}: exit {code}, {last}")
                    check_printed(workload, lines, spec[section])
                    check(any(line.split()[1:3] == ["failed_frac", "0"]
                              for line in lines),
                          f"{workload}: failed_frac is not 0")
                check_ledger(out, workload)
                print(f"ok {workload}")
            for workload in ("fixed_a", "serve_burst"):
                code, _lines, last = bench(out, workload,
                                           "--inject-mismatch")
                check(code != 0 and not last["correct"]
                      and last["failed"] == 1,
                      f"{workload}: a flipped reference bit was not "
                      f"caught (exit {code}, {last['failed']} failed)")
                print(f"ok {workload} flipped bit caught")
        except AssertionError as err:
            print(f"FAIL: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
