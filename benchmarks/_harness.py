"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*.py`` module regenerates one table or figure from the
paper: it runs the measurement at the active ``REPRO_SCALE`` (default
``ci``), then prints a table whose rows mirror the paper's, with the
paper's published values alongside the measured ones so shape comparisons
are immediate.  All benches run under
``pytest benchmarks/ --benchmark-only``; the printed reports land in the
captured output (run with ``-s`` to see them live) and are also appended
to ``benchmarks/reports/<name>.txt`` for EXPERIMENTS.md.

Conventions
-----------
* Matrices come from :mod:`repro.workloads` and are cached per session.
* Wall-clock comparisons use best-of-``REPEATS`` timing.
* Shape assertions (who wins) are made with soft tolerance: a bench
  prints a WARNING line rather than failing when the host's noise breaks
  an expected ordering, so benchmark runs always complete.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro.sparse import CSCMatrix
from repro.utils import format_table, render_kv_block
from repro.workloads import (
    ABNORMAL_SUITE,
    LSQ_SUITE,
    SPMM_SUITE,
    MatrixCase,
    build_matrix,
    current_scale,
)

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
REPORT_DIR = Path(__file__).parent / "reports"


@functools.lru_cache(maxsize=None)
def suite_matrix(kind: str, name: str) -> CSCMatrix:
    """Cached surrogate matrix for a suite entry at the active scale."""
    suite = {"spmm": SPMM_SUITE, "lsq": LSQ_SUITE, "abnormal": ABNORMAL_SUITE}[kind]
    return build_matrix(suite[name])


def spmm_case(name: str) -> MatrixCase:
    return SPMM_SUITE[name]


def lsq_case(name: str) -> MatrixCase:
    return LSQ_SUITE[name]


def scaled_d(case: MatrixCase, A: CSCMatrix, gamma: int = 3) -> int:
    """Sketch size ``gamma * n`` at the realized (scaled) dimensions."""
    return gamma * A.shape[1]


def best_of(fn: Callable[[], object], repeats: int = REPEATS) -> tuple[float, object]:
    """Best wall time of *repeats* runs; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def emit_report(name: str, title: str, headers, rows, notes: str = "") -> str:
    """Format, print, and persist one bench report (text + JSON)."""
    import json

    scale = current_scale()
    table = format_table(headers, rows, title=f"{title}  [scale={scale}]")
    parts = [table]
    if notes:
        parts.append(notes.rstrip())
    text = "\n".join(parts) + "\n"
    print("\n" + text)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text)
    payload = {
        "name": name,
        "title": title,
        "scale": scale,
        "headers": list(headers),
        "rows": [[None if v is None else v for v in r] for r in rows],
        "notes": notes.splitlines() if notes else [],
    }
    (REPORT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=1, default=str))
    return text


def emit_config(title: str, pairs) -> None:
    """Print a configuration block above a report."""
    print("\n" + render_kv_block(title, pairs))


def paper_scale_traffic_ratio(case: MatrixCase, machine, *, gamma: int = 3,
                              b_d: int = 3000, b_n: int = 500,
                              dist: str = "uniform") -> float:
    """Model ratio (pre-generated / on-the-fly effective words) at the
    *paper's* dimensions.

    The analytic model needs only (m, n, nnz, d), so the paper-scale
    comparison — where the sketch vastly exceeds the cache and the paper's
    2x speedups live — can be evaluated exactly even though the measured
    kernels run on scaled surrogates.
    """
    m, n, nnz = case.m, case.n, case.nnz
    d = gamma * n
    h = machine.h(dist)
    passes = -(-d // b_d)
    n_blocks = -(-n // b_n)
    csc_words = 2.0 * nnz + n + 1
    otf = passes * csc_words + 2.0 * d * n + h * d * nnz
    sketch_words = float(d) * m
    sketch_passes = 1 if sketch_words <= machine.cache_words else n_blocks
    pre = csc_words + 2.0 * d * n + sketch_passes * sketch_words
    return pre / otf


def paper_scale_traffic(case: MatrixCase, algorithm: str, *, gamma: int = 3,
                        b_d: int = 3000, b_n: int = 500):
    """Analytic :class:`~repro.model.TrafficEstimate` at paper dimensions.

    Algorithm 4's RNG volume uses the Section III-A expectation
    ``E[Y] = m (1 - (1 - rho)^{b_n})`` per vertical block, since the real
    SuiteSparse matrices are unavailable; everything else follows the
    closed forms of :mod:`repro.model.traffic`.
    """
    from repro.model import TrafficEstimate, expected_nonempty_rows

    m, n, nnz = case.m, case.n, case.nnz
    rho = nnz / (m * n)
    d = gamma * n
    passes = -(-d // b_d)
    n_blocks = -(-n // b_n)
    flops = 2.0 * d * nnz
    if algorithm == "algo3":
        return TrafficEstimate(
            algorithm="algo3",
            words_sparse=passes * (2.0 * nnz + n + 1),
            words_output=2.0 * d * n,
            words_output_scattered=0.0,
            words_sketch=0.0,
            rng_entries=float(d) * nnz,
            flops=flops,
        )
    if algorithm != "algo4":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rng = float(d) * n_blocks * expected_nonempty_rows(m, b_n, rho)
    return TrafficEstimate(
        algorithm="algo4",
        words_sparse=passes * (2.0 * nnz + n_blocks * (m + 1.0)),
        words_output=2.0 * d * n,
        words_output_scattered=2.0 * d * n,
        words_sketch=0.0,
        rng_entries=min(rng, float(d) * nnz),
        flops=flops,
    )


def paper_scale_crossover(case: MatrixCase, *, b_d: int = 3000,
                          b_n_frontera: int = 500,
                          b_n_perlmutter: int = 1200) -> dict:
    """Model seconds for both algorithms on both machine presets at paper
    dimensions (each machine evaluated with the blocking the paper used on
    it).  Keys: ``frontera_a3/a4``, ``perlmutter_a3/a4``."""
    from repro.model import FRONTERA, PERLMUTTER
    from repro.parallel import predict_time

    out = {}
    for machine, tag, b_n in (
        (FRONTERA, "frontera", b_n_frontera),
        (PERLMUTTER, "perlmutter", b_n_perlmutter),
    ):
        h = machine.h("uniform")
        for alg in ("algo3", "algo4"):
            t = paper_scale_traffic(case, alg, b_d=b_d, b_n=b_n)
            out[f"{tag}_{alg.replace('algo', 'a')}"] = \
                predict_time(t, machine, 1, h).seconds
    return out


def shape_check(condition: bool, message: str) -> str:
    """Return an OK/WARNING line for a shape expectation (never raises)."""
    return f"[shape OK] {message}" if condition else f"[shape WARNING] {message}"


def drift(label: str, current: float, bound: float, baseline: float,
          tolerance: float, *, fmt: str = "{:.2f}x", unit: str = "",
          ceiling: bool = False, note: str = "") -> list[str]:
    """One gate check of *current* against a floor, or with *ceiling* a
    ceiling, set from the committed *baseline*: ``[]`` within the bound,
    else the one failure line the gate prints."""
    if not (current > bound if ceiling else current < bound):
        return []
    side = "> ceiling" if ceiling else "< floor"
    return [f"{label} {fmt.format(current)}{unit} {side} {fmt.format(bound)} "
            f"(baseline {fmt.format(baseline)}, {note}tolerance "
            f"{tolerance:.0%})"]


def host_stamp() -> dict:
    """Which code ran where, and how loaded the host was while it ran."""
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def record_or_gate(label: str, payload: dict, baseline: Path, record: bool,
                   failures: Callable[[dict], list[str]], ok: str) -> None:
    """The command-line tail every bench gate shares; always exits.

    With *record*, *payload* becomes the baseline at *baseline*, stamped
    with :func:`host_stamp` under ``"host"``, and the process exits 0.
    Otherwise the run is gated: a missing baseline exits 1, and so does
    any line ``failures(baseline_payload)`` returns; each such line
    carries the host's load averages, so a red on a loaded host can be
    told from a regression (the load never passes or skips a check).  A
    pass prints *ok*.  Only an explicit ``--record`` writes the baseline,
    so a gate cannot ratchet it down with slow drift.
    """
    stamp = host_stamp()
    if record:
        baseline.parent.mkdir(exist_ok=True)
        payload = {**payload, "host": stamp}
        baseline.write_text(json.dumps(payload, indent=1, sort_keys=True))
        print(f"\n{label}: recorded the baseline to {baseline}")
        sys.exit(0)
    if not baseline.exists():
        print(f"\n{label}: no baseline at {baseline}; run with --record "
              "to make one", file=sys.stderr)
        sys.exit(1)
    lines = failures(json.loads(baseline.read_text()))
    if lines:
        load = "load {:.2f} {:.2f} {:.2f}".format(*stamp["loadavg"])
        print(f"\n{label}: FAILED (nproc {stamp['nproc']}, {load})",
              file=sys.stderr)
        for line in lines:
            print(f"  {line} [{load}]", file=sys.stderr)
        sys.exit(1)
    print(f"\n{label}: {ok}")
    sys.exit(0)
