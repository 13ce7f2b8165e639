#!/usr/bin/env python
"""Aggregate the bench reports into a one-page reproduction scorecard.

Every bench writes its table and its ``[shape OK]`` / ``[shape WARNING]``
lines to ``benchmarks/reports/<name>.txt``; this script tallies them per
experiment and writes ``benchmarks/reports/SUMMARY.txt`` — the at-a-glance
answer to "did the reproduction hold?".

Profile JSON files (written by ``repro sketch --profile-out`` or
``repro.obs.build_profile``) dropped into the reports directory as
``PROFILE_*.json`` are ingested into the same scorecard: one line per
profile with the measured GFlop/s, sample fraction, and the
attained-over-predicted roofline ratio.

Metrics JSON files (``repro sketch --metrics-out run.json``) dropped in
as ``METRICS_*.json`` contribute a runtime-health section: the bus's
``dropped_events`` tally (a silently broken observer pipeline should not
hide in a scorecard that says everything held) and the artifact-cache
hit/miss/eviction counters.  Runs that executed the partition stage add
a sharding section (shard count, merge seconds/words, requeues per
shard, checkpoint-resumed shards).  The warm-cache and shard gate
baselines (``BENCH_cache.json``, ``BENCH_shard.json``) are summarized
the same way.

Metric families in a METRICS file that this script does not know are a
**loud failure** (exit code 1): a new metric added to the observer
without extending ``KNOWN_METRIC_FAMILIES`` here would otherwise vanish
from the scorecard silently.

Run after a bench sweep:
    pytest benchmarks/ --benchmark-only
    python benchmarks/summarize_reports.py
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

REPORTS = Path(__file__).parent / "reports"

# -- per-metric gate tolerances -------------------------------------------
#
# Every perf gate used to read one blanket ``REPRO_BENCH_GATE_TOL``; a
# tolerance wide enough for the noisiest gate (process-pool shard ratios)
# was then also applied to the quietest one (steady-state backend
# bandwidth), so a real regression in a quiet metric could hide inside
# the blanket.  Each gated metric now carries its own tolerance, sized to
# that metric's observed run-to-run noise.  Override one metric with
# ``REPRO_BENCH_GATE_TOL_<METRIC>`` (e.g. ``REPRO_BENCH_GATE_TOL_BACKEND_GBS``);
# the legacy blanket ``REPRO_BENCH_GATE_TOL`` still works but applies to
# every metric and should be reserved for one-off noisy hosts.
GATE_TOLERANCES = {
    # Steady-state effective GB/s per backend cell: the quietest gate.
    "backend_gbs": 0.15,
    # Warm-vs-cold artifact-cache speedup: one cold subprocess in the
    # denominator adds spawn jitter.
    "cache_speedup": 0.25,
    # Sharded/unsharded wall ratio on the process driver: worker spawn
    # and IPC make this the noisiest gate.
    "shard_ratio": 0.40,
    # Batched-vs-sequential throughput ratio: headroom under the 1.5x
    # acceptance bar.
    "batch_ratio": 0.15,
}


def gate_tolerance(metric: str) -> float:
    """The gate tolerance for *metric* (see :data:`GATE_TOLERANCES`).

    Resolution order: ``REPRO_BENCH_GATE_TOL_<METRIC>`` >
    legacy blanket ``REPRO_BENCH_GATE_TOL`` > the per-metric default.
    Unknown metrics are a programming error and raise ``KeyError``.
    """
    default = GATE_TOLERANCES[metric]
    per_metric = os.environ.get(f"REPRO_BENCH_GATE_TOL_{metric.upper()}")
    if per_metric:
        return float(per_metric)
    blanket = os.environ.get("REPRO_BENCH_GATE_TOL")
    if blanket:
        return float(blanket)
    return default

# Every metric family the observer layer exports (bare names; stored
# names carry the registry namespace prefix, e.g. ``repro_runs_total``).
# Keep in sync with the catalogue in src/repro/obs/observer.py — an
# unknown family in a METRICS_*.json fails the scorecard loudly.
KNOWN_METRIC_FAMILIES = frozenset({
    "runs_total", "run_seconds", "blocks_total", "blocks_in_flight",
    "block_seconds", "sample_seconds_total", "compute_seconds_total",
    "conversion_seconds_total", "cpu_seconds_total", "wall_seconds_total",
    "samples_generated_total", "flops_total", "sample_fraction",
    "attained_gflops", "checkpoints_total", "checkpoint_seconds",
    "retries_total", "degraded_total", "pool_workers",
    "pool_workers_lost_total", "pool_respawns_total", "pool_requeues_total",
    "shards_total", "shard_merge_seconds", "shard_merge_words_total",
    "shard_requeues_total", "shards_resumed_total",
    "cache_hits_total", "cache_misses_total", "cache_evictions_total",
    "serve_requests_admitted_total", "serve_requests_shed_total",
    "serve_requests_total", "serve_request_seconds",
    "serve_queue_wait_seconds",
    "requests_coalesced_total", "batch_size",
    "serve_deadline_missed_total", "serve_queue_depth",
    "serve_drains_total", "dropped_events",
})


def _unknown_families(payload: dict) -> list[str]:
    """Metric family names in *payload* absent from the known schema."""
    unknown = []
    for family in payload.get("metrics", []):
        fname = family.get("name", "")
        if not any(fname == k or fname.endswith(f"_{k}")
                   for k in KNOWN_METRIC_FAMILIES):
            unknown.append(fname)
    return unknown


def _profile_line(path: Path) -> str:
    """One scorecard line for a profile JSON file (never raises: a bad
    profile is reported, not fatal — the scorecard must always build)."""
    try:
        payload = json.loads(path.read_text())
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        try:
            from repro.obs.schema import validate_profile

            validate_profile(payload)
        finally:
            sys.path.pop(0)
        measured = payload["measured"]
        roofline = payload["roofline"]
        problem = payload["problem"]
        ratio = roofline.get("model_ratio")
        ratio_s = "n/a" if ratio is None else f"{ratio:.3f}"
        return (
            f"   {path.stem}: {payload['kernel']}/{payload['driver'] or '?'}"
            f" on {payload['machine']}"
            f"  {problem['m']}x{problem['n']} d={problem['d']}"
            f"  {measured['attained_gflops']:.3f} GFlop/s"
            f"  sample={measured['sample_fraction']:.1%}"
            f"  attained/predicted={ratio_s}"
        )
    except Exception as exc:  # noqa: BLE001 - scorecard is best-effort
        return f"!! {path.stem}: unreadable profile ({exc})"


def _metric_total(payload: dict, name: str) -> float | None:
    """Sum one family's samples from a MetricsRegistry JSON snapshot.

    Family names are stored namespace-prefixed (``repro_cache_hits_total``)
    so matching is by suffix; ``None`` distinguishes "family absent" from
    a genuine zero.
    """
    for family in payload.get("metrics", []):
        fname = family.get("name", "")
        if fname == name or fname.endswith(f"_{name}"):
            return float(sum(s.get("value", 0.0)
                             for s in family.get("samples", [])))
    return None


def _metric_family(payload: dict, name: str) -> dict | None:
    """The full family dict (labels + samples) matched by suffix."""
    for family in payload.get("metrics", []):
        fname = family.get("name", "")
        if fname == name or fname.endswith(f"_{name}"):
            return family
    return None


def _metrics_line(path: Path) -> str:
    """One runtime-health line for a METRICS_*.json file (best-effort)."""
    try:
        payload = json.loads(path.read_text())
        dropped = _metric_total(payload, "dropped_events") or 0.0
        parts = [f"dropped_events={int(dropped)}"
                 + ("  <-- observer pipeline broke" if dropped else "")]
        cache_bits = []
        for counter, label in (("cache_hits_total", "hits"),
                               ("cache_misses_total", "misses"),
                               ("cache_evictions_total", "evictions")):
            total = _metric_total(payload, counter)
            if total is not None:
                cache_bits.append(f"{label}={int(total)}")
        if cache_bits:
            parts.append("cache " + "/".join(cache_bits))
        unknown = _unknown_families(payload)
        if unknown:
            parts.append("UNKNOWN families: " + ", ".join(unknown))
        flag = "!!" if dropped or unknown else "  "
        return f"{flag} {path.stem}: " + "  ".join(parts)
    except Exception as exc:  # noqa: BLE001 - scorecard is best-effort
        return f"!! {path.stem}: unreadable metrics ({exc})"


def _sharding_lines(path: Path) -> list[str]:
    """Sharding lines for one METRICS_*.json that ran the partition stage."""
    try:
        payload = json.loads(path.read_text())
    except Exception:  # noqa: BLE001 - the health line already reports it
        return []
    shards = _metric_total(payload, "shards_total")
    if not shards:
        return []
    merge = _metric_family(payload, "shard_merge_seconds")
    merge_sum = (sum(float(s.get("sum", 0.0)) for s in merge["samples"])
                 if merge else 0.0)
    words = _metric_total(payload, "shard_merge_words_total") or 0.0
    resumed = _metric_total(payload, "shards_resumed_total") or 0.0
    parts = [f"shards={int(shards)}", f"merge={merge_sum:.4f}s",
             f"merge_words={int(words)}"]
    if resumed:
        parts.append(f"resumed_from_checkpoint={int(resumed)}")
    lines = [f"   {path.stem}: " + "  ".join(parts)]
    requeues = _metric_family(payload, "shard_requeues_total")
    if requeues and requeues.get("samples"):
        per = ", ".join(
            f"shard {s.get('labels', {}).get('shard', '?')}: "
            f"{int(s.get('value', 0))}"
            for s in requeues["samples"])
        lines.append(f"     requeues per shard: {per}")
    return lines


def _cache_gate_lines() -> list[str]:
    """Summarize the committed warm-cache baseline, if present."""
    path = REPORTS / "BENCH_cache.json"
    if not path.exists():
        return []
    try:
        p = json.loads(path.read_text())
        clean = (p.get("warm_tune_misses") == 0
                 and p.get("warm_blocked_misses") == 0
                 and p.get("sketch_identical", False))
        flag = "  " if clean else "!!"
        return [
            "",
            "artifact cache (warm-vs-cold gate baseline):",
            f"{flag} cold {p['cold_seconds']:.3f}s -> warm "
            f"{p['warm_seconds']:.3f}s ({p['warm_speedup']:.2f}x)  "
            f"warm misses: tune={p.get('warm_tune_misses', '?')} "
            f"blocked_csr={p.get('warm_blocked_misses', '?')}  "
            f"bit-identical={'yes' if p.get('sketch_identical') else 'NO'}",
        ]
    except Exception as exc:  # noqa: BLE001
        return ["", f"!! BENCH_cache.json: unreadable ({exc})"]


def _shard_gate_lines() -> list[str]:
    """Summarize the committed sharded-execution baseline, if present."""
    path = REPORTS / "BENCH_shard.json"
    if not path.exists():
        return []
    try:
        p = json.loads(path.read_text())
        clean = (p.get("sketch_identical", False)
                 and p.get("shards_executed") == p.get("shards_requested"))
        flag = "  " if clean else "!!"
        return [
            "",
            "sharded execution (gate baseline):",
            f"{flag} x{p.get('shards_requested', '?')}"
            f"  unsharded {p['unsharded_seconds']:.3f}s -> sharded "
            f"{p['sharded_seconds']:.3f}s (ratio "
            f"{p['measured_ratio']:.3f})  merge={p['merge_seconds']:.4f}s  "
            f"bit-identical={'yes' if p.get('sketch_identical') else 'NO'}",
        ]
    except Exception as exc:  # noqa: BLE001
        return ["", f"!! BENCH_shard.json: unreadable ({exc})"]


def _batch_gate_lines() -> list[str]:
    """Summarize the committed batched-sketching baseline, if present."""
    path = REPORTS / "BENCH_batch.json"
    if not path.exists():
        return []
    try:
        p = json.loads(path.read_text())
        entries = p.get("entries", {})
        identical = all(e.get("bit_identical") for e in entries.values())
        target = p.get("target_ratio", 1.5)
        clean = identical and p.get("best_ratio", 0.0) >= target
        flag = "  " if clean else "!!"
        cells = "  ".join(f"{k}={e['ratio']:.2f}x"
                          for k, e in sorted(entries.items()))
        return [
            "",
            "batched multi-sketch (throughput gate baseline):",
            f"{flag} k={p.get('batch', '?')} best {p['best_ratio']:.2f}x "
            f"(bar {target}x)  {cells}  "
            f"bit-identical={'yes' if identical else 'NO'}",
        ]
    except Exception as exc:  # noqa: BLE001
        return ["", f"!! BENCH_batch.json: unreadable ({exc})"]


def summarize() -> str:
    files = sorted(REPORTS.glob("*.txt"))
    files = [f for f in files if f.name != "SUMMARY.txt"]
    profiles = sorted(REPORTS.glob("PROFILE_*.json"))
    if not files and not profiles:
        return "no reports found — run `pytest benchmarks/ --benchmark-only` first\n"
    rows = []
    total_ok = total_warn = 0
    scale = "?"
    for f in files:
        text = f.read_text()
        ok = len(re.findall(r"\[shape OK\]", text))
        warn = len(re.findall(r"\[shape WARNING\]", text))
        m = re.search(r"\[scale=(\w+)\]", text)
        if m:
            scale = m.group(1)
        total_ok += ok
        total_warn += warn
        title = text.splitlines()[0].split("  [scale")[0] if text else f.stem
        rows.append((f.stem, ok, warn, title))
    lines = [
        "REPRODUCTION SCORECARD",
        "======================",
        f"reports: {len(rows)}   shape checks: {total_ok} OK, "
        f"{total_warn} WARNING   (scale={scale})",
        "",
    ]
    if rows:
        width = max(len(r[0]) for r in rows)
        for stem, ok, warn, title in rows:
            flag = "  " if warn == 0 else "!!"
            lines.append(
                f"{flag} {stem.ljust(width)}  OK={ok:<3d} WARN={warn:<2d} {title}")
    if profiles:
        lines.append("")
        lines.append(f"roofline profiles ({len(profiles)}):")
        for p in profiles:
            lines.append(_profile_line(p))
    metrics = sorted(REPORTS.glob("METRICS_*.json"))
    if metrics:
        lines.append("")
        lines.append(f"runtime health ({len(metrics)}):")
        for m_path in metrics:
            lines.append(_metrics_line(m_path))
        shard_lines = [line for m_path in metrics
                       for line in _sharding_lines(m_path)]
        if shard_lines:
            lines.append("")
            lines.append("sharding (partition-stage runs):")
            lines.extend(shard_lines)
    lines.extend(_cache_gate_lines())
    lines.extend(_shard_gate_lines())
    lines.extend(_batch_gate_lines())
    if total_warn:
        lines.append("")
        lines.append("warnings (expected deviations are documented in "
                     "EXPERIMENTS.md):")
        for f in files:
            for line in f.read_text().splitlines():
                if "[shape WARNING]" in line:
                    lines.append(f"  {f.stem}: {line.strip()}")
    return "\n".join(lines) + "\n"


def main() -> int:
    text = summarize()
    (REPORTS / "SUMMARY.txt").write_text(text)
    try:
        print(text)
    except BrokenPipeError:  # e.g. piped into `head`
        pass
    # Schema drift is the one scorecard problem that must not pass
    # silently: a metric family this script cannot name would otherwise
    # just be absent from a summary that claims everything held.
    unknown = []
    for m_path in sorted(REPORTS.glob("METRICS_*.json")):
        try:
            payload = json.loads(m_path.read_text())
        except Exception:  # noqa: BLE001 - already flagged as unreadable
            continue
        unknown += [f"{m_path.stem}: {name}"
                    for name in _unknown_families(payload)]
    if unknown:
        print("schema-unknown metric families (extend "
              "KNOWN_METRIC_FAMILIES in benchmarks/summarize_reports.py "
              "alongside the observer change):", file=sys.stderr)
        for entry in unknown:
            print(f"  {entry}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
