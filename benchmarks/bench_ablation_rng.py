"""Ablation — RNG engineering choices (Section IV-B).

Sweeps the generator-level design knobs this reproduction exposes:

* xoshiro lane width (the SIMD-interleaving factor; the paper used 8
  64-bit lanes, our NumPy realization defaults to a wider 64 to amortize
  interpreter overhead);
* Philox round count (10 = crush-resistant standard, 7 = the common fast
  variant).

Reported: generation throughput per setting.
"""

from __future__ import annotations

from _harness import emit_report, shape_check

from repro.rng import PhiloxSketchRNG, XoshiroSketchRNG, rng_sample_rate


def test_ablation_lanes_report(benchmark):
    def run():
        out = {}
        for lanes in (1, 8, 32, 64, 128):
            rng = XoshiroSketchRNG(0, "uniform", n_lanes=lanes)
            out[lanes] = rng_sample_rate(rng, vector_length=4000,
                                         batch_columns=16, repeats=2)
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[lanes, rate, rate / rates[8]] for lanes, rate in rates.items()]
    notes = [shape_check(
        rates[64] > 2 * rates[8],
        "wide virtual lanes amortize interpreter overhead "
        f"({rates[64] / rates[8]:.1f}x over the paper's 8-lane layout)",
    )]
    emit_report(
        "ablation_lanes",
        "Ablation: xoshiro lane width (samples/s, short-vector regime)",
        ["lanes", "samples/s", "vs 8 lanes"],
        rows,
        notes="\n".join(notes),
    )
    assert rates[64] > rates[1]


def test_ablation_philox_rounds_report(benchmark):
    def run():
        out = {}
        for rounds in (7, 10):
            rng = PhiloxSketchRNG(0, "uniform", rounds=rounds)
            out[rounds] = rng_sample_rate(rng, vector_length=4000,
                                          batch_columns=16, repeats=2)
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[r, rate] for r, rate in rates.items()]
    notes = [shape_check(
        rates[7] >= rates[10],
        f"Philox4x32-7 is {rates[7] / rates[10]:.2f}x the speed of the "
        "10-round variant (the counter-based cost is in the rounds)",
    )]
    emit_report(
        "ablation_philox_rounds",
        "Ablation: Philox round count",
        ["rounds", "samples/s"],
        rows,
        notes="\n".join(notes),
    )
    assert rates[7] >= rates[10] * 0.95
