"""The checkpoint layout of a sharded run: one lineage directory per
column stripe, named by its column range so it survives a change in
shard count, and a fingerprint naming that range so equal-width stripes
never adopt each other's snapshots.  An unsharded run keeps the plain
base directory and fingerprint."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .resume import latest_verified_snapshot
from .snapshot import FINGERPRINT_KEYS, CheckpointManager, run_fingerprint

if TYPE_CHECKING:  # pragma: no cover
    from ..plan.spec import ShardPlan, SketchPlan
    from ..rng.base import SketchingRNG

__all__ = ["stripe_dir", "stripe_fingerprint", "repartition_checkpoints"]


def stripe_dir(base: Path | str, c0: int, c1: int) -> Path:
    """The checkpoint lineage directory of the stripe over columns
    ``[c0, c1)``."""
    return Path(base) / f"shard-{c0:08d}-{c1:08d}"


def stripe_fingerprint(plan: "SketchPlan", rng: "SketchingRNG", c0: int,
                       c1: int, sharded: bool) -> dict:
    """The run identity of the stripe over columns ``[c0, c1)``: the
    stripe's width, plus its global column range when *sharded*.  Every
    key is one a resume must match."""
    fp = run_fingerprint(
        mode="blocked", d=plan.problem.d, n=c1 - c0, b_d=plan.b_d,
        b_n=plan.b_n, kernel=plan.kernel, rng_kind=rng.family,
        seed=rng.seed, distribution=rng.dist.name)
    if sharded:
        fp["shard_col_start"] = int(c0)
        fp["shard_col_stop"] = int(c1)
    return fp


def _verified(directory: Path):
    try:
        return latest_verified_snapshot(directory)
    except Exception:  # noqa: BLE001 - damaged lineage: recompute
        return None


def repartition_checkpoints(plan: "SketchPlan",
                            shards: "tuple[ShardPlan, ...]",
                            rng: "SketchingRNG", base: Path
                            ) -> dict[int, dict]:
    """Seed each stripe's checkpoint lineage from prior verified state.

    A resumed sharded run may use a *different* shard count than the
    interrupted one.  Stripe lineages are keyed by column range, so
    this pass re-partitions: for every new stripe without its own
    usable snapshot, it assembles the stripe's payload from the
    verified snapshots of overlapping prior stripes (any layout,
    including the unsharded base-directory lineage treated as one
    full-width stripe) and writes it as the stripe's first snapshot.
    A row block counts as completed only when *every* overlapping prior
    stripe completed it — partial rows are simply recomputed, which is
    always correct (generators are coordinate-keyed).  Damaged or
    fingerprint-incompatible prior state is skipped, never trusted: the
    fallback is a fresh compute, not a wrong resume.

    Returns ``{shard index: {"rows": ..., "repartitioned": ...}}`` for
    shards with state to resume (feeds ``shard_resumed`` events).
    """
    def fingerprint(shard: "ShardPlan") -> dict:
        return stripe_fingerprint(plan, rng, shard.col_start,
                                  shard.col_stop, sharded=True)

    # Prior state is re-partitionable when its width matches its range
    # and every stripe-independent key matches.
    compat_keys = tuple(k for k in FINGERPRINT_KEYS if k != "n")
    ref = fingerprint(shards[0])

    def compatible(snap, width: int) -> bool:
        fp = snap.fingerprint
        return int(fp.get("n", -1)) == width and all(
            fp.get(k) == ref.get(k) for k in compat_keys)

    sources: list[tuple[int, int, object]] = []
    if base.is_dir():
        for entry in sorted(base.glob("shard-*")):
            try:
                o0, o1 = (int(p) for p in entry.name[6:].split("-"))
            except ValueError:
                continue
            snap = _verified(entry) if entry.is_dir() else None
            if snap is not None and compatible(snap, o1 - o0):
                sources.append((o0, o1, snap))
        legacy = _verified(base)
        if legacy is not None and compatible(legacy, plan.problem.n) \
                and legacy.fingerprint.get("shard_col_start") is None:
            sources.append((0, plan.problem.n, legacy))

    d, b_d = plan.problem.d, plan.b_d
    seeded: dict[int, dict] = {}
    for shard in shards:
        c0, c1 = shard.col_start, shard.col_stop
        fp = fingerprint(shard)
        own = _verified(stripe_dir(base, c0, c1))
        if own is not None and all(own.fingerprint.get(k) == v
                                   for k, v in fp.items()):
            seeded[shard.index] = {
                "rows": len(own.state.get("completed_rows", [])),
                "repartitioned": False}
            continue
        overlaps = sorted(
            ((o0, o1, snap) for o0, o1, snap in sources
             if o0 < c1 and o1 > c0 and not (o0 == c0 and o1 == c1)),
            key=lambda t: (t[0], t[1]))
        cover = c0
        for o0, o1, _snap in overlaps:
            if o0 > cover:
                break
            cover = max(cover, o1)
        if not overlaps or cover < c1:
            continue
        row_list = sorted(set.intersection(*(
            {int(r) for r in snap.state.get("completed_rows", [])}
            for _o0, _o1, snap in overlaps)))
        if not row_list:
            continue
        arr = np.zeros((d, shard.ncols), dtype=np.float64)
        for o0, o1, snap in overlaps:
            old = snap.load_array(verify=False)  # verified at discovery
            a0, a1 = max(c0, o0), min(c1, o1)
            arr[:, a0 - c0:a1 - c0] = old[:, a0 - o0:a1 - o0]
        blocks = [(r, arr[r:r + min(b_d, d - r), :]) for r in row_list]
        manager = CheckpointManager(stripe_dir(base, c0, c1),
                                    keep=plan.persistence.keep)
        manager.save(blocks, fp, {"completed_rows": row_list})
        seeded[shard.index] = {"rows": len(row_list),
                               "repartitioned": True}
    return seeded
