"""What a blocked run persists: one checkpoint lineage per column stripe.

Every entry of ``S`` is a pure function of ``(seed, coordinates)``, so a
finished row block of ``Ahat`` can be persisted, and any tile replayed,
whichever rung of the scheduler computed it.  :class:`StripeCheckpoints`
owns all of it: each stripe's lineage (a directory named by its column
range, so it survives a change in shard count, and a fingerprint naming
that range; an unsharded run keeps the plain base directory), row-block
completion and cadence, the snapshot layout (``completed_rows`` state
over one ``(r, Ahat[r:r+d1, c0:c1])`` payload per row block, shared with
:func:`repartition_checkpoints`) and resume.  :func:`stripe_lineages`
lists the lineages under a base directory.

This is what a stripe buys on one host.  Tasks run column-outer, so an
unsharded lineage completes a row block only in the last column sweep,
while a stripe completes its row blocks after its own sweep: stripes
set the checkpoint granularity, and their lineages let a run resume
under another shard count.
"""

from __future__ import annotations

import threading
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import CheckpointCorruptionError
from .resume import latest_verified_snapshot
from .snapshot import (
    CheckpointManager,
    Snapshot,
    check_fingerprint,
    run_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..parallel.resilience import RunHealth
    from ..plan.events import EventBus
    from ..plan.runtime import Stripes
    from ..plan.spec import SketchPlan
    from ..rng.base import SketchingRNG

__all__ = ["StripeCheckpoints", "stripe_dir", "stripe_fingerprint",
           "stripe_lineages", "repartition_checkpoints"]


def stripe_dir(base: Path | str, c0: int, c1: int) -> Path:
    """The checkpoint lineage directory of the stripe over columns
    ``[c0, c1)``."""
    return Path(base) / f"shard-{c0:08d}-{c1:08d}"


def stripe_lineages(base: Path | str) -> list[tuple[int, int, Path]]:
    """The stripe lineage directories under *base*, as ``(c0, c1, path)``
    in column order."""
    found = []
    for entry in sorted(Path(base).glob("shard-*")):
        try:
            c0, c1 = (int(p) for p in entry.name[6:].split("-"))
        except ValueError:
            continue
        if entry.is_dir():
            found.append((c0, c1, entry))
    return found


def stripe_fingerprint(plan: "SketchPlan", rng: "SketchingRNG", c0: int,
                       c1: int, sharded: bool) -> dict:
    """The run identity of the stripe over columns ``[c0, c1)``: the
    stripe's width, plus its global column range when *sharded*.  A
    resume must match every key but ``b_n`` (:func:`_resumable`)."""
    fp = run_fingerprint(
        mode="blocked", d=plan.problem.d, n=c1 - c0, b_d=plan.b_d,
        b_n=plan.b_n, kernel=plan.kernel, rng_kind=rng.family,
        seed=rng.seed, distribution=rng.dist.name)
    if sharded:
        fp["shard_col_start"] = int(c0)
        fp["shard_col_stop"] = int(c1)
    return fp


def _resumable(fp: dict) -> tuple[str, ...]:
    """The keys of *fp* a resume must match.  ``b_n`` is not one: the
    column blocking moves no bit of a row block's stripe (the planner
    narrows it for a fleet), and restored rows span whole stripes."""
    return tuple(k for k in fp if k != "b_n")


def _verified(directory: Path, health: "RunHealth | None" = None):
    """The newest verified snapshot of a lineage, or ``None`` when it has
    none or every one is damaged: a damaged lineage is recomputed, never
    trusted, and named in *health*."""
    try:
        return latest_verified_snapshot(directory)
    except CheckpointCorruptionError as exc:
        if health is not None:
            health.record(f"checkpoint lineage {directory}: recomputed "
                          f"({exc})")
        return None


def _completed_rows(snap: Snapshot) -> set[int]:
    return {int(r) for r in snap.state.get("completed_rows", [])}


def _save_rows(manager: CheckpointManager, arr: np.ndarray, rows: list[int],
               fp: dict, b_d: int) -> Path:
    """Snapshot the row blocks starting at *rows* of *arr* (one stripe's
    columns of the accumulator)."""
    return manager.save([(r, arr[r:r + b_d]) for r in rows], fp,
                        {"completed_rows": rows})


class StripeCheckpoints:
    """The checkpoints of one blocked run over its stripes
    (:class:`~repro.plan.runtime.Stripes`).

    The scheduler calls :meth:`enter` as a stripe's task group begins,
    :meth:`commit` after each committed tile and :meth:`seal` before the
    stripe's merge.  :meth:`commit` may run on several threads: it takes
    the completed row set under a lock and saves outside it, and a
    ``torn_write`` fault's crash propagates to its caller.  *rng* comes
    from the run's live factory, so the fingerprint names what ran;
    ``checkpoint_written`` fires on *bus*; *injector* reaches the
    writer's storage faults (testing only); *health* names each lineage
    that had no verifiable snapshot.
    """

    def __init__(self, plan: "SketchPlan", rng: "SketchingRNG",
                 stripes: "Stripes", bus: "EventBus", *,
                 injector: "FaultInjector | None" = None,
                 health: "RunHealth | None" = None) -> None:
        policy = self.policy = plan.persistence
        self.plan, self.stripes, self._rng = plan, stripes, rng
        self._bus, self._injector, self._health = bus, injector, health
        self._base = Path(policy.to_dict()["checkpoint_dir"])
        self._seeded = (repartition_checkpoints(plan, stripes.bounds, rng,
                                                self._base)
                        if stripes.sharded and policy.resume else set())
        self.manager: CheckpointManager | None = None  # the stripe's lineage
        self.snapshots_written = 0
        self.resumed_from: Path | None = None
        self._lock = threading.Lock()
        self._pending: Counter = Counter()  # row offset -> tiles to commit
        self._done: set[int] = set()        # completed row offsets
        self._since = 0                     # completed since the last save

    def enter(self, k: int, tasks: list, out: np.ndarray
              ) -> tuple[list, dict | None]:
        """Switch to stripe *k*, whose task group *tasks* writes *out*.

        A resumed run restores the stripe's completed row blocks into
        *out*; a lineage with no verifiable snapshot is recomputed.
        Returns the tasks still to run and, when rows were restored, the
        stripe's ``shard_resumed`` fields.
        """
        c0, c1 = self._window = self.stripes.bounds[k]
        self._out = out
        self._fp = stripe_fingerprint(self.plan, self._rng, c0, c1,
                                      self.stripes.sharded)
        self.manager = (
            CheckpointManager(stripe_dir(self._base, c0, c1),
                              keep=self.policy.keep, injector=self._injector)
            if self.stripes.sharded
            else self.manager or self.policy.build_manager(self._injector))
        snap = (_verified(self.manager.directory, self._health)
                if self.policy.resume else None)
        if snap is not None:
            check_fingerprint(snap.fingerprint, self._fp,
                              keys=_resumable(self._fp))
        self._done = _completed_rows(snap) if snap else set()
        self._since, resumed = 0, None
        if self._done:
            arr = snap.load_array(verify=False)  # verified at load
            for r in self._done:
                out[r:r + self.plan.b_d, c0:c1] = arr[r:r + self.plan.b_d]
            tasks = [t for t in tasks if t[0] not in self._done]
            self.resumed_from = self.resumed_from or snap.path
            resumed = {"rows": len(self._done), "source": str(snap.path),
                       "repartitioned": k in self._seeded}
        self._pending = Counter(t[0] for t in tasks)
        return tasks, resumed

    def commit(self, i: int) -> None:
        """Count a committed tile of row block *i*; save the completed row
        blocks once ``every`` of them are new."""
        self._flush(self.policy.every, row=i)

    def seal(self) -> None:
        """Save what is new before the stripe's merge post-scales it: a
        payload is always the raw accumulation, like an interrupted
        run's."""
        self._flush(1)

    def record(self, stats) -> None:
        """Stamp the run's snapshot count and resume source on *stats*."""
        stats.extra["snapshots_written"] = self.snapshots_written
        stats.extra["resumed_from"] = (str(self.resumed_from)
                                       if self.resumed_from else None)

    def _flush(self, due: int, row: int | None = None) -> None:
        from ..plan.events import CHECKPOINT_WRITTEN
        from ..utils.timing import Timer

        with self._lock:
            if row is not None:
                self._pending[row] -= 1
                if not self._pending[row]:
                    self._done.add(row)
                    self._since += 1
            if self._since < due:
                return
            self._since = 0
            self.snapshots_written += 1
            rows, written = sorted(self._done), self.snapshots_written
        c0, c1 = self._window
        with Timer() as write:
            path = _save_rows(self.manager, self._out[:, c0:c1], rows,
                              self._fp, self.plan.b_d)
        self._bus.emit(CHECKPOINT_WRITTEN, path=path, rows=rows,
                       snapshots_written=written, seconds=write.elapsed)


def repartition_checkpoints(plan: "SketchPlan",
                            bounds: tuple[tuple[int, int], ...],
                            rng: "SketchingRNG", base: Path) -> set[int]:
    """Seed each stripe's checkpoint lineage from prior verified state.

    A resumed sharded run may use *different* stripe *bounds* than the
    interrupted one (another shard count, or another ``b_n``).  Stripe
    lineages are keyed by column range, so this pass re-partitions: for
    every new stripe without its own usable snapshot, it assembles the
    stripe's payload from the verified snapshots of overlapping prior
    stripes (any layout, including the unsharded base-directory lineage
    treated as one full-width stripe) and writes it as the stripe's
    first snapshot.  A row block counts as completed only when *every*
    overlapping prior stripe completed it — partial rows are simply
    recomputed, which is always correct (generators are
    coordinate-keyed).  Damaged or fingerprint-incompatible prior state
    is skipped, never trusted: the fallback is a fresh compute, not a
    wrong resume.

    Returns the indices of the stripes it seeded.
    """
    # Prior state is re-partitionable when its width matches its range
    # and every other resumable key matches.
    ref = stripe_fingerprint(plan, rng, 0, plan.problem.n, sharded=False)
    keys = [k for k in _resumable(ref) if k != "n"]

    def usable(snap, width: int) -> bool:
        fp = snap.fingerprint if snap is not None else {}
        return fp.get("n") == width and all(fp.get(k) == ref[k]
                                            for k in keys)

    sources = [(o0, o1, snap) for o0, o1, path in stripe_lineages(base)
               if usable(snap := _verified(path), o1 - o0)]
    legacy = _verified(base)
    if usable(legacy, plan.problem.n) \
            and "shard_col_start" not in legacy.fingerprint:
        sources.append((0, plan.problem.n, legacy))

    seeded: set[int] = set()
    for k, (c0, c1) in enumerate(bounds):
        fp = stripe_fingerprint(plan, rng, c0, c1, sharded=True)
        own = _verified(stripe_dir(base, c0, c1))
        if own is not None and all(own.fingerprint.get(key) == fp[key]
                                   for key in _resumable(fp)):
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
            _completed_rows(snap) for _o0, _o1, snap in overlaps)))
        if not row_list:
            continue
        arr = np.zeros((plan.problem.d, c1 - c0), dtype=np.float64)
        for o0, o1, snap in overlaps:
            old = snap.load_array(verify=False)  # verified at discovery
            a0, a1 = max(c0, o0), min(c1, o1)
            arr[:, a0 - c0:a1 - c0] = old[:, a0 - o0:a1 - o0]
        _save_rows(CheckpointManager(stripe_dir(base, c0, c1),
                                     keep=plan.persistence.keep),
                   arr, row_list, fp, plan.b_d)
        seeded.add(k)
    return seeded
