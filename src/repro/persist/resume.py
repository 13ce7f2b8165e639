"""Restore interrupted sketching runs from the last verified-good snapshot.

Recovery contract:

* only a snapshot whose manifest parses, whose files all exist at their
  declared sizes, and whose content checksums match is ever restored;
* damaged snapshots (torn writes, bit rot) are skipped in favour of the
  newest older snapshot that verifies — a crash can lose at most the work
  since the last good snapshot, never corrupt the result;
* a snapshot whose config fingerprint disagrees with the resuming run
  (different blocking, kernel, backend, RNG family/seed/distribution)
  raises :class:`~repro.errors.CheckpointMismatchError` — resuming across
  configs would produce a sketch matching neither, silently.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
)
from .snapshot import (
    CheckpointManager,
    Snapshot,
    check_fingerprint,
    list_snapshots,
    load_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.streaming import StreamingSketch

__all__ = [
    "latest_verified_snapshot",
    "resume_streaming",
    "try_resume_streaming",
]

_LOG = logging.getLogger("repro.persist")


def latest_verified_snapshot(directory: str | Path) -> Snapshot | None:
    """The newest snapshot that passes full checksum verification.

    Returns ``None`` when *directory* holds no snapshots at all.  When
    snapshots exist but every one is damaged, raises
    :class:`~repro.errors.CheckpointCorruptionError` naming each failure —
    a loadable-but-wrong checkpoint is never returned.
    """
    snaps = list_snapshots(directory)
    if not snaps:
        return None
    failures = []
    for seq, path in reversed(snaps):
        try:
            return load_snapshot(path, verify=True)
        except CheckpointCorruptionError as exc:
            _LOG.warning("skipping damaged snapshot %s: %s", path.name, exc)
            failures.append(f"{path.name}: {exc}")
    raise CheckpointCorruptionError(
        f"no verifiable snapshot in {directory}; all candidates damaged: "
        + " | ".join(failures)
    )


def _restore_streaming(snap: Snapshot, *, checkpoint_every: int | None,
                       keep: int, injector=None,
                       expect: dict | None = None) -> "StreamingSketch":
    from ..core.streaming import StreamingSketch
    from ..rng.base import make_rng

    fp = snap.fingerprint
    if fp.get("mode") != "streaming":
        raise CheckpointMismatchError(
            f"snapshot {snap.path.name} was written by a "
            f"{fp.get('mode')!r} run, not a streaming one"
        )
    if expect:
        check_fingerprint(fp, expect, keys=tuple(expect))
    state = snap.state
    rng = make_rng(fp["rng_kind"], fp["seed"], fp["distribution"])
    rng.samples_generated = int(state.get("samples_generated", 0))
    manager = CheckpointManager(snap.path.parent, keep=keep,
                                injector=injector)
    from ..plan.policy import PersistencePolicy

    st = StreamingSketch(
        int(fp["d"]), int(fp["n"]), rng, kernel=fp["kernel"],
        b_d=int(fp["b_d"]), b_n=int(fp["b_n"]),
        persistence=PersistencePolicy(manager=manager),
    )
    st.checkpoint_every = checkpoint_every
    check_fingerprint(fp, st.fingerprint())
    st._sketch[:, :] = snap.load_array(verify=False)  # verified at load
    st.rows_seen = int(state["rows_seen"])
    st.batches_absorbed = int(state["batches_absorbed"])
    st.batch_log = [(int(o), int(c)) for o, c in state.get("batches", [])]
    st.entry_chunks_absorbed = int(state.get("entry_chunks", 0))
    st._rows_at_last_snapshot = st.rows_seen
    st.resumed_from = snap.path
    _LOG.info("resumed streaming sketch from %s (rows_seen=%d, seq=%d)",
              snap.path, st.rows_seen, snap.seq)
    return st


def resume_streaming(directory: str | Path, *,
                     checkpoint_every: int | None = None,
                     keep: int = 2, injector=None,
                     expect: dict | None = None) -> "StreamingSketch":
    """Restore a :class:`~repro.core.StreamingSketch` from *directory*.

    The returned sketch has the partial ``Ahat``, row offset, batch log,
    and RNG accounting of the interrupted run and a reattached
    :class:`CheckpointManager` continuing the same sequence numbers, so
    absorbing the remaining batches (same chunking) finishes with a
    ``Ahat`` bit-identical to an uninterrupted run.

    *expect* pins fingerprint keys the resuming caller was explicitly
    configured with (e.g. ``{"d": 300, "kernel": "algo4"}``); a snapshot
    disagreeing on any pinned key is rejected rather than silently
    overriding the caller's config.

    Raises :class:`~repro.errors.CheckpointError` when the directory holds
    no snapshot, :class:`~repro.errors.CheckpointCorruptionError` when all
    snapshots are damaged, and
    :class:`~repro.errors.CheckpointMismatchError` on config drift.
    """
    snap = latest_verified_snapshot(directory)
    if snap is None:
        raise CheckpointError(f"no snapshot found in {directory}")
    return _restore_streaming(snap, checkpoint_every=checkpoint_every,
                              keep=keep, injector=injector, expect=expect)


def try_resume_streaming(directory: str | Path, *,
                         checkpoint_every: int | None = None,
                         keep: int = 2, injector=None,
                         expect: dict | None = None
                         ) -> "StreamingSketch | None":
    """Like :func:`resume_streaming` but ``None`` when nothing to resume.

    Damage and fingerprint drift still raise — only the benign "fresh
    directory" case is folded into ``None`` so first runs and restarted
    runs can share one code path.
    """
    if latest_verified_snapshot(directory) is None:
        return None
    return resume_streaming(directory, checkpoint_every=checkpoint_every,
                            keep=keep, injector=injector, expect=expect)
