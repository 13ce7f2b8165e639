"""Integrity audit of stored snapshots by RNG-replay recomputation.

Checksums (see :mod:`repro.persist.checksum`) catch damage that happened
*after* a block file was checksummed — torn flushes, bit rot at rest.
They cannot catch corruption that happened *before*: a bad DIMM or a
buggy writer producing a wrong block that was then faithfully
checksummed.  The paper's RNG contract closes that hole: because every
entry of ``S`` is a pure function of ``(seed, coordinate)``, any tile of
the stored partial ``Ahat`` can be *recomputed from scratch* through the
same kernel backend and compared bit-for-bit — an algorithm-based fault
tolerance check that needs no second copy of anything.

:func:`verify_snapshot` samples ``k`` (row-block x column-block) tiles,
replays them, and quarantines any row block whose tile disagrees; with
``repair=True`` the quarantined row blocks are recomputed whole and a
new snapshot is written through the normal atomic protocol;
:func:`verify_checkpoints` audits every lineage under a directory.

Replay exactness: a streaming snapshot carries its batch log (the
``(offset, rows)`` of every absorbed batch).  For one output tile the
streaming run accumulated ``sum_t update_t[tile]`` in batch order; the
auditor rebuilds each batch as a row window of ``A``, runs the same
block kernel on the same backend, and accumulates in the same order, so
agreement is exact (bit-identical), not approximate.  Blocked-mode
snapshots replay each tile as the executor computed it (one kernel call,
pre-``post_scale``), a sharded run's stripe against its columns of ``A``
(generators key on the row offset and the sparse row, never on the
column).  Entry-mode snapshots (``absorb_entries``) are not
coordinate-replayable and get checksum-only verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ShapeError
from ..sparse.csc import CSCMatrix
from .resume import latest_verified_snapshot
from .snapshot import CheckpointManager, Snapshot, list_snapshots, load_snapshot

__all__ = ["TileAudit", "VerifyReport", "verify_snapshot",
           "verify_checkpoints"]


@dataclass(frozen=True)
class TileAudit:
    """Outcome of replaying one sampled (row-block x column-block) tile."""

    row_offset: int
    rows: int
    col_offset: int
    cols: int
    ok: bool
    max_abs_diff: float

    def as_dict(self) -> dict:
        return {
            "row_offset": self.row_offset, "rows": self.rows,
            "col_offset": self.col_offset, "cols": self.cols,
            "ok": self.ok, "max_abs_diff": self.max_abs_diff,
        }


@dataclass
class VerifyReport:
    """Result of one snapshot audit (see :func:`verify_snapshot`)."""

    snapshot: str
    seq: int
    mode: str
    method: str  #: ``"replay"`` or ``"checksum-only"``
    tiles_total: int
    audits: list[TileAudit] = field(default_factory=list)
    quarantined_row_offsets: list[int] = field(default_factory=list)
    repaired_path: str | None = None

    @property
    def tiles_audited(self) -> int:
        return len(self.audits)

    @property
    def corrupt(self) -> list[TileAudit]:
        return [a for a in self.audits if not a.ok]

    @property
    def ok(self) -> bool:
        """True when every audited tile replayed bit-identically."""
        return not self.corrupt

    def as_dict(self) -> dict:
        return {
            "snapshot": self.snapshot, "seq": self.seq, "mode": self.mode,
            "method": self.method, "ok": self.ok,
            "tiles_total": self.tiles_total,
            "tiles_audited": self.tiles_audited,
            "corrupt": [a.as_dict() for a in self.corrupt],
            "quarantined_row_offsets": list(self.quarantined_row_offsets),
            "repaired_path": self.repaired_path,
        }


# -- replay machinery -------------------------------------------------------


def _row_window(sub: CSCMatrix, r0: int, r1: int) -> CSCMatrix:
    """Rows ``[r0, r1)`` of a CSC matrix, rebased to start at row 0.

    Within each CSC column the row indices are strictly increasing, so a
    mask-and-rebase reproduces the exact entry order the original batch
    had — the property batch replay relies on.
    """
    keep = (sub.indices >= r0) & (sub.indices < r1)
    csum = np.zeros(sub.indices.size + 1, dtype=np.int64)
    np.cumsum(keep, out=csum[1:])
    return CSCMatrix(
        (r1 - r0, sub.shape[1]),
        csum[sub.indptr],
        sub.indices[keep] - r0,
        sub.data[keep],
        check=False,
    )


def _kernel_block(kernel: str, view: np.ndarray, sub: CSCMatrix, r: int,
                  rng) -> None:
    """Run one block through the same kernel path the run used."""
    from ..kernels.blocking import compute_tile

    blocks = {}
    if kernel == "algo4":
        from ..sparse.convert import csc_to_blocked_csr

        blocked, _ = csc_to_blocked_csr(sub, sub.shape[1])
        blocks = dict(blocked.iter_blocks())
    compute_tile(kernel, view, sub, blocks, r, 0, sub.shape[1], rng)


class _Replayer:
    """Recomputes tiles of a stored partial sketch from ``A`` + fingerprint."""

    def __init__(self, snap: Snapshot, A: CSCMatrix) -> None:
        from ..kernels.backends import available_backends
        from ..rng.base import make_rng
        from ..utils.validation import check_choice

        fp = snap.fingerprint
        if "shard_col_start" in fp:
            A = A.col_block(int(fp["shard_col_start"]),
                            int(fp["shard_col_stop"]))
        if A.shape[1] != int(fp["n"]):
            raise ShapeError(
                f"A has {A.shape[1]} columns, snapshot fingerprint says "
                f"{fp['n']}"
            )
        self.fp = fp
        self.mode = fp["mode"]
        self.kernel = fp["kernel"]
        self.A = A
        self.rng = make_rng(fp["rng_kind"], fp["seed"], fp["distribution"])
        # Refuse a fingerprint naming a backend this build cannot run.
        check_choice(fp["backend"], "backend", available_backends())
        self.batches = [(int(o), int(c))
                        for o, c in snap.state.get("batches", [])]
        self._col_cache: dict[int, CSCMatrix] = {}

    def _col_window(self, j: int, n1: int) -> CSCMatrix:
        sub = self._col_cache.get(j)
        if sub is None:
            sub = self.A.col_block(j, j + n1)
            self._col_cache[j] = sub
        return sub

    def tile(self, r: int, d1: int, j: int, n1: int) -> np.ndarray:
        """Recompute ``Ahat[r:r+d1, j:j+n1]`` exactly as the run built it."""
        from ..core.streaming import _OffsetRNG

        sub = self._col_window(j, n1)
        acc = np.zeros((d1, n1), dtype=np.float64, order="F")
        if self.mode == "streaming":
            tmp = np.zeros_like(acc)
            for off, cnt in self.batches:
                win = _row_window(sub, off, off + cnt)
                tmp[:] = 0.0
                _kernel_block(self.kernel, tmp, win, r,
                              _OffsetRNG(self.rng, off))
                acc += tmp
        else:
            _kernel_block(self.kernel, acc, sub, r, self.rng)
        return acc

    def row_block(self, r: int, d1: int, b_n: int) -> np.ndarray:
        """Recompute one full stored row block (repair path)."""
        n = int(self.fp["n"])
        out = np.zeros((d1, n), dtype=np.float64, order="F")
        for j in range(0, n, b_n):
            n1 = min(b_n, n - j)
            out[:, j:j + n1] = self.tile(r, d1, j, n1)
        return out


def _sample_tiles(blocks: list[dict], col_offsets: list[int],
                  k: int | None, exhaustive: bool,
                  seed: int) -> list[tuple[dict, int]]:
    """Pick the (manifest block, column offset) pairs to audit.

    Default (``k is None``): stratified — every stored row block is
    audited at one uniformly random column tile, so corruption anywhere
    in a row block has detection probability ``1/C`` per pass (``C``
    column tiles) and corruption spanning a whole row block is caught
    with certainty.  An explicit ``k`` adds (or, when smaller than the
    row-block count, subsamples) uniform tiles; ``exhaustive`` audits
    every tile.
    """
    pairs = [(blk, j) for blk in blocks for j in col_offsets]
    if exhaustive:
        return pairs
    prng = np.random.default_rng(seed)
    chosen: list[tuple[dict, int]] = []
    strata = blocks
    if k is not None and k < len(blocks):
        idx = prng.choice(len(blocks), size=k, replace=False)
        strata = [blocks[i] for i in sorted(idx)]
    for blk in strata:
        chosen.append((blk, col_offsets[int(prng.integers(len(col_offsets)))]))
    if k is not None and k > len(chosen):
        seen = {(id(b), j) for b, j in chosen}
        extra = [p for p in pairs if (id(p[0]), p[1]) not in seen]
        take = min(k - len(chosen), len(extra))
        if take:
            idx = prng.choice(len(extra), size=take, replace=False)
            chosen.extend(extra[i] for i in sorted(idx))
    return chosen


# -- the auditor ------------------------------------------------------------


def verify_snapshot(source: str | Path | Snapshot,
                    A: CSCMatrix | None = None, *, k: int | None = None,
                    exhaustive: bool = False, seed: int = 0,
                    repair: bool = False) -> VerifyReport:
    """Audit a snapshot's stored sketch data against recomputation.

    Parameters
    ----------
    source:
        A checkpoint directory (the newest verified snapshot is audited),
        a snapshot directory, or a loaded :class:`Snapshot`.
    A:
        The sparse input the run was sketching.  Without it — or for
        entry-mode snapshots, which are not coordinate-replayable — the
        audit degrades to checksum-only verification (reported as
        ``method="checksum-only"``).
    k, exhaustive, seed:
        Tile sampling (see the sampling note below); ``k=None`` audits
        one random column tile per stored row block, ``exhaustive=True``
        audits every tile.
    repair:
        Recompute every quarantined row block whole and write a repaired
        snapshot through the atomic protocol (requires replayability);
        its path is returned in ``report.repaired_path``.

    Detection math: with ``B`` stored row blocks and ``C`` column tiles,
    the default stratified pass audits ``B`` tiles and catches a
    corruption confined to a single tile with probability ``1/C`` (and
    always lands at least one audit in the damaged row block); ``t``
    independent passes with different *seed* miss it with probability
    ``(1 - 1/C)^t``.  ``exhaustive=True`` is the certainty option at
    ``B*C`` tile recomputes.
    """
    if isinstance(source, Snapshot):
        snap = source
    else:
        path = Path(source)
        if (path / "MANIFEST.json").exists():
            snap = load_snapshot(path, verify=True)
        else:
            found = latest_verified_snapshot(path)
            if found is None:
                raise CheckpointError(f"no snapshot found in {path}")
            snap = found
    fp = snap.fingerprint
    state = snap.state
    blocks = list(snap.manifest["blocks"])
    b_n = int(fp["b_n"])
    n = int(fp["n"])
    col_offsets = list(range(0, n, b_n))
    tiles_total = len(blocks) * len(col_offsets)

    entry_mode = (fp["mode"] == "streaming"
                  and int(state.get("entry_chunks", 0)) > 0)
    if A is None or entry_mode:
        snap.verify_files()
        return VerifyReport(
            snapshot=str(snap.path), seq=snap.seq, mode=fp["mode"],
            method="checksum-only", tiles_total=tiles_total,
        )

    replayer = _Replayer(snap, A)
    report = VerifyReport(
        snapshot=str(snap.path), seq=snap.seq, mode=fp["mode"],
        method="replay", tiles_total=tiles_total,
    )
    quarantined: dict[int, dict] = {}
    for blk, j in _sample_tiles(blocks, col_offsets, k, exhaustive, seed):
        r, d1 = int(blk["row_offset"]), int(blk["rows"])
        n1 = min(b_n, n - j)
        stored = snap.load_block(blk)[:, j:j + n1]
        expected = replayer.tile(r, d1, j, n1)
        same = np.array_equal(stored, expected)
        diff = 0.0 if same else float(np.max(np.abs(stored - expected)))
        report.audits.append(TileAudit(
            row_offset=r, rows=d1, col_offset=j, cols=n1, ok=same,
            max_abs_diff=diff,
        ))
        if not same:
            quarantined[r] = blk
    report.quarantined_row_offsets = sorted(quarantined)

    if repair and quarantined:
        new_blocks = []
        for blk in blocks:
            r, d1 = int(blk["row_offset"]), int(blk["rows"])
            if r in quarantined:
                new_blocks.append((r, replayer.row_block(r, d1, b_n)))
            else:
                new_blocks.append((r, snap.load_block(blk)))
        manager = CheckpointManager(snap.path.parent)
        report.repaired_path = str(manager.save(new_blocks, fp, state))
    return report


def verify_checkpoints(directory: str | Path, A: CSCMatrix | None = None,
                       **audit) -> list[VerifyReport]:
    """Audit each lineage under *directory* with :func:`verify_snapshot`.

    The directory's own snapshots, if any, come first, then each stripe
    lineage of a sharded run (:func:`repro.persist.shards.stripe_lineages`).
    """
    from .shards import stripe_lineages

    path = Path(directory)
    lineages = [p for _c0, _c1, p in stripe_lineages(path)]
    if not lineages or list_snapshots(path):
        lineages.insert(0, path)
    return [verify_snapshot(p, A, **audit) for p in lineages]
