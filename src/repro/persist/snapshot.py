"""Durable, atomic snapshots of partial sketches.

A snapshot is a directory holding the partial ``Ahat`` as one ``.npy``
file per row block plus a versioned JSON manifest (written last) that
records a content checksum for every block file, the run's config
fingerprint, and the mutable progress state (rows absorbed, batch
offsets, completed row blocks, RNG sample counters).

Write protocol (crash-safe on POSIX semantics)::

    1. create  <dir>/.snapshot-<seq>.tmp-<pid>/
    2. write + fsync every block file into the temp directory
    3. write + fsync MANIFEST.json (naming every file, size, checksum)
    4. fsync the temp directory, rename it to <dir>/snapshot-<seq>,
       fsync the parent

A reader therefore only ever sees either no ``snapshot-<seq>`` entry or a
complete one; partially written state is confined to ``.tmp`` directories
that loaders ignore and the :class:`CheckpointManager` garbage-collects.
Because the manifest also carries per-file sizes and checksums, even a
snapshot damaged *after* the rename (a torn flush on power loss, a
bit-flip at rest) is detected at load time and recovery falls back to the
previous verified-good snapshot — see :mod:`repro.persist.resume`.

The sketch payload is stored **pre** ``post_scale``/normalization, i.e.
exactly the accumulation state of the interrupted run, so a resumed run
continues bit-identically and applies the scaling once at the end like an
uninterrupted run would.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CheckpointCorruptionError, CheckpointError, CheckpointMismatchError
from ..kernels.backends import NUMPY
from .checksum import checksum_bytes, default_algo

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "run_fingerprint",
    "check_fingerprint",
    "Snapshot",
    "list_snapshots",
    "write_snapshot",
    "CheckpointManager",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1
_SNAP_PREFIX = "snapshot-"
_TMP_PREFIX = ".snapshot-"

#: Keys every fingerprint carries; drift in any of them makes a snapshot
#: unresumable (the realized sketch would differ).
FINGERPRINT_KEYS = ("mode", "d", "n", "b_d", "b_n", "kernel", "backend",
                    "rng_kind", "seed", "distribution", "dtype")


# -- fingerprints -----------------------------------------------------------


def run_fingerprint(*, mode: str, d: int, n: int, b_d: int, b_n: int,
                    kernel: str, rng_kind: str, seed: int,
                    distribution: str, dtype: str = "float64") -> dict:
    """The immutable identity of a sketching run.

    The ``backend`` entry is always ``"numpy"``, the one kernel backend;
    it stays in the record so stored snapshots keep matching.

    Two runs with equal fingerprints produce bit-identical partial
    sketches at equal progress points, which is exactly the property
    resuming relies on; any drift is grounds for
    :class:`~repro.errors.CheckpointMismatchError`.
    """
    return {
        "mode": str(mode), "d": int(d), "n": int(n),
        "b_d": int(b_d), "b_n": int(b_n),
        "kernel": str(kernel), "backend": NUMPY.name,
        "rng_kind": str(rng_kind), "seed": int(seed),
        "distribution": str(distribution), "dtype": str(dtype),
    }


def check_fingerprint(stored: dict, current: dict,
                      keys: Sequence[str] = FINGERPRINT_KEYS) -> None:
    """Raise :class:`CheckpointMismatchError` if *stored* != *current*.

    Every drifted key is reported, never just the first, so a user who
    changed two flags sees both at once.  *keys* restricts the comparison
    (used for partial "expected config" checks where the caller only pins
    the parameters it was explicitly given).
    """
    drifted = []
    for key in keys:
        s, c = stored.get(key), current.get(key)
        if s != c:
            drifted.append(f"{key}: snapshot has {s!r}, run has {c!r}")
    if drifted:
        raise CheckpointMismatchError(
            "snapshot fingerprint does not match the resuming run — "
            "resuming would produce silent garbage: " + "; ".join(drifted)
        )


# -- low-level atomic IO ----------------------------------------------------


def _fsync_path(path: Path) -> None:
    """fsync a file or directory (directory fsync is best-effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file_sync(path: Path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _array_to_npy_bytes(arr: np.ndarray) -> bytes:
    bio = io.BytesIO()
    np.save(bio, arr)
    return bio.getvalue()


def _npy_bytes_to_array(data: bytes) -> np.ndarray:
    return np.load(io.BytesIO(data))


# -- snapshot naming / discovery -------------------------------------------


def _snapshot_name(seq: int) -> str:
    return f"{_SNAP_PREFIX}{seq:08d}"


def snapshot_seq(path: Path) -> int | None:
    """Sequence number encoded in a snapshot directory name, else None."""
    name = Path(path).name
    if not name.startswith(_SNAP_PREFIX):
        return None
    try:
        return int(name[len(_SNAP_PREFIX):])
    except ValueError:
        return None


def list_snapshots(directory: str | Path) -> list[tuple[int, Path]]:
    """All finalized snapshot directories under *directory*, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        seq = snapshot_seq(entry)
        if seq is not None and entry.is_dir():
            found.append((seq, entry))
    found.sort(key=lambda t: t[0])
    return found


# -- loaded snapshot view ---------------------------------------------------


@dataclass
class Snapshot:
    """A parsed (and, by default, checksum-verified) snapshot on disk."""

    path: Path
    manifest: dict

    @property
    def seq(self) -> int:
        return int(self.manifest["seq"])

    @property
    def fingerprint(self) -> dict:
        return self.manifest["fingerprint"]

    @property
    def state(self) -> dict:
        return self.manifest["state"]

    @property
    def checksum_algo(self) -> str:
        return self.manifest["checksum_algo"]

    def block_bytes(self, block: dict, *, verify: bool = True) -> bytes:
        """Raw bytes of one manifest block entry, checksum-verified."""
        fpath = self.path / block["file"]
        try:
            data = fpath.read_bytes()
        except OSError as exc:
            raise CheckpointCorruptionError(
                f"snapshot {self.path.name}: block file {block['file']!r} "
                f"unreadable: {exc}"
            ) from exc
        if len(data) != int(block["nbytes"]):
            raise CheckpointCorruptionError(
                f"snapshot {self.path.name}: torn write detected — "
                f"{block['file']!r} holds {len(data)} bytes, manifest "
                f"declares {block['nbytes']}"
            )
        if verify:
            digest = checksum_bytes(data, self.checksum_algo)
            if digest != block["checksum"]:
                raise CheckpointCorruptionError(
                    f"snapshot {self.path.name}: checksum mismatch on "
                    f"{block['file']!r} ({self.checksum_algo} {digest} != "
                    f"manifest {block['checksum']})"
                )
        return data

    def verify_files(self) -> None:
        """Re-verify every block file's size and checksum (raises on damage)."""
        for block in self.manifest["blocks"]:
            self.block_bytes(block, verify=True)

    def load_block(self, block: dict, *, verify: bool = True) -> np.ndarray:
        """Decode one stored row block as a ``rows x n`` array."""
        arr = _npy_bytes_to_array(self.block_bytes(block, verify=verify))
        if arr.shape != (int(block["rows"]), int(block["cols"])):
            raise CheckpointCorruptionError(
                f"snapshot {self.path.name}: {block['file']!r} decodes to "
                f"shape {arr.shape}, manifest declares "
                f"({block['rows']}, {block['cols']})"
            )
        return arr

    def load_array(self, *, verify: bool = True) -> np.ndarray:
        """Assemble the stored partial ``Ahat`` (zeros where no block is
        stored, e.g. row blocks a blocked run had not completed)."""
        fp = self.fingerprint
        out = np.zeros((int(fp["d"]), int(fp["n"])), dtype=np.float64,
                       order="F")
        for block in self.manifest["blocks"]:
            r = int(block["row_offset"])
            out[r:r + int(block["rows"]), :] = self.load_block(block,
                                                               verify=verify)
        return out


def _parse_manifest(path: Path) -> dict:
    mpath = path / MANIFEST_NAME
    try:
        raw = mpath.read_text()
    except OSError as exc:
        raise CheckpointCorruptionError(
            f"snapshot {path.name}: manifest unreadable: {exc}"
        ) from exc
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise CheckpointCorruptionError(
            f"snapshot {path.name}: manifest is not valid JSON "
            f"(torn write?): {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointCorruptionError(
            f"snapshot {path.name}: manifest is not a JSON object"
        )
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise CheckpointCorruptionError(
            f"snapshot {path.name}: manifest version {version!r} is not "
            f"supported (expected {MANIFEST_VERSION})"
        )
    for key in ("seq", "checksum_algo", "fingerprint", "state", "blocks"):
        if key not in manifest:
            raise CheckpointCorruptionError(
                f"snapshot {path.name}: manifest missing {key!r}"
            )
    return manifest


def load_snapshot(path: str | Path, *, verify: bool = True) -> Snapshot:
    """Parse (and by default fully checksum-verify) one snapshot directory."""
    path = Path(path)
    snap = Snapshot(path=path, manifest=_parse_manifest(path))
    if verify:
        snap.verify_files()
    return snap


# -- snapshot writing -------------------------------------------------------


def write_snapshot(directory: str | Path, seq: int,
                   blocks: Sequence[tuple[int, np.ndarray]],
                   fingerprint: dict, state: dict, *,
                   algo: str | None = None,
                   injector: "FaultInjector | None" = None) -> Path:
    """Atomically write one snapshot; returns its final directory.

    *blocks* is a sequence of ``(row_offset, rows x n array)`` pairs — the
    caller decides which row blocks are worth persisting (a streaming run
    stores all of them, a blocked run only the completed ones).

    *injector* is the fault-injection hook used by the robustness tests:
    ``bitflip`` faults corrupt a finalized block file (and collude by
    patching its manifest checksum, modelling corruption that happened
    *before* checksumming — only the sampled-tile audit of
    :mod:`repro.persist.verify` can catch that); ``torn_write`` faults
    truncate a block file and then raise, modelling a crash that beat the
    data to disk while the manifest survived.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    algo = algo if algo is not None else default_algo()
    final = directory / _snapshot_name(seq)
    if final.exists():
        raise CheckpointError(f"snapshot {final} already exists")
    tmp = directory / f"{_TMP_PREFIX}{seq:08d}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()

    manifest_blocks = []
    try:
        for row_offset, arr in blocks:
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim != 2:
                raise CheckpointError(
                    f"snapshot blocks must be 2-D, got ndim={arr.ndim}"
                )
            data = _array_to_npy_bytes(arr)
            fname = f"block-r{int(row_offset):08d}.npy"
            _write_file_sync(tmp / fname, data)
            manifest_blocks.append({
                "file": fname,
                "row_offset": int(row_offset),
                "rows": int(arr.shape[0]),
                "cols": int(arr.shape[1]),
                "nbytes": len(data),
                "checksum": checksum_bytes(data, algo),
            })
        manifest = {
            "version": MANIFEST_VERSION,
            "seq": int(seq),
            "checksum_algo": algo,
            "fingerprint": dict(fingerprint),
            "state": dict(state),
            "blocks": manifest_blocks,
        }
        _write_file_sync(tmp / MANIFEST_NAME,
                         json.dumps(manifest, indent=1).encode())
        _fsync_path(tmp)
        os.replace(tmp, final)
        _fsync_path(directory)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    if injector is not None:
        _apply_snapshot_faults(injector, final, manifest)
    return final


def _apply_snapshot_faults(injector: "FaultInjector", final: Path,
                           manifest: dict) -> None:
    """Fire planned ``bitflip``/``torn_write`` faults on a finalized snapshot."""
    manifest_dirty = False
    for idx, block in enumerate(manifest["blocks"]):
        kinds = injector.snapshot_faults(int(manifest["seq"]), idx)
        if not kinds:
            continue
        fpath = final / block["file"]
        if "bitflip" in kinds:
            data = bytearray(fpath.read_bytes())
            # Flip one bit in the payload region (past the ~128-byte .npy
            # header) so the stored float changes by an undetectably small
            # or absurdly large amount depending on which bit falls here.
            pos = min(len(data) - 1, 128 + (len(data) - 128) // 2)
            data[pos] ^= 0x10
            fpath.write_bytes(bytes(data))
            block["nbytes"] = len(data)
            block["checksum"] = checksum_bytes(bytes(data),
                                               manifest["checksum_algo"])
            manifest_dirty = True
        if "torn_write" in kinds:
            data = fpath.read_bytes()
            if manifest_dirty:
                (final / MANIFEST_NAME).write_text(json.dumps(manifest,
                                                              indent=1))
            fpath.write_bytes(data[:max(1, len(data) // 2)])
            from ..faults.plan import InjectedCrashError

            raise InjectedCrashError(
                f"injected torn write on {fpath} (snapshot "
                f"{manifest['seq']}, block {idx})"
            )
    if manifest_dirty:
        (final / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1))


# -- the manager ------------------------------------------------------------


class CheckpointManager:
    """Owns one checkpoint directory: sequence numbers, retention, faults.

    Thread-safe: the parallel executor checkpoints from whichever worker
    completes a row block, so :meth:`save` serializes writers internally.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first use.
    keep:
        Retention — how many finalized snapshots to keep (older ones are
        deleted after each successful save; at least 1).
    algo:
        Checksum algorithm (default: best available, see
        :func:`repro.persist.checksum.default_algo`).
    injector:
        Optional :class:`repro.faults.FaultInjector` whose
        ``bitflip``/``torn_write`` faults target this manager's writes
        (testing only).
    """

    def __init__(self, directory: str | Path, *, keep: int = 2,
                 algo: str | None = None,
                 injector: "FaultInjector | None" = None) -> None:
        self.directory = Path(directory)
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        self.algo = algo if algo is not None else default_algo()
        self.injector = injector
        self._lock = threading.Lock()
        existing = list_snapshots(self.directory)
        self._seq = existing[-1][0] if existing else 0
        self.snapshots_written = 0
        self._gc_stale_tmp()

    def _gc_stale_tmp(self) -> None:
        """Remove torn temp directories left by a crashed writer."""
        if not self.directory.is_dir():
            return
        for entry in self.directory.iterdir():
            if entry.name.startswith(_TMP_PREFIX) and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest snapshot written or found (0 = none)."""
        return self._seq

    def save(self, blocks: Sequence[tuple[int, np.ndarray]],
             fingerprint: dict, state: dict) -> Path:
        """Write the next snapshot; returns its directory."""
        with self._lock:
            # Re-scan the directory so a damaged snapshot left by an
            # injected/real crash (its dir exists but never verified)
            # cannot collide with the next sequence number.
            existing = list_snapshots(self.directory)
            seq = max(self._seq, existing[-1][0] if existing else 0) + 1
            path = write_snapshot(self.directory, seq, blocks, fingerprint,
                                  state, algo=self.algo,
                                  injector=self.injector)
            self._seq = seq
            self.snapshots_written += 1
            self._prune()
            return path

    def _prune(self) -> None:
        snaps = list_snapshots(self.directory)
        for _seq, path in snaps[:-self.keep]:
            shutil.rmtree(path, ignore_errors=True)
