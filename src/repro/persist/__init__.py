"""Durable checkpoints: atomic snapshots, verified resume, replay audits.

Crash recovery for long sketching runs, built on the paper's RNG
contract (every entry of ``S`` is a pure function of seed and
coordinate, so stored partial sketches can be *recomputed* and compared
bit-for-bit, not just checksummed):

* :mod:`repro.persist.checksum` — content digests for snapshot files;
* :mod:`repro.persist.snapshot` — write-temp/fsync/rename atomic
  snapshot directories with a versioned, checksummed manifest;
* :mod:`repro.persist.resume` — restore a run from the newest
  verified-good snapshot, rejecting torn writes, damage, and config
  drift;
* :mod:`repro.persist.verify` — ABFT-style audit recomputing sampled
  tiles of the stored sketch through the kernel backends, with
  quarantine-and-repair;
* :mod:`repro.persist.shards` — what a blocked run persists: one
  lineage per column stripe, row-block completion and cadence, resume.
"""

from .checksum import available_algos, checksum_bytes, default_algo
from .resume import latest_verified_snapshot, resume_streaming, try_resume_streaming
from .snapshot import (
    FINGERPRINT_KEYS,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    CheckpointManager,
    Snapshot,
    check_fingerprint,
    list_snapshots,
    load_snapshot,
    run_fingerprint,
    write_snapshot,
)
from .verify import TileAudit, VerifyReport, verify_checkpoints, verify_snapshot

__all__ = [
    "available_algos",
    "checksum_bytes",
    "default_algo",
    "latest_verified_snapshot",
    "resume_streaming",
    "try_resume_streaming",
    "FINGERPRINT_KEYS",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "CheckpointManager",
    "Snapshot",
    "check_fingerprint",
    "list_snapshots",
    "load_snapshot",
    "run_fingerprint",
    "write_snapshot",
    "TileAudit",
    "VerifyReport",
    "verify_snapshot",
    "verify_checkpoints",
]
