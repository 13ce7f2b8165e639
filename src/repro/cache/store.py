"""The content-addressed artifact store: in-memory + on-disk, never wrong.

An :class:`ArtifactCache` memoizes expensive per-``A`` setup work —
autotune results, kernel choices, the blocked-CSR conversion — behind
one API.  Entries live twice:

* **in memory** — deserialized objects keyed ``(artifact, key)``, so
  repeat lookups pay a dict probe.  Every cache that
  :meth:`ArtifactCache.ensure` opens for a policy shares one memo per
  cache directory for the life of the process, so repeat ``sketch()``
  calls over a fixed ``A`` reuse the same verified objects; a directly
  constructed cache keeps its own.  A memo holds only objects decoded
  from bytes that passed their checksums (or just computed), under
  content-addressed keys, and is bounded by the policy's ``max_bytes``:
  each object is charged its entry's payload bytes and the least
  recently used are dropped first;
* **on disk** — one directory per entry, written with the same
  crash-safe protocol as :mod:`repro.persist.snapshot` (write + fsync
  every payload, write + fsync a manifest naming sizes and checksums,
  fsync, rename, fsync the parent), so concurrent readers only ever see
  absent or complete entries.

The failure contract is the inverse of the checkpoint subsystem's: a
cache is an *optimization*, so damage is never fatal.  A torn, truncated
or bit-flipped entry is detected by the manifest's per-file size and
checksum, reported loudly (one ``WARNING`` log line), quarantined
(deleted), and reported to the caller as a miss — the caller recomputes
and the cache heals itself.  A corrupt cache can cost time; it can never
change an answer.

Eviction is least-recently-used over entry directories: every disk hit
(and a memory hit, at most once per ``_TOUCH_INTERVAL``) touches the
entry's manifest mtime, and after each store the oldest entries are
dropped until the policy's ``max_bytes`` budget holds.

Damage done to an entry after this process verified and memoized it is
not seen by this process's later lookups (they never reread the disk);
it is caught by the next process to read the entry, or by
:meth:`ArtifactCache.verify` (``repro cache verify``).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..errors import CheckpointCorruptionError, ConfigError
from ..persist.checksum import checksum_bytes, default_algo
from .policy import CachePolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..plan.events import EventBus

__all__ = ["CacheEntry", "ArtifactCache", "ENTRY_MANIFEST_NAME",
           "ENTRY_FORMAT_VERSION"]

ENTRY_MANIFEST_NAME = "MANIFEST.json"
ENTRY_FORMAT_VERSION = 1
_TMP_PREFIX = ".cache-tmp-"

_LOG = logging.getLogger("repro.cache")

#: Seconds between two memory hits' touches of one entry: a hot entry
#: stays young for the disk LRU without a syscall per lookup.
_TOUCH_INTERVAL = 30.0


@dataclass
class CacheEntry:
    """One verified on-disk entry: its metadata and raw payload bytes."""

    artifact: str
    key: str
    meta: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)  # name -> bytes


def _fsync_path(path: Path) -> None:
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


class _Memo:
    """Verified objects by ``(artifact, key)``, least recently used first,
    each charged its entry's payload bytes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``[object, payload bytes, monotonic instant of the last touch]``
        self._items: OrderedDict[tuple[str, str], list] = OrderedDict()
        self.nbytes = 0

    def get(self, mkey: tuple[str, str]) -> tuple[object, bool]:
        """The object under *mkey* (``None`` if absent), and whether its
        entry is due a disk touch (``True`` restarts the interval)."""
        with self._lock:
            item = self._items.get(mkey)
            if item is None:
                return None, False
            self._items.move_to_end(mkey)
            now = time.monotonic()
            due = now - item[2] >= _TOUCH_INTERVAL
            if due:
                item[2] = now
            return item[0], due

    def put(self, mkey: tuple[str, str], obj: object, nbytes: int,
            max_bytes: int) -> None:
        """Store *obj* (unless it alone exceeds *max_bytes*), then drop
        the least recently used objects until the bound holds."""
        with self._lock:
            self._discard(mkey)
            if nbytes > max_bytes:
                return
            self._items[mkey] = [obj, nbytes, time.monotonic()]
            self.nbytes += nbytes
            while self.nbytes > max_bytes:
                self.nbytes -= self._items.popitem(last=False)[1][1]

    def pop(self, mkey: tuple[str, str]) -> None:
        with self._lock:
            self._discard(mkey)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self.nbytes = 0

    def _discard(self, mkey: tuple[str, str]) -> None:
        item = self._items.pop(mkey, None)
        if item is not None:
            self.nbytes -= item[1]


#: The process-wide memos of :meth:`ArtifactCache.ensure`, one per
#: resolved cache directory.
_SHARED_MEMOS: dict[str, _Memo] = {}
_SHARED_MEMOS_LOCK = threading.Lock()


def _shared_memo(cache_dir: str) -> _Memo:
    root = str(Path(cache_dir).resolve())
    with _SHARED_MEMOS_LOCK:
        memo = _SHARED_MEMOS.get(root)
        if memo is None:
            # Each memo is bounded, their number is not: drop the memos
            # of directories that are gone (a temporary cache per call)
            # before adding one.
            for gone in [d for d in _SHARED_MEMOS if not os.path.isdir(d)]:
                del _SHARED_MEMOS[gone]
            memo = _SHARED_MEMOS[root] = _Memo()
        return memo


def _payload_bytes(payloads: dict) -> int:
    return sum(len(data) for data in payloads.values())


class ArtifactCache:
    """Content-addressed cache over one :class:`~repro.cache.CachePolicy`.

    Parameters
    ----------
    policy:
        Must be enabled (have a directory); use :meth:`ensure` to map a
        possibly-disabled policy to an ``ArtifactCache | None``.
    bus:
        Optional :class:`~repro.plan.EventBus`; every lookup outcome is
        emitted as a ``cache_hit`` / ``cache_miss`` / ``cache_evicted``
        lifecycle event so the observability layer can count them.
    injector:
        Optional :class:`~repro.faults.FaultInjector` whose storage
        faults (``torn_write`` / ``bitflip``, pseudo-kernel ``"cache"``)
        are applied to just-finalized entries.  Testing only.
    """

    def __init__(self, policy: CachePolicy, *,
                 bus: "EventBus | None" = None,
                 injector: "FaultInjector | None" = None) -> None:
        if not isinstance(policy, CachePolicy):
            raise ConfigError(
                f"policy must be a CachePolicy, got {type(policy).__name__}"
            )
        if not policy.enabled:
            raise ConfigError(
                "ArtifactCache requires an enabled policy (a cache_dir); "
                "use ArtifactCache.ensure() to handle the disabled case"
            )
        self.policy = policy
        self.bus = bus
        self.injector = injector
        self.root = Path(policy.cache_dir)
        self._lock = threading.Lock()
        self._memo = _Memo()
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self.evictions: dict[str, int] = {}
        self._put_seq = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def ensure(cls, cache, *, bus: "EventBus | None" = None,
               injector: "FaultInjector | None" = None
               ) -> "ArtifactCache | None":
        """Normalize ``CachePolicy | ArtifactCache | None`` to a cache.

        A disabled policy (or ``None``) maps to ``None``; an existing
        cache is returned as-is (adopting *bus* if it has none yet, so
        planner-phase and runtime-phase events land on the same bus).
        An enabled policy opens a new cache (its own bus, injector and
        counters) over the process-wide memo of its directory.
        """
        if cache is None:
            return None
        if isinstance(cache, ArtifactCache):
            if cache.bus is None and bus is not None:
                cache.bus = bus
            return cache
        if isinstance(cache, CachePolicy):
            if not cache.enabled:
                return None
            opened = cls(cache, bus=bus, injector=injector)
            opened._memo = _shared_memo(cache.cache_dir)
            return opened
        raise ConfigError(
            f"cache must be a CachePolicy, ArtifactCache, or None, got "
            f"{type(cache).__name__}"
        )

    # -- counters / events ---------------------------------------------------

    def hit_total(self) -> int:
        with self._lock:
            return sum(self.hits.values())

    def miss_total(self) -> int:
        with self._lock:
            return sum(self.misses.values())

    def eviction_total(self) -> int:
        with self._lock:
            return sum(self.evictions.values())

    def _count(self, table: dict, artifact: str) -> None:
        with self._lock:
            table[artifact] = table.get(artifact, 0) + 1

    def _emit(self, name: str, **payload) -> None:
        if self.bus is None:
            return
        self.bus.emit(name, **payload)

    def _hit(self, artifact: str, key: str, source: str) -> None:
        from ..plan.events import CACHE_HIT

        self._count(self.hits, artifact)
        self._emit(CACHE_HIT, artifact=artifact, key=key, source=source)

    def _miss(self, artifact: str, key: str, reason: str) -> None:
        from ..plan.events import CACHE_MISS

        self._count(self.misses, artifact)
        self._emit(CACHE_MISS, artifact=artifact, key=key, reason=reason)

    def _evicted(self, artifact: str, key: str, nbytes: int) -> None:
        from ..plan.events import CACHE_EVICTED

        self._count(self.evictions, artifact)
        self._emit(CACHE_EVICTED, artifact=artifact, key=key,
                   nbytes=int(nbytes))

    # -- paths ---------------------------------------------------------------

    def _entry_dir(self, artifact: str, key: str) -> Path:
        return self.root / artifact / key

    def _iter_entries(self):
        """Yield ``(artifact, key, path, nbytes, mtime)`` for every entry."""
        if not self.root.is_dir():
            return
        for artifact_dir in sorted(self.root.iterdir()):
            if not artifact_dir.is_dir() or \
                    artifact_dir.name.startswith(_TMP_PREFIX):
                continue
            for entry in sorted(artifact_dir.iterdir()):
                if not entry.is_dir() or entry.name.startswith(_TMP_PREFIX):
                    continue
                manifest = entry / ENTRY_MANIFEST_NAME
                try:
                    mtime = manifest.stat().st_mtime
                except OSError:
                    mtime = 0.0
                try:
                    files = list(entry.iterdir())
                except OSError:  # racing deletion (a concurrent store)
                    continue
                nbytes = 0
                for f in files:
                    try:
                        nbytes += f.stat().st_size
                    except OSError:  # pragma: no cover - racing deletion
                        pass
                yield artifact_dir.name, entry.name, entry, nbytes, mtime

    def _quarantine(self, path: Path, why: str) -> None:
        """Loudly drop a damaged entry (kept untouched in readonly mode)."""
        _LOG.warning(
            "cache entry %s is corrupt (%s); %s and recomputing",
            path, why,
            "leaving it in place (readonly)" if self.policy.readonly
            else "removing it",
        )
        if not self.policy.readonly:
            shutil.rmtree(path, ignore_errors=True)

    # -- read path -----------------------------------------------------------

    def _verify_entry(self, artifact: str, key: str,
                      path: Path) -> tuple[CacheEntry | None, str]:
        """Load and checksum one entry; ``(entry, "")`` or ``(None, why)``."""
        manifest_path = path / ENTRY_MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return None, f"unreadable manifest: {exc}"
        if manifest.get("version") != ENTRY_FORMAT_VERSION:
            return None, f"unknown entry version {manifest.get('version')!r}"
        if manifest.get("artifact") != artifact or manifest.get("key") != key:
            return None, "manifest identity does not match its location"
        files = manifest.get("files")
        meta = manifest.get("meta")
        if not isinstance(files, dict) or not isinstance(meta, dict):
            return None, "malformed manifest record"
        payloads: dict[str, bytes] = {}
        for name, record in files.items():
            try:
                data = (path / name).read_bytes()
            except OSError as exc:
                return None, f"unreadable payload {name!r}: {exc}"
            if len(data) != int(record.get("nbytes", -1)):
                return None, (
                    f"payload {name!r} is {len(data)} bytes, manifest says "
                    f"{record.get('nbytes')} (torn write)"
                )
            try:
                digest = checksum_bytes(data, record.get("algo", "crc32"))
            except CheckpointCorruptionError as exc:
                return None, str(exc)
            if digest != record.get("checksum"):
                return None, f"payload {name!r} failed its checksum (bitflip)"
            payloads[name] = data
        return CacheEntry(artifact=artifact, key=key, meta=meta,
                          payloads=payloads), ""

    def fetch(self, artifact: str, key: str,
              deserialize: "Callable[[CacheEntry], object] | None" = None):
        """Look up one artifact; ``None`` on any kind of miss.

        On a disk hit the entry is verified (sizes + checksums), handed
        to *deserialize* (when given), memoized, and its recency
        refreshed for LRU (on a memory hit, once per interval).
        Corruption anywhere — torn payload, failed checksum, a
        *deserialize* that raises — downgrades to a loud miss with the
        entry quarantined, never an exception.
        """
        mkey = (str(artifact), str(key))
        obj, due = self._memo.get(mkey)
        if obj is not None:
            if due:
                self._touch(self._entry_dir(artifact, key))
            self._hit(artifact, key, source="memory")
            return obj
        path = self._entry_dir(artifact, key)
        if not (path / ENTRY_MANIFEST_NAME).exists():
            self._miss(artifact, key, reason="absent")
            return None
        entry, why = self._verify_entry(artifact, key, path)
        if entry is None:
            self._quarantine(path, why)
            self._miss(artifact, key, reason="corrupt")
            return None
        if deserialize is not None:
            try:
                obj = deserialize(entry)
            except Exception as exc:  # noqa: BLE001 - cache must not raise
                self._quarantine(path, f"payload failed to deserialize: {exc}")
                self._miss(artifact, key, reason="corrupt")
                return None
        else:
            obj = entry
        self._touch(path)
        self._memo.put(mkey, obj, _payload_bytes(entry.payloads),
                       self.policy.max_bytes)
        self._hit(artifact, key, source="disk")
        return obj

    def _touch(self, path: Path) -> None:
        """Refresh an entry's recency for the disk LRU."""
        if not self.policy.readonly:
            try:
                os.utime(path / ENTRY_MANIFEST_NAME)
            except OSError:  # racing deletion
                pass

    # -- write path ----------------------------------------------------------

    def insert(self, artifact: str, key: str, *, meta: dict | None = None,
               payloads: dict | None = None, obj: object = None) -> bool:
        """Store one artifact (atomic, durable); returns whether it wrote.

        *payloads* maps file names to bytes; *meta* is a JSON-ready dict
        stored in the manifest; *obj* (default: the resulting
        :class:`CacheEntry`) is what future same-process :meth:`fetch`
        calls return from memory.  In readonly mode the disk write is
        skipped but the in-memory memoization still happens.
        """
        artifact, key = str(artifact), str(key)
        meta = dict(meta or {})
        payloads = dict(payloads or {})
        for name in payloads:
            if "/" in name or name.startswith(".") or \
                    name == ENTRY_MANIFEST_NAME:
                raise ConfigError(f"invalid payload name {name!r}")
        entry = CacheEntry(artifact=artifact, key=key, meta=meta,
                           payloads=payloads)
        self._memo.put((artifact, key), obj if obj is not None else entry,
                       _payload_bytes(payloads), self.policy.max_bytes)
        with self._lock:
            self._put_seq += 1
            seq = self._put_seq
        if self.policy.readonly:
            return False

        final = self._entry_dir(artifact, key)
        final.parent.mkdir(parents=True, exist_ok=True)
        # Unique per process and thread: two threads storing one key
        # must not share (and delete) each other's scratch directory.
        tmp = final.parent / (f"{_TMP_PREFIX}{key}-{os.getpid()}-"
                              f"{threading.get_ident()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        algo = default_algo()
        files = {}
        try:
            for name, data in payloads.items():
                _write_file_sync(tmp / name, data)
                files[name] = {"nbytes": len(data),
                               "checksum": checksum_bytes(data, algo),
                               "algo": algo}
            manifest = {"version": ENTRY_FORMAT_VERSION, "artifact": artifact,
                        "key": key, "meta": meta, "files": files,
                        "created": time.time()}
            _write_file_sync(tmp / ENTRY_MANIFEST_NAME,
                             json.dumps(manifest, indent=1,
                                        sort_keys=True).encode("utf-8"))
            _fsync_path(tmp)
            if final.exists():
                shutil.rmtree(final, ignore_errors=True)
            os.rename(tmp, final)
            _fsync_path(final.parent)
        except OSError as exc:  # pragma: no cover - disk-full etc.
            _LOG.warning("cache store for %s/%s failed: %s", artifact,
                         key[:12], exc)
            shutil.rmtree(tmp, ignore_errors=True)
            return False
        self._apply_faults(final, seq)
        self._evict_lru()
        return True

    def _apply_faults(self, entry_dir: Path, seq: int) -> None:
        """Damage a just-finalized entry per the injector's storage faults."""
        if self.injector is None:
            return
        kinds = self.injector.cache_faults(seq)
        if not kinds:
            return
        targets = sorted(p for p in entry_dir.iterdir()
                         if p.name != ENTRY_MANIFEST_NAME) \
            or [entry_dir / ENTRY_MANIFEST_NAME]
        victim = targets[0]
        data = bytearray(victim.read_bytes())
        for kind in kinds:
            if kind == "torn_write":
                data = data[:max(1, len(data) // 2)]
            elif kind == "bitflip" and data:
                data[len(data) // 2] ^= 0x40
        victim.write_bytes(bytes(data))

    def _evict_lru(self) -> None:
        entries = list(self._iter_entries())
        total = sum(e[3] for e in entries)
        if total <= self.policy.max_bytes:
            return
        # Oldest manifest mtime first; the just-written entry is newest
        # and therefore evicted last.
        entries.sort(key=lambda e: e[4])
        for artifact, key, path, nbytes, _mtime in entries:
            if total <= self.policy.max_bytes:
                break
            shutil.rmtree(path, ignore_errors=True)
            self._memo.pop((artifact, key))
            total -= nbytes
            self._evicted(artifact, key, nbytes)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Scorecard: entry counts and bytes per artifact plus counters."""
        per: dict[str, dict] = {}
        entries = 0
        total = 0
        for artifact, _key, _path, nbytes, _mtime in self._iter_entries():
            record = per.setdefault(artifact, {"entries": 0, "bytes": 0})
            record["entries"] += 1
            record["bytes"] += nbytes
            entries += 1
            total += nbytes
        with self._lock:
            return {
                "cache_dir": str(self.root),
                "entries": entries,
                "total_bytes": total,
                "max_bytes": int(self.policy.max_bytes),
                "readonly": bool(self.policy.readonly),
                "artifacts": per,
                "hits": sum(self.hits.values()),
                "misses": sum(self.misses.values()),
                "evictions": sum(self.evictions.values()),
            }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if self.policy.readonly:
            raise ConfigError("cannot clear a readonly cache")
        removed = 0
        for _artifact, _key, path, _nbytes, _mtime in self._iter_entries():
            shutil.rmtree(path, ignore_errors=True)
            removed += 1
        self._memo.clear()
        return removed

    def verify(self) -> dict:
        """Re-checksum every entry; quarantine the damaged ones.

        Returns ``{"checked": n, "ok": n, "corrupt": [relative paths]}``.
        Unlike :meth:`fetch`, verification touches no counters and emits
        no events — it is an offline audit, not a lookup.
        """
        checked = ok = 0
        corrupt: list[str] = []
        for artifact, key, path, _nbytes, _mtime in self._iter_entries():
            checked += 1
            entry, why = self._verify_entry(artifact, key, path)
            if entry is None:
                corrupt.append(f"{artifact}/{key}")
                self._quarantine(path, why)
                self._memo.pop((artifact, key))
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt}
