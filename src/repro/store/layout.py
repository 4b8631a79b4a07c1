"""Store layouts: two routings over one :class:`SegmentLog` engine.

Every durability invariant lives in :class:`~repro.store.segment.
SegmentLog` (locked ``write``+``fsync`` appends, torn-tail repair,
refresh-under-lock dedupe, lazy loads, ``verify``/``compact``).  A layout
only decides which log a content key routes to and where the logs live:

* :class:`SingleFileLayout` (**v1**) — one log on ``records.jsonl`` with
  ``records.lock`` and no sidecar, so opening scans and content-verifies
  every record.  Bit-for-bit compatible with every store the repository
  has ever written: a pre-existing campaign directory opens, resumes, and
  re-serialises byte-identically.
* :class:`ShardedLayout` (**v2**) — one log per key prefix,
  ``segments/<prefix>.jsonl`` with its own lock (concurrent writers on
  different shards never contend) and a compacted sidecar index
  ``index/<prefix>.idx`` mapping ``key -> (offset, length, seq, config)``.
  Membership checks and config-equality queries are O(1) dictionary
  lookups over the index and never parse result payloads; record bodies
  load lazily on first access.  A ``MANIFEST.json`` format marker
  identifies the layout; :func:`detect_layout` auto-detects it on open.

Determinism contract
--------------------

v1 guarantees a byte-identical ``records.jsonl`` for a deterministic
spec-order commit sequence.  v2 guarantees the same **per segment**: each
segment's bytes are a deterministic function of the committed record
sequence (spec-order commits land in spec order within their shard).
Global iteration order is the commit sequence number (``seq``) recorded
in the index — exactly the v1 insertion order for a single committer —
with ties across co-writing processes broken by ``(shard, offset)``,
which keeps iteration deterministic for any fixed record set.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import StoreError
from repro.obs import TRACER
from repro.store.locks import is_stale_lockfile
from repro.store.records import ResultRecord, StoreIntegrityError
from repro.store.segment import IndexEntry, SegmentLog, write_file_durably

__all__ = [
    "LAYOUT_NAMES",
    "SHARDED",
    "SINGLE_FILE",
    "IndexEntry",
    "SegmentLog",
    "ShardedLayout",
    "SingleFileLayout",
    "StoreLayout",
    "detect_layout",
    "make_layout",
    "read_manifest",
    "write_manifest",
]

#: v1 artefacts (also the facade's historical class-attribute values).
RECORDS_FILENAME = "records.jsonl"
LOCK_FILENAME = "records.lock"

#: v2 artefacts.
MANIFEST_FILENAME = "MANIFEST.json"
SEGMENTS_DIRNAME = "segments"
INDEX_DIRNAME = "index"
MANIFEST_FORMAT = "repro-campaign-store"
SHARDED_LAYOUT_VERSION = 2

#: Hex characters of the content key that route a record to its segment
#: (2 -> up to 256 segments, plenty of lock granularity for one campaign).
SHARD_PREFIX_CHARS = 2

#: Public layout names (CLI values, ``CampaignStore(layout=...)``).
SINGLE_FILE = "single-file"
SHARDED = "sharded"
LAYOUT_NAMES = (SINGLE_FILE, SHARDED)


def detect_layout(directory: str) -> Optional[str]:
    """Auto-detect the layout of a campaign directory, ``None`` if empty.

    A ``MANIFEST.json`` marks a sharded (v2) store and wins over a stray
    ``records.jsonl`` (an interrupted migration's leftover; ``repro store
    gc`` removes it).  A bare ``records.jsonl`` is a v1 store.
    """
    if os.path.exists(os.path.join(directory, MANIFEST_FILENAME)):
        read_manifest(directory)  # validate loudly before claiming sharded
        return SHARDED
    if os.path.exists(os.path.join(directory, RECORDS_FILENAME)):
        return SINGLE_FILE
    return None


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """Load and validate ``MANIFEST.json``; ``None`` when absent."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise StoreError(f"{path} is not valid JSON ({error})") from error
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise StoreError(
            f"{path} is not a {MANIFEST_FORMAT} manifest; refusing to guess"
        )
    if payload.get("layout") != SHARDED or payload.get("version") != (
        SHARDED_LAYOUT_VERSION
    ):
        raise StoreError(
            f"{path} declares unsupported layout "
            f"{payload.get('layout')!r} v{payload.get('version')!r}; this "
            f"build supports {SHARDED!r} v{SHARDED_LAYOUT_VERSION}"
        )
    chars = payload.get("shard_prefix_chars")
    if not isinstance(chars, int) or not 1 <= chars <= 8:
        raise StoreError(f"{path} has invalid shard_prefix_chars {chars!r}")
    return payload


def write_manifest(
    directory: str, shard_prefix_chars: int = SHARD_PREFIX_CHARS
) -> None:
    """Atomically write the sharded-layout manifest (the v2 commit point)."""
    payload = {
        "format": MANIFEST_FORMAT,
        "layout": SHARDED,
        "version": SHARDED_LAYOUT_VERSION,
        "shard_prefix_chars": shard_prefix_chars,
    }
    write_file_durably(
        os.path.join(directory, MANIFEST_FILENAME),
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )


class StoreLayout:
    """Contract a storage layout implements for :class:`CampaignStore`.

    A layout owns the on-disk representation under one campaign directory
    as a set of :class:`SegmentLog` values keyed by shard name.  Everything
    that is not routing — membership, deterministic iteration order, lazy
    record loads, locked durable appends, ``verify`` and ``compact`` — is
    implemented here once, over those logs.
    """

    name: str = "abstract"

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        self._directory = str(directory)
        self._lock_timeout_s = lock_timeout_s
        os.makedirs(self._directory, exist_ok=True)
        #: shard name -> log (``""`` is the single-file layout's one log).
        self._logs: Dict[str, SegmentLog] = {}
        #: Next commit sequence number; materialised lazily on first use
        #: (computing it decodes every index entry, which a read-only open
        #: never needs to pay for).
        self._next_seq: Optional[int] = None
        self._order_cache: Optional[List[str]] = None

    @property
    def directory(self) -> str:
        """The campaign directory this layout persists under."""
        return self._directory

    @staticmethod
    def make_log(
        directory: str,
        shard: str,
        take_seq: Callable[[], int],
        lock_timeout_s: Optional[float] = None,
    ) -> SegmentLog:
        """The log ``shard`` of this layout lives in under ``directory``."""
        raise NotImplementedError

    def logs(self) -> List[SegmentLog]:
        """This layout's logs, in shard-name order."""
        return [self._logs[shard] for shard in sorted(self._logs)]

    def _route(self, key: str, create: bool = False) -> Optional[SegmentLog]:
        """The log ``key`` belongs to (created on demand when ``create``)."""
        raise NotImplementedError

    def _open(self, shards: List[str]) -> None:
        """Open the logs of ``shards``: every sidecar first, then the scans.

        Adopting all lock-free sidecars before any locked scan means the
        scans' fresh sequence numbers start past every adopted one.
        """
        for shard in shards:
            self._logs[shard] = self.make_log(
                self._directory, shard, self._take_seq, self._lock_timeout_s
            )
        uncovered = [log for log in self.logs() if not log.open_index()]
        for log in uncovered:
            log.reconcile()

    def _take_seq(self) -> int:
        """Claim the next commit sequence number (materialising it lazily)."""
        if self._next_seq is None:
            self._next_seq = 1 + max(
                (
                    entry.seq
                    for log in self._logs.values()
                    for entry in log.entries.values()
                ),
                default=-1,
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    # -- read side ----------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(log) for log in self._logs.values())

    def has(self, key: str) -> bool:
        """O(1) membership: is ``key`` committed? (the cache-hit check)"""
        log = self._route(key)
        return log is not None and key in log.entries

    def keys(self) -> List[str]:
        """All stored keys in deterministic global commit order."""
        if self._order_cache is None:
            ordered = sorted(
                (entry for log in self._logs.values() for entry in log.entries.values()),
                key=lambda entry: (entry.seq, entry.shard, entry.offset),
            )
            self._order_cache = [entry.key for entry in ordered]
        return list(self._order_cache)

    def get(self, key: str) -> Optional[ResultRecord]:
        """The record stored under ``key`` (loaded lazily), or ``None``."""
        log = self._route(key)
        return None if log is None else log.get(key)

    def iter_records(self) -> Iterator[ResultRecord]:
        """Every record, in :meth:`keys` order."""
        for key in self.keys():
            record = self.get(key)
            assert record is not None  # keys() only lists committed records
            yield record

    def iter_configs(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``(key, config)`` pairs in :meth:`keys` order, payload-free.

        The index-resident path config-equality queries filter on without
        deserialising result payloads.
        """
        for key in self.keys():
            log = self._route(key)
            assert log is not None
            yield key, log.entries[key].config

    # -- write side ---------------------------------------------------------
    def append(self, record: ResultRecord) -> ResultRecord:
        """Durably commit ``record`` (dedup-checked, locked, fsynced)."""
        log = self._route(record.key, create=True)
        assert log is not None
        self._order_cache = None
        return log.append(record)

    # -- lifecycle ----------------------------------------------------------
    def verify(self) -> List[str]:
        """Deep-check every byte; return human-readable problem strings."""
        problems: List[str] = []
        for log in self.logs():
            problems.extend(log.verify())
        return problems

    def compact(self) -> Dict[str, Any]:
        """Rewrite every log canonically, dropping garbage; return a summary."""
        segments = bytes_before = bytes_after = 0
        for log in self.logs():
            if not os.path.exists(log.path):
                continue
            before, after = log.compact()
            segments += 1
            bytes_before += before
            bytes_after += after
        self._order_cache = None
        if TRACER.enabled:
            TRACER.add("store.compactions")
            TRACER.add("store.compaction.segments", segments)
            TRACER.add(
                "store.compaction.bytes_reclaimed", bytes_before - bytes_after
            )
        return {
            "layout": self.name,
            "segments_compacted": segments,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "records": len(self),
        }

    def gc(self) -> Dict[str, Any]:
        """Remove dead artefacts (stale locks, tmp files, orphans)."""
        removed: Dict[str, List[str]] = {
            "stale_locks": [], "tmp_files": [], "migration_leftovers": [],
        }
        segments_dir = os.path.join(self._directory, SEGMENTS_DIRNAME)
        index_dir = os.path.join(self._directory, INDEX_DIRNAME)
        lock_paths = [os.path.join(self._directory, LOCK_FILENAME)]
        for base in (self._directory, segments_dir, index_dir):
            if not os.path.isdir(base):
                continue
            for name in sorted(os.listdir(base)):
                path = os.path.join(base, name)
                if name.endswith(".tmp"):
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(path)
                    removed["tmp_files"].append(path)
                elif name.endswith(".lock") and base == segments_dir:
                    lock_paths.append(path)
        for lock_path in lock_paths:
            if os.path.exists(lock_path) and is_stale_lockfile(lock_path):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(lock_path)
                removed["stale_locks"].append(lock_path)
        self._gc_leftovers(removed)
        return {"layout": self.name, "removed": removed}

    def _gc_leftovers(self, removed: Dict[str, List[str]]) -> None:
        """Remove the artefacts only this layout knows to be dead."""
        raise NotImplementedError


class SingleFileLayout(StoreLayout):
    """v1: one log on ``records.jsonl``, fully parsed and verified on open."""

    name = SINGLE_FILE

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        super().__init__(directory, lock_timeout_s)
        self._open([""])

    @staticmethod
    def make_log(
        directory: str,
        shard: str,
        take_seq: Callable[[], int],
        lock_timeout_s: Optional[float] = None,
    ) -> SegmentLog:
        return SegmentLog(
            os.path.join(directory, RECORDS_FILENAME),
            os.path.join(directory, LOCK_FILENAME),
            take_seq,
            lock_timeout_s=lock_timeout_s,
        )

    @property
    def records_path(self) -> str:
        """Path of the JSONL records file."""
        return os.path.join(self._directory, RECORDS_FILENAME)

    def _route(self, key: str, create: bool = False) -> Optional[SegmentLog]:
        return self._logs[""]

    def _gc_leftovers(self, removed: Dict[str, List[str]]) -> None:
        # An interrupted sharded->single-file migration removes the manifest
        # (making v1 authoritative) before the segment dirs; sweep them up.
        for dirname in (SEGMENTS_DIRNAME, INDEX_DIRNAME):
            path = os.path.join(self._directory, dirname)
            if os.path.isdir(path):
                for name in sorted(os.listdir(path)):
                    os.unlink(os.path.join(path, name))
                    removed["migration_leftovers"].append(
                        os.path.join(path, name)
                    )
                os.rmdir(path)
                removed["migration_leftovers"].append(path)


class ShardedLayout(StoreLayout):
    """v2: one sidecar-indexed log per content-key prefix, plus a manifest.

    See the module docstring for the determinism contract.
    """

    name = SHARDED

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        super().__init__(directory, lock_timeout_s)
        manifest = read_manifest(self._directory)
        if manifest is None:
            if os.path.exists(os.path.join(self._directory, RECORDS_FILENAME)):
                raise StoreError(
                    f"{self._directory} holds a v1 single-file store; run "
                    "`repro store migrate --to sharded` instead of opening "
                    "it as sharded"
                )
            write_manifest(self._directory)
            self._prefix_chars = SHARD_PREFIX_CHARS
        else:
            self._prefix_chars = int(manifest["shard_prefix_chars"])
        self._segments_dir = os.path.join(self._directory, SEGMENTS_DIRNAME)
        self._index_dir = os.path.join(self._directory, INDEX_DIRNAME)
        os.makedirs(self._segments_dir, exist_ok=True)
        os.makedirs(self._index_dir, exist_ok=True)
        if TRACER.enabled:
            TRACER.add("store.index.loads")
        self._open(self._shard_names())

    @staticmethod
    def make_log(
        directory: str,
        shard: str,
        take_seq: Callable[[], int],
        lock_timeout_s: Optional[float] = None,
    ) -> SegmentLog:
        segments = os.path.join(directory, SEGMENTS_DIRNAME)
        return SegmentLog(
            os.path.join(segments, f"{shard}.jsonl"),
            os.path.join(segments, f"{shard}.lock"),
            take_seq,
            sidecar_path=os.path.join(directory, INDEX_DIRNAME, f"{shard}.idx"),
            shard=shard,
            lock_timeout_s=lock_timeout_s,
            lock_counter_prefix="store.segment.lock",
        )

    @property
    def prefix_chars(self) -> int:
        """Hex characters of the content key that name its segment."""
        return self._prefix_chars

    def shard_of(self, key: str) -> str:
        """The segment a content key routes to (its leading hex chars)."""
        if len(key) <= self._prefix_chars:
            raise StoreIntegrityError(
                f"content key {key!r} is too short to shard"
            )
        return key[: self._prefix_chars]

    def _route(self, key: str, create: bool = False) -> Optional[SegmentLog]:
        log = self._logs.get(key[: self._prefix_chars])
        if log is None and create:
            shard = self.shard_of(key)
            log = self._logs[shard] = self.make_log(
                self._directory, shard, self._take_seq, self._lock_timeout_s
            )
        return log

    def _shard_names(self) -> List[str]:
        names = []
        for filename in sorted(os.listdir(self._segments_dir)):
            shard = filename[: -len(".jsonl")]
            if (
                filename.endswith(".jsonl")
                and len(shard) == self._prefix_chars
                and all(char in "0123456789abcdef" for char in shard)
            ):
                names.append(shard)
        return names

    def _gc_leftovers(self, removed: Dict[str, List[str]]) -> None:
        removed["orphan_sidecars"] = []
        removed["empty_segments"] = []
        # A records.jsonl next to a manifest is an interrupted migration's
        # leftover: the manifest is authoritative, the v1 file is dead.
        stale_v1 = os.path.join(self._directory, RECORDS_FILENAME)
        if os.path.exists(stale_v1):
            os.unlink(stale_v1)
            removed["migration_leftovers"].append(stale_v1)
        shards = set(self._shard_names())
        for name in sorted(os.listdir(self._index_dir)):
            shard, extension = os.path.splitext(name)
            if extension == ".idx" and shard not in shards:
                os.unlink(os.path.join(self._index_dir, name))
                removed["orphan_sidecars"].append(
                    os.path.join(self._index_dir, name)
                )
        for shard in sorted(shards):
            log = self.make_log(self._directory, shard, self._take_seq)
            if os.path.getsize(log.path) == 0:
                assert log.sidecar_path is not None
                for path in (log.path, log.sidecar_path):
                    if os.path.exists(path):
                        os.unlink(path)
                        removed["empty_segments"].append(path)


def make_layout(
    name: str, directory: str, lock_timeout_s: Optional[float] = None
) -> StoreLayout:
    """Instantiate the layout registered under ``name``."""
    if name == SINGLE_FILE:
        return SingleFileLayout(directory, lock_timeout_s)
    if name == SHARDED:
        return ShardedLayout(directory, lock_timeout_s)
    raise StoreError(
        f"unknown store layout {name!r}; known layouts: {LAYOUT_NAMES}"
    )
