"""The store's one durable engine: an append-only JSONL record log.

A :class:`SegmentLog` owns one file of canonical record lines, the
advisory lock guarding appends to it, and (optionally) a compacted JSONL
sidecar index.  Both store layouts are routings over this engine: the v1
single-file layout is one log on ``records.jsonl`` with no sidecar, the
v2 sharded layout is one log per key-prefix segment, each with its
``index/<prefix>.idx`` sidecar.  Every durability invariant is enforced
here, once:

* **Atomic appends** — one ``write``+``fsync`` to an ``O_APPEND`` fd
  under the log's lock, rolled back with ``ftruncate`` if it fails.
* **Multi-writer dedupe** — before appending, the log indexes whatever
  other writers appended since its last look (under the same lock).
* **Crash repair** — a torn trailing line is truncated (or completed with
  its missing newline) under the lock; damage anywhere else is
  :class:`StoreIntegrityError`.
* **Verification** — every line's content address is re-derived when its
  bytes are parsed: eagerly on open for a log without a sidecar, lazily
  on first load for one with (``verify`` forces the full check).

The sidecar is *derived* state: open adopts it without taking the lock or
parsing a row when it exactly covers the log, and otherwise rebuilds it
from the authoritative log bytes.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import (
    Any, Callable, ContextManager, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.exceptions import StoreError
from repro.obs import TRACER
from repro.store.locks import file_lock
from repro.store.records import (
    ResultRecord,
    StoreIntegrityError,
    canonical_json,
    parse_record_line,
    reconcile,
)

#: Structural prefix of an index line: the key always leads, so opening a
#: store can slice keys out of sidecar lines without a JSON parse per row.
_INDEX_LINE_PREFIX = b'{"k":"'
_KEY_HEX_CHARS = 64  # SHA-256


def write_file_durably(path: str, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload`` (tmp + fsync + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


class IndexEntry:
    """One index row: where a record lives in its log and what configured it.

    ``length`` is the record line's byte length *excluding* its newline;
    ``seq`` is the commit sequence number ordering global iteration;
    ``config`` rides along so config-equality queries never touch payloads.

    Entries are **lazily parsed**: opening a store materialises only the
    ``key``/``shard`` of each sidecar row (sliced straight out of the
    sidecar bytes — the O(1)-membership hot path never runs a JSON parse
    per record); ``offset``/``length``/``seq``/``config`` decode the raw
    line on first access.  A row that turns out to be garbage when finally
    decoded raises :class:`StoreIntegrityError` at that point — mid-file
    sidecar damage cannot be crash fallout (appends only ever tear the
    tail, which open reconciles), so it fails loudly like any other
    corruption.
    """

    __slots__ = ("key", "shard", "_raw", "_fields")

    def __init__(
        self,
        key: str,
        shard: str,
        offset: int,
        length: int,
        seq: int,
        config: Dict[str, Any],
    ) -> None:
        self.key = key
        self.shard = shard
        self._raw: Optional[bytes] = None
        self._fields: Optional[Tuple[int, int, int, Dict[str, Any]]] = (
            offset, length, seq, config,
        )

    @classmethod
    def lazy(cls, key: str, shard: str, raw: bytes) -> "IndexEntry":
        """An entry backed by its raw sidecar line, decoded on first use."""
        entry = cls.__new__(cls)
        entry.key = key
        entry.shard = shard
        entry._raw = raw
        entry._fields = None
        return entry

    def _decode(self) -> Tuple[int, int, int, Dict[str, Any]]:
        fields = self._fields
        if fields is None:
            assert self._raw is not None
            source = f"index entry for key {self.key}"
            try:
                payload = json.loads(self._raw)
                fields = (
                    int(payload["o"]), int(payload["l"]),
                    int(payload["q"]), payload["c"],
                )
            except (ValueError, KeyError, TypeError) as error:
                raise StoreIntegrityError(
                    f"{source} (segment {self.shard}) is unparseable "
                    f"({error}); rebuild the index with `repro store "
                    "compact`"
                ) from error
            if (
                payload.get("k") != self.key
                or not isinstance(fields[3], dict)
                or fields[0] < 0
                or fields[1] <= 0
                or not self.key.startswith(self.shard)
            ):
                raise StoreIntegrityError(
                    f"{source} (segment {self.shard}) is inconsistent; "
                    "rebuild the index with `repro store compact`"
                )
            self._fields = fields
        return fields

    @property
    def offset(self) -> int:
        return self._decode()[0]

    @property
    def length(self) -> int:
        return self._decode()[1]

    @property
    def seq(self) -> int:
        return self._decode()[2]

    @property
    def config(self) -> Dict[str, Any]:
        return self._decode()[3]

    def end(self) -> int:
        """First log byte past this record (its newline included)."""
        return self.offset + self.length + 1

    def to_json_line(self) -> str:
        # Fixed field order with the key first, matching
        # _INDEX_LINE_PREFIX so open can slice keys without parsing.
        offset, length, seq, config = self._decode()
        return (
            f'{{"k":"{self.key}","o":{offset},"l":{length},"q":{seq},'
            f'"c":{canonical_json(config)}}}'
        )

    @classmethod
    def from_json_line(cls, line: str, shard: str) -> "IndexEntry":
        payload = json.loads(line)
        return cls(
            key=payload["k"],
            shard=shard,
            offset=int(payload["o"]),
            length=int(payload["l"]),
            seq=int(payload["q"]),
            config=payload["c"],
        )


class SegmentLog:
    """One append-only JSONL record log, its lock, and an optional sidecar.

    ``shard`` is the key prefix every record in the log must carry (empty
    for the single-file layout); ``take_seq`` hands out the owning
    layout's commit sequence numbers.  Construction does no I/O: a layout
    calls :meth:`open_index` and, when that reports the log uncovered,
    :meth:`reconcile`.
    """

    def __init__(
        self,
        path: str,
        lock_path: str,
        take_seq: Callable[[], int],
        sidecar_path: Optional[str] = None,
        shard: str = "",
        lock_timeout_s: Optional[float] = None,
        lock_counter_prefix: str = "store.lock",
    ) -> None:
        self.path = path
        self.lock_path = lock_path
        self.sidecar_path = sidecar_path
        self.shard = shard
        self._take_seq = take_seq
        self._lock_timeout_s = lock_timeout_s
        self._lock_counter_prefix = lock_counter_prefix
        #: key -> index entry (the O(1) membership map; payload-free).
        self.entries: Dict[str, IndexEntry] = {}
        #: Parsed records by key: every record without a sidecar (open
        #: parses them all), only those read so far with one.
        self._loaded: Dict[str, ResultRecord] = {}
        #: Log bytes accounted for by ``entries``; bytes past it were
        #: appended by other writers since our last look.
        self.coverage = 0

    def lock(self) -> ContextManager[None]:
        """The exclusive advisory lock every append to this log holds."""
        return file_lock(
            self.lock_path,
            timeout_s=self._lock_timeout_s,
            counter_prefix=self._lock_counter_prefix,
        )

    def __len__(self) -> int:
        return len(self.entries)

    # -- open ---------------------------------------------------------------
    def open_index(self) -> bool:
        """Adopt the sidecar without locking or parsing a record.

        Returns ``True`` when the adopted entries cover the whole log; a
        ``False`` log needs :meth:`reconcile` (always, for an existing log
        without a sidecar: opening it is the eager verifying scan).
        """
        if self.sidecar_path is None:
            return not os.path.exists(self.path)
        size = os.path.getsize(self.path)  # a sharded log opens from its file
        entries, coverage, intact = self._read_sidecar(size)
        if not intact and TRACER.enabled:
            TRACER.add("store.index.rebuilds")
        for entry in entries:
            self.entries[entry.key] = entry
        self.coverage = coverage
        return intact and coverage == size

    def reconcile(self) -> None:
        """Index the log past the sidecar's coverage, then rewrite the sidecar.

        The slow path of open: a stale sidecar (a writer crashed between
        the log and the index append), a torn or corrupt one, or none at
        all is reconciled against the authoritative log bytes under the
        lock, and the sidecar is rewritten compacted.
        """
        with self.lock():
            self._refresh_locked(rewrite_sidecar=True)

    def _read_sidecar(
        self, log_size: int
    ) -> Tuple[List[IndexEntry], int, bool]:
        """Load the sidecar: ``(entries, coverage, intact)``.

        ``intact=False`` demands a full rebuild from the log.  A torn
        *final* line (a writer crashed mid index append) is dropped — the
        log tail scan recovers the records it covered — but damage
        anywhere else distrusts the whole sidecar.
        """
        assert self.sidecar_path is not None
        shard = self.shard
        if not os.path.exists(self.sidecar_path):
            return [], 0, log_size == 0
        with open(self.sidecar_path, "rb") as handle:
            raw = handle.read()
        entries: List[IndexEntry] = []
        seen: Set[str] = set()
        prefix_len = len(_INDEX_LINE_PREFIX)
        key_end = prefix_len + _KEY_HEX_CHARS
        lines = raw.split(b"\n")
        # A final chunk with no terminating newline is a torn index append;
        # drop it — the log tail scan recovers the record it covered.
        lines.pop()
        last = len(lines) - 1
        make_lazy = IndexEntry.lazy
        adopt_entry = entries.append
        note_seen = seen.add
        for position, line in enumerate(lines):
            # Fast structural check: the fixed field order puts the key
            # first, so membership needs only a slice, not a JSON parse.
            if (
                line[:prefix_len] == _INDEX_LINE_PREFIX
                and line[key_end:key_end + 2] == b'",'
            ):
                key = line[prefix_len:key_end].decode("ascii")
                if key[: len(shard)] != shard:
                    return [], 0, False
                entry = make_lazy(key, shard, line)
            else:
                if not line.strip():
                    continue
                try:
                    entry = IndexEntry.from_json_line(
                        line.decode("utf-8"), shard
                    )
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    if position == last:
                        break  # unparseable *final* line: torn-append case
                    return [], 0, False
                if not entry.key.startswith(shard):
                    return [], 0, False
            if entry.key in seen:
                return [], 0, False
            note_seen(entry.key)
            adopt_entry(entry)
        # Coverage comes from the final entry alone; interior rows decode
        # lazily and are deep-checked by `verify`.  A final row that fails
        # to decode is the torn-append case one more time: drop it and let
        # the locked tail scan recover its record from the log — but only
        # the final row earns that forgiveness.
        if not entries:
            return [], 0, True
        try:
            coverage = entries[-1].end()
        except StoreIntegrityError:
            entries.pop()
            if not entries:
                return [], 0, True
            try:
                coverage = entries[-1].end()
            except StoreIntegrityError:
                return [], 0, False
        if coverage > log_size:
            return [], 0, False
        return entries, coverage, True

    # -- scan and repair (caller holds the lock) -----------------------------
    def _refresh_locked(self, rewrite_sidecar: bool = False) -> None:
        """Index records appended past ``coverage``.  Caller holds the lock.

        Because every writer appends only while holding the lock, a partial
        trailing line observed *under the lock* can only be a crash
        artifact: it is repaired in place.  A sidecar is rewritten when the
        scan learned something (so the next open takes the fast path) or
        when ``rewrite_sidecar`` asks for it.
        """
        known = len(self.entries)
        if os.path.exists(self.path):
            base = self.coverage
            with open(self.path, "rb") as handle:
                handle.seek(base)
                data = handle.read()
            position = 0
            while position < len(data):
                newline = data.find(b"\n", position)
                if newline == -1:
                    self._repair_tail_locked(data[position:], base + position)
                    break
                line = data[position:newline]
                if line.strip():
                    self._index_line(line, base + position)
                position = newline + 1
            else:
                self.coverage = base + position
        if self.sidecar_path is not None and (
            rewrite_sidecar or len(self.entries) > known
        ):
            self._write_sidecar()

    def _index_line(self, line: bytes, offset: int) -> None:
        record = parse_record_line(line, self.path, offset)
        if not record.key.startswith(self.shard):
            raise StoreIntegrityError(
                f"{self.path} is corrupt at byte {offset}: record key "
                f"{record.key} does not belong to segment {self.shard!r}"
            )
        existing = self.entries.get(record.key)
        if existing is not None:
            if self.load(existing).to_json_line() != record.to_json_line():
                raise StoreIntegrityError(
                    f"{self.path} holds two different results for key "
                    f"{record.key} (second at byte {offset}); refusing to "
                    "pick one silently"
                )
            return
        self.entries[record.key] = IndexEntry(
            key=record.key,
            shard=self.shard,
            offset=offset,
            length=len(line),
            seq=self._take_seq(),
            config=record.config,
        )
        self._loaded[record.key] = record

    def _repair_tail_locked(self, fragment: bytes, offset: int) -> None:
        """Handle a trailing line with no newline (a crashed writer's append).

        A crash-torn append is a strict prefix of one JSON object and can
        never parse, so an unparseable fragment is truncated away (the cell
        is re-simulated on resume).  A fragment that *does* parse is a
        complete record missing only its newline: it is verified exactly
        like any other line — failing loudly on a bad content address —
        and then completed in place.  Stray whitespace is absorbed.
        """
        if not fragment.strip():
            self.coverage = offset + len(fragment)
            return
        try:
            ResultRecord.from_json_line(fragment.decode("utf-8"))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            fd = os.open(self.path, os.O_RDWR)
            try:
                os.ftruncate(fd, offset)
                os.fsync(fd)
            finally:
                os.close(fd)
            self.coverage = offset
            repair: Dict[str, Any] = {"truncated_bytes": len(fragment)}
        else:
            self._index_line(fragment, offset)  # raises on key/config mismatch
            with open(self.path, "ab") as handle:  # repro-lint: ignore[RPR104] -- tail repair runs under the log lock its caller holds
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
            self.coverage = offset + len(fragment) + 1
            repair = {"restored_newline": True}
        if TRACER.enabled:
            TRACER.add("store.torn_tail_repairs")
            TRACER.event(
                "store.torn_tail_repair",
                {"path": self.path, "offset": offset, **repair},
            )

    def _write_sidecar(self) -> None:
        """Atomically replace the sidecar with the entries in log order."""
        assert self.sidecar_path is not None
        ordered = sorted(self.entries.values(), key=lambda entry: entry.offset)
        payload = "".join(entry.to_json_line() + "\n" for entry in ordered)
        write_file_durably(self.sidecar_path, payload.encode("utf-8"))

    # -- read side ----------------------------------------------------------
    def get(self, key: str) -> Optional[ResultRecord]:
        """The record stored under ``key`` (loaded lazily), or ``None``."""
        entry = self.entries.get(key)
        return None if entry is None else self.load(entry)

    def load(self, entry: IndexEntry) -> ResultRecord:
        """The record ``entry`` points at, parsed and cached on first use."""
        record = self._loaded.get(entry.key)
        if record is None:
            record = self._read_record(entry)
            self._loaded[entry.key] = record
        return record

    def _read_record(self, entry: IndexEntry) -> ResultRecord:
        with open(self.path, "rb") as handle:
            handle.seek(entry.offset)
            line = handle.read(entry.length)
        record = parse_record_line(line, self.path, entry.offset)
        if record.key != entry.key:
            raise StoreIntegrityError(
                f"{self.path}: index entry for key {entry.key} points at a "
                f"record with key {record.key} (byte {entry.offset}); the "
                "sidecar index is stale — run `repro store compact`"
            )
        if TRACER.enabled:
            TRACER.add("store.lazy_record_loads")
        return record

    # -- write side ---------------------------------------------------------
    def append(self, record: ResultRecord) -> ResultRecord:
        """Durably commit ``record``: dedupe-checked, locked, fsynced."""
        existing = self.get(record.key)
        if existing is not None:
            return reconcile(existing, record)
        with self.lock():
            # Another process may have committed this cell (or others) since
            # we last looked; index the new tail before deciding to append.
            self._refresh_locked()
            existing = self.get(record.key)
            if existing is not None:
                return reconcile(existing, record)
            payload = (record.to_json_line() + "\n").encode("utf-8")
            entry = IndexEntry(
                key=record.key,
                shard=self.shard,
                offset=self._write_locked(payload),
                length=len(payload) - 1,
                seq=self._take_seq(),
                config=record.config,
            )
            if self.sidecar_path is not None:
                # Unfsynced on purpose: the sidecar is derived state,
                # rebuilt from the log if a crash tears it.
                with open(self.sidecar_path, "ab") as handle:
                    handle.write((entry.to_json_line() + "\n").encode("utf-8"))
            self.entries[record.key] = entry
            self.coverage = entry.end()
        self._loaded[record.key] = record
        return record

    def _write_locked(self, payload: bytes) -> int:
        """One write+fsync to the log's ``O_APPEND`` fd; returns its offset.

        Caller holds the lock.  A short or failed write would leave a torn
        fragment that later appends turn into unrepairable *mid-file*
        corruption, so it is rolled back while the lock is still held.
        """
        append_start = time.perf_counter() if TRACER.enabled else 0.0
        with open(self.path, "ab", buffering=0) as handle:  # repro-lint: ignore[RPR104] -- leaf of append(), which holds the log lock around this call
            start = os.fstat(handle.fileno()).st_size
            try:
                written = 0
                while written < len(payload):
                    chunk = handle.write(payload[written:])
                    if not chunk:
                        raise StoreError(
                            f"zero-byte write appending to {self.path}"
                        )
                    written += chunk
                fsync_start = time.perf_counter() if TRACER.enabled else 0.0
                os.fsync(handle.fileno())
                if TRACER.enabled:
                    now = time.perf_counter()
                    TRACER.add("store.appends")
                    TRACER.add("store.bytes_appended", len(payload))
                    if self.sidecar_path is not None:
                        TRACER.add("store.segment.appends")
                        TRACER.add("store.segment.bytes_appended", len(payload))
                    TRACER.add("store.fsync_s", now - fsync_start)
                    TRACER.add("store.append_s", now - append_start)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.ftruncate(handle.fileno(), start)
                raise
        return start

    # -- lifecycle ----------------------------------------------------------
    def rewrite(self, records: Sequence[Tuple[ResultRecord, int]]) -> int:
        """Atomically replace the log (and sidecar) with canonical lines.

        ``records`` are ``(record, seq)`` pairs in log order.  Returns the
        new log size.  Compaction and migration both write through here;
        the caller holds the lock or owns the directory exclusively.
        """
        pieces: List[bytes] = []
        entries: Dict[str, IndexEntry] = {}
        offset = 0
        for record, seq in records:
            line = record.to_json_line().encode("utf-8")
            pieces.append(line + b"\n")
            entries[record.key] = IndexEntry(
                key=record.key, shard=self.shard, offset=offset,
                length=len(line), seq=seq, config=record.config,
            )
            offset += len(line) + 1
        write_file_durably(self.path, b"".join(pieces))
        self.entries = entries
        self.coverage = offset
        if self.sidecar_path is not None:
            self._write_sidecar()
        return offset

    def compact(self) -> Tuple[int, int]:
        """Rewrite the log canonically; return ``(bytes_before, bytes_after)``.

        Records keep their ``seq`` (hence the global iteration order);
        stray whitespace and stale or duplicate sidecar rows are dropped,
        so afterwards the sidecar exactly covers its log.
        """
        with self.lock():
            self._refresh_locked()
            before = _file_size(self.path)
            ordered = sorted(self.entries.values(), key=lambda entry: entry.offset)
            after = self.rewrite([(self.load(entry), entry.seq) for entry in ordered])
        return before, after

    def verify(self) -> List[str]:
        """Re-read and content-verify every record; cross-check the index."""
        if not os.path.exists(self.path):
            return []
        problems: List[str] = []
        size = os.path.getsize(self.path)
        if self.coverage != size:
            problems.append(
                f"{self.path}: {size - self.coverage} bytes beyond index "
                "coverage (reopen or compact to reconcile)"
            )
        spans: List[Tuple[int, int]] = []
        for entry in self.entries.values():
            try:
                self._read_record(entry)
                spans.append((entry.offset, entry.end()))
            except StoreIntegrityError as error:
                problems.append(str(error))
        spans.sort()
        position = 0
        for start, stop in spans:
            if start < position:
                problems.append(
                    f"{self.path}: index entries overlap at byte {start}"
                )
            position = stop
        if size:
            with open(self.path, "rb") as handle:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    problems.append(
                        f"{self.path}: missing trailing newline (compact "
                        "rewrites it)"
                    )
        return problems

    def stat(self) -> Dict[str, int]:
        """Record count and on-disk bytes of the log and its sidecar."""
        return {
            "records": len(self.entries),
            "bytes": _file_size(self.path),
            "index_bytes": (
                0 if self.sidecar_path is None
                else _file_size(self.sidecar_path)
            ),
        }
