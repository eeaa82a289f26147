"""The write-ahead log: framed, checksummed, torn-tail tolerant.

One WAL file is a magic header followed by length-prefixed frames::

    REPROWAL1\\n                       10-byte magic + format version
    <u32 length> <u32 crc32> <payload>   repeated; little-endian header
    ...

Each payload is one compact-JSON record (UTF-8).  The framing gives
the two properties recovery needs:

* **torn-tail tolerance** — a crash mid-write leaves at most one
  partial frame at the end of the file.  :func:`read_wal` stops at the
  first short/corrupt frame and reports the clean-prefix byte count;
  :class:`WalWriter` truncates to that prefix when it re-opens the
  file, so the log is always a clean prefix of what was appended.
* **causal ordering** — the durability middleware appends the ingest
  record *before* the events fan out, so an ``emit`` record can never
  survive a crash that lost the ``push`` that caused it.

Record types (the ``"t"`` field; this module only frames payloads —
:mod:`repro.durability.journal` is the only code that reads or writes
that field)::

    meta    {"segment": n, "hub": {...}}       first record per segment
            (a run log's carries ``"mode": "live"`` instead)
    attach  {"name", "query", "params", "engine", "options",
             "durable", "pos"}
    detach  {"name", "drain"}
    push    {"events": [[seq, etype, timestamp, attributes], ...]}
            one record per push batch, packed event rows (the dict
            event-wire form is also accepted on replay)
    emit    {"a": name, "c": cursor, "m": <match wire>}
    flush   {}

fsync policy (``WalWriter(fsync=...)``):

* ``"always"`` — flush + ``os.fsync`` after every append (safe against
  power loss; slowest),
* ``"batch"`` (default) — appends stay in the writer's buffer until
  :meth:`WalWriter.flush_os` (the durability middleware flushes at
  every hub-operation boundary, so a completed ``push``/``flush``
  call survives ``SIGKILL`` — OS-buffered writes outlive the
  process), fsync at checkpoints/close; power loss may cost the tail,
* ``"never"`` — same buffering and flush boundaries, no fsync ever
  (for benches and run recording).

A kill mid-operation can lose the buffered suffix — at most the
in-flight operation's records, ending in a torn tail the reader
drops.  Recovery replays the lost ingest (the producer re-pushes from
``events_pushed``) and deterministic engines regenerate the lost
emits with identical cursors, so the logged match stream stays
exactly-once; sink delivery across a crash is at-least-once either
way (see :mod:`repro.durability.manager`).
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.events import wire

__all__ = [
    "WAL_MAGIC",
    "MAX_RECORD_BYTES",
    "WalError",
    "WalWriter",
    "WalReadResult",
    "read_wal",
    "iter_records",
    "segment_path",
    "snapshot_path",
    "list_segments",
    "list_snapshots",
]

WAL_MAGIC = b"REPROWAL1\n"
_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
MAX_RECORD_BYTES = 64 << 20     # sanity bound on one frame

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")
_BUFFER_BYTES = 1 << 18  # batch many appends per write syscall

FSYNC_POLICIES = ("always", "batch", "never")


class WalError(RuntimeError):
    """The WAL directory or a segment is unusable (bad magic, bad
    fsync policy, oversized record)."""


# one WAL record <-> its payload: the codec the protocol frames use
# (repro.events.wire — both of its encoders write interchangeable JSON)
encode_record = wire.dumps
decode_record = wire.loads


def segment_path(directory: Path | str, index: int) -> Path:
    return Path(directory) / f"wal-{index:08d}.log"


def snapshot_path(directory: Path | str, index: int) -> Path:
    return Path(directory) / f"snapshot-{index:08d}.json"


def list_segments(directory: Path | str) -> list[tuple[int, Path]]:
    """``(index, path)`` of every WAL segment, ascending."""
    return _list(directory, _SEGMENT_RE)


def list_snapshots(directory: Path | str) -> list[tuple[int, Path]]:
    """``(index, path)`` of every snapshot file, ascending."""
    return _list(directory, _SNAPSHOT_RE)


def _list(directory: Path | str, pattern: re.Pattern) -> list:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for entry in directory.iterdir():
        m = pattern.match(entry.name)
        if m is not None:
            out.append((int(m.group(1)), entry))
    out.sort()
    return out


class WalWriter:
    """Append-only writer for one WAL segment.

    Re-opening an existing segment validates the clean prefix and
    truncates any torn tail before appending, so a writer restarted
    after a crash never interleaves new records with garbage.
    """

    def __init__(self, path: Path | str, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(f"fsync must be one of {FSYNC_POLICIES}, "
                           f"got {fsync!r}")
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            result = read_wal(self.path)
            if result.torn:
                with open(self.path, "r+b") as fh:
                    fh.truncate(result.valid_bytes)
            self._file = open(self.path, "ab", buffering=_BUFFER_BYTES)
            self._bytes = result.valid_bytes
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "wb", buffering=_BUFFER_BYTES)
            self._file.write(WAL_MAGIC)
            self._file.flush()
            self._bytes = len(WAL_MAGIC)
        self._synced_bytes = self._bytes

    @property
    def bytes_written(self) -> int:
        """Clean-prefix size of the segment (magic + whole frames)."""
        return self._bytes

    def append(self, record: dict) -> int:
        """Frame and append one record; returns the byte offset after
        it.  The bytes land in the writer's buffer — callers mark the
        survivable boundary with :meth:`flush_os` (``"always"`` syncs
        here instead, per append)."""
        payload = encode_record(record)
        if len(payload) > MAX_RECORD_BYTES:
            raise WalError(f"record of {len(payload)} bytes exceeds "
                           f"the {MAX_RECORD_BYTES}-byte frame bound")
        self._file.write(_HEADER.pack(len(payload),
                                      zlib.crc32(payload)))
        self._file.write(payload)
        self._bytes += _HEADER.size + len(payload)
        if self.fsync == "always":
            self._file.flush()
            os.fsync(self._file.fileno())
            self._synced_bytes = self._bytes
        self.records_written += 1
        return self._bytes

    def flush_os(self) -> None:
        """Hand buffered appends to the OS (one write syscall for the
        whole batch): once this returns the records survive a process
        kill — the per-operation durability boundary."""
        self._file.flush()

    def sync(self) -> None:
        """Force bytes to stable storage (checkpoint barrier).  A
        no-op fsync-wise when nothing was appended since the last sync
        (checkpoints rotate segments right after syncing them)."""
        self._file.flush()
        if self.fsync != "never" and self._bytes != self._synced_bytes:
            os.fsync(self._file.fileno())
            self._synced_bytes = self._bytes

    def close(self) -> None:
        if self._file.closed:
            return
        self.sync()
        self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class WalReadResult:
    """Outcome of scanning one segment."""

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0     # clean-prefix length (magic + whole frames)
    torn: bool = False       # a partial/corrupt tail was dropped
    torn_reason: Optional[str] = None


def read_wal(path: Path | str) -> WalReadResult:
    """Scan one segment, tolerating a torn tail.

    Stops at the first short read, CRC mismatch or undecodable
    payload; everything before it is the clean prefix.  An empty file
    is a segment whose writer died before its header reached the OS: a
    torn tail with no clean prefix.  Any other file without the magic
    header raises :class:`WalError` — that is not a WAL.
    """
    path = Path(path)
    result = WalReadResult()
    with open(path, "rb") as fh:
        magic = fh.read(len(WAL_MAGIC))
        if not magic:
            result.torn, result.torn_reason = True, "empty segment"
            return result
        if magic != WAL_MAGIC:
            raise WalError(f"{path} is not a WAL segment "
                           f"(bad magic {magic[:10]!r})")
        result.valid_bytes = len(WAL_MAGIC)
        while True:
            header = fh.read(_HEADER.size)
            if not header:
                return result  # clean EOF
            if len(header) < _HEADER.size:
                result.torn, result.torn_reason = True, "short header"
                return result
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                result.torn, result.torn_reason = True, "bad length"
                return result
            payload = fh.read(length)
            if len(payload) < length:
                result.torn, result.torn_reason = True, "short payload"
                return result
            if zlib.crc32(payload) != crc:
                result.torn, result.torn_reason = True, "crc mismatch"
                return result
            try:
                record = decode_record(payload)
            except ValueError:
                result.torn, result.torn_reason = True, "bad json"
                return result
            result.records.append(record)
            result.valid_bytes += _HEADER.size + length


def iter_records(directory: Path | str,
                 after_segment: int = 0) -> Iterator[tuple[int, dict]]:
    """Yield ``(segment_index, record)`` across every segment with an
    index greater than ``after_segment``, in order, tolerating torn
    tails per segment."""
    for index, path in list_segments(directory):
        if index <= after_segment:
            continue
        for record in read_wal(path).records:
            yield index, record


# -- snapshot files ---------------------------------------------------------
# A snapshot is one JSON document {"crc": ..., "body": {...}} written
# atomically (tmp + fsync + rename); the crc covers the canonical body
# encoding so a half-written or bit-rotted snapshot is detected and
# recovery falls back to the previous one.

class SnapshotError(RuntimeError):
    """A snapshot file failed to load or validate."""


def _canonical(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":"), sort_keys=True,
                      default=str).encode("utf-8")


def write_snapshot(path: Path | str, body: dict) -> int:
    """Atomically persist a snapshot body; returns its size in bytes."""
    path = Path(path)
    payload = _canonical(body)
    # splice the canonical payload in verbatim instead of re-encoding
    # the whole document (the body is encoded exactly once)
    document = b'{"crc":%d,"body":%s}' % (zlib.crc32(payload), payload)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(document)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return len(document)


def read_snapshot(path: Path | str) -> dict:
    """Load and validate one snapshot; returns its body."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            document = json.loads(fh.read())
    except (OSError, ValueError) as error:
        raise SnapshotError(f"unreadable snapshot {path}: {error}") \
            from None
    if not isinstance(document, dict) or "body" not in document:
        raise SnapshotError(f"snapshot {path} has no body")
    body = document["body"]
    if zlib.crc32(_canonical(body)) != document.get("crc"):
        raise SnapshotError(f"snapshot {path} failed its checksum")
    return body


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def json_safe_float(value: Optional[float]) -> Any:
    """JSON has no infinities: map ±inf/NaN to a tagged string that
    :func:`json_float` restores exactly (snapshot fields like the
    release horizon legitimately hold -inf before the first event)."""
    if value is None:
        return None
    if value != value:
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return value


def json_float(value: Any) -> float:
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return float(value)
