"""WAL segment format: framing, checksums, torn tails, snapshots."""

from __future__ import annotations

import json
import os

import pytest

from repro.durability.wal import (
    WAL_MAGIC,
    SnapshotError,
    WalError,
    WalWriter,
    iter_records,
    json_float,
    json_safe_float,
    list_segments,
    list_snapshots,
    read_snapshot,
    read_wal,
    segment_path,
    snapshot_path,
    write_snapshot,
)


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "wal-00000001.log"
    records = [{"t": "meta", "segment": 1},
               {"t": "push", "events": [1, 2, 3]},
               {"t": "emit", "a": "q", "c": 1, "m": {"seqs": [1, 2]}}]
    writer = WalWriter(path, "batch")
    for record in records:
        writer.append(record)
    writer.close()
    result = read_wal(path)
    assert result.records == records
    assert not result.torn
    assert result.valid_bytes == path.stat().st_size


def test_fsync_policies(tmp_path):
    for policy in ("always", "batch", "never"):
        path = tmp_path / f"wal-{policy}.log"
        writer = WalWriter(path, policy)
        writer.append({"p": policy})
        writer.sync()
        writer.close()
        assert read_wal(path).records == [{"p": policy}]
    with pytest.raises(WalError):
        WalWriter(tmp_path / "bad.log", "sometimes")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "wal-00000001.log"
    path.write_bytes(b"NOTAWAL!!\n")
    with pytest.raises(WalError):
        read_wal(path)


def test_empty_segment_is_a_torn_tail(tmp_path):
    """SIGKILL between creating a segment and writing its header leaves
    a zero-byte file: recovery must read it as torn (nothing lost), and
    a writer reopening it starts the segment afresh."""
    path = tmp_path / "wal-00000001.log"
    path.touch()
    result = read_wal(path)
    assert result.torn and result.records == [] and result.valid_bytes == 0
    writer = WalWriter(path, "never")
    writer.append({"n": 1})
    writer.close()
    assert read_wal(path).records == [{"n": 1}]


def test_torn_tail_detected_and_truncated_on_reopen(tmp_path):
    path = tmp_path / "wal-00000001.log"
    writer = WalWriter(path, "never")
    writer.append({"n": 1})
    writer.append({"n": 2})
    writer.close()
    clean = path.stat().st_size

    # tear the log mid-frame: a crash during the third append
    writer = WalWriter(path, "never")
    writer.append({"n": 3, "pad": "x" * 64})
    writer.close()
    full = path.stat().st_size
    with path.open("r+b") as handle:
        handle.truncate(full - 17)

    result = read_wal(path)
    assert [r["n"] for r in result.records] == [1, 2]
    assert result.torn and result.valid_bytes == clean

    # reopening for append truncates the torn suffix, then appends
    writer = WalWriter(path, "never")
    assert path.stat().st_size == clean
    writer.append({"n": 4})
    writer.close()
    result = read_wal(path)
    assert [r["n"] for r in result.records] == [1, 2, 4]
    assert not result.torn


def test_corrupt_crc_stops_reader(tmp_path):
    path = tmp_path / "wal-00000001.log"
    writer = WalWriter(path, "never")
    writer.append({"n": 1})
    writer.append({"n": 2})
    writer.close()
    data = bytearray(path.read_bytes())
    data[-3] ^= 0xFF  # flip a payload byte of the last record
    path.write_bytes(bytes(data))
    result = read_wal(path)
    assert [r["n"] for r in result.records] == [1]
    assert result.torn and "crc" in result.torn_reason


def test_segment_and_snapshot_listing(tmp_path):
    for n in (3, 1, 2):
        WalWriter(segment_path(tmp_path, n), "never").close()
    assert [n for n, _ in list_segments(tmp_path)] == [1, 2, 3]
    write_snapshot(snapshot_path(tmp_path, 2), {"segment": 2})
    write_snapshot(snapshot_path(tmp_path, 1), {"segment": 1})
    assert [n for n, _ in list_snapshots(tmp_path)] == [1, 2]


def test_iter_records_across_segments(tmp_path):
    for n in (1, 2):
        writer = WalWriter(segment_path(tmp_path, n), "never")
        writer.append({"segment": n})
        writer.close()
    assert [(s, r["segment"]) for s, r in iter_records(tmp_path)] == \
        [(1, 1), (2, 2)]
    assert [s for s, _ in iter_records(tmp_path, after_segment=1)] == [2]


def test_snapshot_roundtrip_and_corruption(tmp_path):
    path = snapshot_path(tmp_path, 1)
    body = {"segment": 1, "position": 42, "attachments": []}
    write_snapshot(path, body)
    assert read_snapshot(path) == body

    raw = json.loads(path.read_text())
    raw["body"]["position"] = 43  # body no longer matches the crc
    path.write_text(json.dumps(raw))
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_snapshot_write_is_atomic(tmp_path):
    path = snapshot_path(tmp_path, 1)
    write_snapshot(path, {"v": 1})
    write_snapshot(path, {"v": 2})
    assert read_snapshot(path) == {"v": 2}
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_json_float_tags_nonfinite():
    for value in (float("inf"), float("-inf")):
        assert json_float(json_safe_float(value)) == value
    nan = json_float(json_safe_float(float("nan")))
    assert nan != nan
    assert json_safe_float(1.5) == 1.5 and json_float(1.5) == 1.5


def test_magic_prefix_present(tmp_path):
    path = tmp_path / "wal-00000001.log"
    WalWriter(path, "never").close()
    assert path.read_bytes() == WAL_MAGIC
