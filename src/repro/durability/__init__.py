"""Durability: write-ahead logging, snapshot checkpointing, crash
recovery with exactly-once resume, and deterministic run recording.

Layers (each usable alone):

* :mod:`repro.durability.wal` — framed, checksummed, torn-tail-
  tolerant log segments and atomic snapshot files,
* :mod:`repro.durability.snapshot` — what a checkpoint captures and
  how the safe replay cut is computed,
* :mod:`repro.durability.journal` — the record grammar: the one
  writer (:class:`Journal`), reader and interpreter
  (:func:`apply_record`) of what those segments hold,
* :mod:`repro.durability.middleware` — the journal seam riding the
  interception pipeline,
* :mod:`repro.durability.manager` — :class:`DurabilityManager` (the
  journal + checkpoints + recovery) and the :class:`DurableHub` wrapper,
* :mod:`repro.durability.recorder` — LIVE/REPLAY/VERIFY run recording
  over the same journal (``python -m repro record / replay /
  verify-run``); a WAL segment nobody checkpointed is a run log.
"""

from repro.durability.manager import (
    DurabilityManager,
    DurableHub,
    RecoveryReport,
)
from repro.durability.middleware import DurabilityMiddleware
from repro.durability.recorder import (
    ReplayError,
    RunLog,
    VerifyReport,
    recording_hub,
    replay_run,
    verify_run,
)
from repro.durability.wal import (
    WalError,
    WalWriter,
    SnapshotError,
    list_segments,
    list_snapshots,
    read_snapshot,
    read_wal,
    segment_path,
    snapshot_path,
    write_snapshot,
)

__all__ = [
    "DurabilityManager",
    "DurableHub",
    "RecoveryReport",
    "DurabilityMiddleware",
    "RunLog",
    "ReplayError",
    "VerifyReport",
    "recording_hub",
    "replay_run",
    "verify_run",
    "WalError",
    "WalWriter",
    "SnapshotError",
    "read_wal",
    "segment_path",
    "snapshot_path",
    "list_segments",
    "list_snapshots",
    "read_snapshot",
    "write_snapshot",
]
