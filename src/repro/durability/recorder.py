"""Deterministic run recording: LIVE → REPLAY → VERIFY.

A *run log* is one WAL file written by the same
:class:`~repro.durability.journal.Journal` as the durability log — a
segment nobody checkpointed (``fsync="never"`` by default: recording
is a determinism tool, not crash insurance) — capturing everything that
influenced a hub run: the hub configuration, every attach (query
source text + params + engine + options), every ingested batch in
released order, every detach/flush, and every emitted match with its
cursor.  The three modes:

* **LIVE** — :func:`recording_hub` builds a hub whose innermost
  middleware journals to the run log while the application runs
  normally (``python -m repro record`` does this for a CSV workload),
* **REPLAY** — :func:`replay_run` rebuilds the hub from the log's
  configuration record and re-executes the operation stream through
  :func:`~repro.durability.journal.apply_record`, as recovery does;
  deterministic engines reproduce the original matches bit-identically
  on their identities (``python -m repro replay``),
* **VERIFY** — :func:`verify_run` replays *and* compares each emitted
  match against the recorded emit stream, per attachment, in cursor
  order; any divergence (mismatched identity, missing or extra match)
  is reported and exits non-zero (``python -m repro verify-run``) —
  a regression harness for engine determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.durability.journal import (
    Journal,
    apply_record,
    attach_from_record,
    emits,
    hub_config,
    meta_config,
    open_hub,
)
from repro.durability.middleware import DurabilityMiddleware
from repro.durability.wal import WalWriter, read_wal
from repro.events.wire import dumps, loads
from repro.hub.core import StreamHub

__all__ = ["RunLog", "ReplayError", "VerifyReport",
           "recording_hub", "replay_run", "verify_run", "load_run"]


class ReplayError(RuntimeError):
    """The run log cannot be replayed (not a run log, or it recorded
    an attachment without replayable query source text)."""


def _emit_streams(records: Iterable[dict]) -> dict:
    """``{name: [(cursor, match_wire)]}`` of a record list.  The wires
    take one JSON round-trip so LIVE-recorded and freshly-replayed ones
    compare field-by-field (tuples become lists etc.)."""
    streams: dict[str, list[tuple[int, dict]]] = {}
    for name, cursor, wire in emits(records):
        streams.setdefault(name, []).append(
            (cursor, loads(dumps(wire))))
    return streams


class RunLog(Journal):
    """The LIVE-mode journal: one WAL file nobody checkpoints, whose
    first record is the hub configuration."""

    def __init__(self, path: Path | str, *, config: dict,
                 fsync: str = "never") -> None:
        self.path = Path(path)
        super().__init__(WalWriter(self.path, fsync))
        self.log_meta(config, mode="live")

    @property
    def matches_recorded(self) -> int:
        return sum(self._cursors.values())


def recording_hub(path: Path | str, *, slack: float = 0.0,
                  late_policy: str = "drop",
                  share: Optional[bool] = None, queue_size: int = 1024,
                  overflow: str = "raise", middleware: Iterable = (),
                  ) -> tuple[StreamHub, RunLog]:
    """A hub that records itself.  Extra ``middleware`` composes
    outside the recorder, so the log captures its effects (what was
    shed never reaches the log, exactly as it never reached the
    engines)."""
    config = hub_config(slack=slack, late_policy=late_policy, share=share,
                        queue_size=queue_size, overflow=overflow)
    log = RunLog(path, config=config)
    return open_hub(config, [*middleware, DurabilityMiddleware(log)]), log


class _Collector(list):
    """REPLAY mode's writer: the journal's records, kept in memory."""

    def flush_os(self) -> None:
        pass

    close = flush_os


def load_run(path: Path | str) -> tuple[dict, list[dict]]:
    """``(hub_config, records)`` of a run log; tolerates a torn tail
    (the clean prefix is still a valid, shorter run)."""
    records = read_wal(path).records
    config = meta_config(records)
    if config is None:
        raise ReplayError(f"{path} is not a run log (no meta record)")
    return config, records[1:]


def replay_run(path: Path | str, *,
               share: Optional[bool] = None) -> dict:
    """Re-execute a run log; returns ``{name: [(cursor, match_wire)]}``
    — the replayed emit streams.  ``share`` overrides the recorded
    sharing gate (replay across optimizer settings is itself a useful
    equivalence check; identities must not change)."""
    config, records = load_run(path)
    if share is not None:
        config = dict(config, share=share)
    replayed = _Collector()
    hub = open_hub(config, [DurabilityMiddleware(Journal(replayed))])

    def attach(record: dict) -> None:
        if not record.get("query"):
            raise ReplayError(
                f"attachment {record.get('name')!r} was recorded "
                f"without query source text; only parsed "
                f"MATCH-RECOGNIZE attachments replay")
        attach_from_record(hub, record)

    for record in records:
        apply_record(hub, record, attach)
    return _emit_streams(replayed)


@dataclass
class VerifyReport:
    """Outcome of VERIFY mode: recorded vs replayed emit streams."""

    attachments: int = 0
    matches_recorded: int = 0
    matches_replayed: int = 0
    divergences: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {"ok": self.ok, "attachments": self.attachments,
                "matches_recorded": self.matches_recorded,
                "matches_replayed": self.matches_replayed,
                "divergences": list(self.divergences)}


def verify_run(path: Path | str) -> VerifyReport:
    """Replay a run log and compare every emitted match — identity
    (constituent seqs/types), window, and derived attributes — against
    the recorded emit stream, in cursor order per attachment."""
    recorded = _emit_streams(load_run(path)[1])
    replayed = replay_run(path)
    report = VerifyReport(
        attachments=len(set(recorded) | set(replayed)),
        matches_recorded=sum(len(v) for v in recorded.values()),
        matches_replayed=sum(len(v) for v in replayed.values()))
    for name in sorted(set(recorded) | set(replayed)):
        want = recorded.get(name, [])
        got = replayed.get(name, [])
        for index in range(max(len(want), len(got))):
            if index >= len(want):
                report.divergences.append(
                    {"kind": "extra", "attachment": name,
                     "cursor": got[index][0], "replayed": got[index][1]})
            elif index >= len(got):
                report.divergences.append(
                    {"kind": "missing", "attachment": name,
                     "cursor": want[index][0],
                     "recorded": want[index][1]})
            elif want[index][1] != got[index][1]:
                report.divergences.append(
                    {"kind": "mismatch", "attachment": name,
                     "cursor": want[index][0],
                     "recorded": want[index][1],
                     "replayed": got[index][1]})
    return report
