"""The durability manager: WAL + snapshots + exactly-once recovery.

One :class:`DurabilityManager` owns one directory::

    wal-00000001.log        segment 1 (rotated at every checkpoint)
    snapshot-00000001.json  state as of the end of segment 1
    wal-00000002.log        records since that checkpoint
    ...

**Checkpoint** = write ``snapshot-K`` (the hub state, atomically),
then rotate to segment ``K+1``.  **Recovery** = load the newest valid
snapshot ``K``, rebuild the hub from it (re-attach queries from their
source text, replay the released suffix to reopen windows and their
partial matches), then replay the WAL tail (segments ``> K``) through
the sorter.  Matches regenerated during replay that the pre-crash run
already delivered are suppressed by a per-attachment *multiset* of
match identities (a plain set would be wrong: the same constituent
set can legitimately match in two overlapping windows), so the
recovered hub emits **exactly** the matches the crashed run had not
yet delivered — no loss, no duplication, asserted by the
crash-injection suite.

The manager is the :class:`~repro.durability.journal.Journal` behind
:class:`~repro.durability.middleware.DurabilityMiddleware` (the record
grammar is the journal's; segments, checkpoints and suppression are
the policy added here) and the checkpoint scheduler behind
:class:`DurableHub` (sync) and the network server (``serve --wal``).
The durable *cursor* the journal assigns at emit-log time is the unit
of subscription resume (``client --resume-from``).

Caveats (documented, by design):

* suffix replay rebuilds open windows by re-running them, which is
  exact for consumption-free and tumbling-window queries (same
  contract as the hub's mid-stream admission); overlapping windows
  *with* consumption restore their ledgers (consumed events are
  skipped on replay) but may resolve cross-window races differently
  than the original run,
* sink delivery is at-least-once across a crash (the emit record is
  durable before the sink runs); the exactly-once guarantee is on the
  logged match stream and its cursors,
* replay determinism assumes deterministic engines (``sequential``,
  ``spectre``, ``trex``, ...); wall-clock-dependent engines are out.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

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
from repro.durability.snapshot import (
    build_snapshot,
    compute_cut,
    sorter_state,
    suffix_events,
)
from repro.durability.wal import (
    SnapshotError,
    WalWriter,
    iter_records,
    list_segments,
    list_snapshots,
    read_snapshot,
    read_wal,
    segment_path,
    snapshot_path,
    write_snapshot,
)
from repro.events.event import Event
from repro.hub.core import Attachment, StreamHub

__all__ = ["DurabilityManager", "DurableHub", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What a recovery did (``manager.recovery_report``)."""

    recovered: bool = False
    snapshot_segment: Optional[int] = None
    segments_replayed: int = 0
    replayed_events: int = 0
    # wall time of decoding the WAL tail and replaying the snapshot
    # suffix + the tail (hub construction and the closing checkpoint
    # not included)
    replay_seconds: float = 0.0
    suppressed_matches: int = 0
    residual_debt: int = 0        # pre-crash emits replay could not
    #                               regenerate (closed pre-cut windows)
    torn_segments: list[int] = field(default_factory=list)
    restored_attachments: list[str] = field(default_factory=list)
    skipped_attachments: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "recovered": self.recovered,
            "snapshot_segment": self.snapshot_segment,
            "segments_replayed": self.segments_replayed,
            "replayed_events": self.replayed_events,
            "replay_seconds": self.replay_seconds,
            "replay_events_per_s":
                self.replayed_events / self.replay_seconds
                if self.replay_seconds > 0 else 0.0,
            "suppressed_matches": self.suppressed_matches,
            "residual_debt": self.residual_debt,
            "torn_segments": list(self.torn_segments),
            "restored_attachments": list(self.restored_attachments),
            "skipped_attachments": list(self.skipped_attachments),
        }


class DurabilityManager(Journal):
    """The journal over rotating WAL segments plus its policy —
    checkpoint scheduler and recovery driver for one hub (directory
    layout in the module docstring)."""

    def __init__(self, directory: Path | str, *,
                 checkpoint_every: int = 10_000,
                 fsync: str = "batch",
                 default_durable: bool = True,
                 keep_segments: Optional[int] = None,
                 wal_write_retries: int = 2) -> None:
        super().__init__()  # no writer until start() opens a segment
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.fsync = fsync
        self.default_durable = default_durable
        # segment GC: None keeps everything forever; N >= 0 keeps the
        # newest snapshot plus N superseded segments as safety margin
        self.keep_segments = keep_segments
        self.wal_write_retries = int(wal_write_retries)
        self.wal_write_failures = 0
        self.segments_gced = 0
        self.snapshots_gced = 0
        # highest GC'd cursor per attachment: resumes below it would
        # silently skip matches whose emit records no longer exist
        self._resume_floor: dict[str, int] = {}
        # fault-injection seam: wraps each rotated segment's writer
        # (see repro.resilience.chaos.FlakyWalWriter)
        self.wal_writer_wrapper: Optional[Callable] = None
        self.middleware = DurabilityMiddleware(self)
        self._hub: Optional[StreamHub] = None
        self._segment = 0
        self._recovering = False
        # per-attachment durable state (cursors are the journal's)
        self._emitted: dict[str, Counter] = {}
        self._debt: dict[str, Counter] = {}       # recovery suppression
        self._attach_meta: dict[str, dict] = {}
        self._next_durable: Optional[bool] = None  # set_durable() latch
        # checkpoint bookkeeping
        self._logged_at_checkpoint = 0
        self.checkpoints_total = 0
        self._last_checkpoint_monotonic = time.monotonic()
        self._last_snapshot_bytes = 0
        self.extra_provider: Optional[Callable[[], dict]] = None
        self.recovered_extra: dict = {}
        self.max_replayed_seq = -1
        self.recovery_report = RecoveryReport()

    # -- lifecycle ---------------------------------------------------------

    @property
    def hub(self) -> StreamHub:
        if self._hub is None:
            raise RuntimeError("manager not started")
        return self._hub

    def has_state(self) -> bool:
        """Does the directory hold anything to recover from?"""
        return bool(list_segments(self.directory)
                    or list_snapshots(self.directory))

    def start(self, *, slack: float = 0.0, late_policy: str = "drop",
              share: Optional[bool] = None, queue_size: int = 1024,
              overflow: str = "raise", middleware: Iterable = (),
              restore_filter: Optional[Callable[[dict], bool]] = None,
              sink_provider: Optional[Callable[[dict], Any]] = None,
              ) -> StreamHub:
        """Open (or recover) the durable hub.

        A fresh directory gets a new hub with the given configuration;
        a directory with prior state is recovered — the *stored*
        configuration wins there, so a recovered hub behaves like the
        one that crashed.  ``middleware`` is extra hub middleware
        composed *outside* the durability middleware (so its effects
        are logged).  ``restore_filter`` decides per attachment record
        whether to restore it (default: its ``durable`` flag);
        ``sink_provider`` may return a sink callable for a restored
        attachment (default: sink-less, overflow ``drop_oldest`` so an
        unconsumed recovered attachment never blocks ingestion).
        """
        if self._hub is not None:
            raise RuntimeError("manager already started")
        config = hub_config(slack=slack, late_policy=late_policy,
                            share=share, queue_size=queue_size,
                            overflow=overflow)
        if self.has_state():
            return self._recover(middleware=middleware,
                                 restore_filter=restore_filter,
                                 sink_provider=sink_provider,
                                 fallback_config=config)
        hub = self._make_hub(config, middleware)
        self._segment = 1
        self._open_segment()
        return hub

    def _make_hub(self, config: dict, middleware: Iterable) -> StreamHub:
        self._config = hub_config(**config)
        hub = open_hub(self._config, [*middleware, self.middleware])
        hub.retain_released()
        hub.durability = self
        self._hub = hub
        return hub

    def _open_segment(self) -> None:
        writer = WalWriter(
            segment_path(self.directory, self._segment), self.fsync)
        if self.wal_writer_wrapper is not None:
            writer = self.wal_writer_wrapper(writer)
        self._writer = writer
        if writer.records_written == 0 and writer.bytes_written <= 10:
            self.log_meta(self._config, segment=self._segment)

    def _append(self, record: dict) -> None:
        """Append one record, riding out transient write failures:
        retry up to ``wal_write_retries`` times, then re-raise."""
        last_error: Optional[OSError] = None
        for _attempt in range(self.wal_write_retries + 1):
            try:
                self._writer.append(record)
                return
            except OSError as error:
                self.wal_write_failures += 1
                last_error = error
        raise last_error

    def close(self, *, checkpoint: bool = True) -> None:
        """Flush the log to disk (and by default take a final
        checkpoint so the next start recovers instantly)."""
        if self._writer is None:
            return  # never started, or closed already
        if checkpoint and self._hub is not None:
            self.checkpoint()
        super().close()

    # -- journal policy (the records themselves are Journal's) -------------

    def _logs_operations(self) -> bool:
        # recovery re-executes operations the log already holds
        return self._writer is not None and not self._recovering

    @property
    def events_since_checkpoint(self) -> int:
        """The checkpoint budget spent so far."""
        return self.events_logged - self._logged_at_checkpoint

    def log_attach(self, attachment: Attachment) -> None:
        durable, self._next_durable = (
            self.default_durable if self._next_durable is None
            else self._next_durable), None
        if self._logs_operations():
            self._attach_meta[attachment.name] = {
                "durable": durable, "pos": attachment.hub._position}
            super().log_attach(attachment, durable=durable)

    def log_detach(self, attachment: Attachment,
                   drain: bool = True) -> None:
        for ledger in (self._attach_meta, self._emitted,
                       self._resume_floor):
            ledger.pop(attachment.name, None)
        super().log_detach(attachment, drain)

    def set_durable(self, durable: Optional[bool]) -> None:
        """Latch the durable flag for the *next* attach (consumed by
        its ``log_attach``; single-threaded like the hub itself).
        ``None`` clears an unconsumed latch (the attach was refused)."""
        self._next_durable = durable

    def handle_match(self, name: str, match) -> Optional[Any]:
        key = match.constituent_seqs
        debt = self._debt.get(name)
        if debt:
            count = debt.get(key, 0)
            if count > 0:
                if count == 1:
                    del debt[key]
                else:
                    debt[key] = count - 1
                self.recovery_report.suppressed_matches += 1
                return None
        self._emitted.setdefault(name, Counter())[key] += 1
        return super().handle_match(name, match)

    def resume_floor(self, name: str) -> int:
        """The oldest cursor a subscription may still resume *after*:
        emit records at or below this cursor were segment-GC'd, so a
        ``resume_from`` below it cannot be replayed gaplessly."""
        return self._resume_floor.get(name, 0)

    # -- checkpointing -----------------------------------------------------

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if the configured ingest budget has passed.
        Call between pushes (the hub must be quiesced)."""
        if self.events_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> int:
        """Snapshot the hub and rotate the WAL; returns the snapshot's
        segment index.  With ``keep_segments`` set, segments wholly
        superseded by the new snapshot (beyond the safety margin) are
        deleted after the rotation — their emit cursors first folded
        into the resume floor the snapshot persists."""
        hub = self.hub
        if self._writer is None:
            raise RuntimeError("durability log is closed")
        cut = compute_cut(hub)
        done = self._segment
        # sync first: batch-mode buffers must be on disk both for the
        # snapshot to supersede this segment and for the floor scan
        self._writer.sync()
        if self.keep_segments is not None:
            self._absorb_resume_floors(done - self.keep_segments)
        body = build_snapshot(hub, segment=self._segment, cut=cut,
                              emitted=self._emitted,
                              cursors=self._cursors,
                              attach_meta=self._attach_meta,
                              extra=self.extra_provider()
                              if self.extra_provider else {})
        if self._resume_floor:
            body["resume_floor"] = dict(self._resume_floor)
        self._last_snapshot_bytes = write_snapshot(
            snapshot_path(self.directory, self._segment), body)
        # prune the in-memory emitted ledgers to what the snapshot kept
        # (identities regenerable from the suffix) so they stay bounded
        suffix_seqs = {e.seq for _p, e in hub.retained_suffix(cut)}
        for counter in self._emitted.values():
            for key in [k for k in counter
                        if not suffix_seqs.issuperset(k)]:
                del counter[key]
        hub.trim_retained(cut)
        self._writer.close()
        self._segment += 1
        self._open_segment()
        if self.keep_segments is not None:
            self._gc_superseded(done - self.keep_segments, done)
        self.checkpoints_total += 1
        self._logged_at_checkpoint = self.events_logged
        self._last_checkpoint_monotonic = time.monotonic()
        return done

    def _absorb_resume_floors(self, horizon: int) -> None:
        """Fold the emit cursors of every segment about to be GC'd
        (index <= ``horizon``) into the per-attachment resume floor, so
        the snapshot records how far back a subscription may resume
        once those records are gone.  Each segment is scanned exactly
        once: it is deleted in the same checkpoint."""
        for index, path in list_segments(self.directory):
            if index > horizon:
                continue
            for name, cursor, _wire in emits(read_wal(path).records):
                if cursor > self._resume_floor.get(name, 0):
                    self._resume_floor[name] = cursor

    def _gc_superseded(self, horizon: int, done: int) -> None:
        """Delete segments with index <= ``horizon`` (superseded by
        snapshot ``done``, beyond the ``keep_segments`` margin) and the
        snapshots nothing can fall back to once they are gone (a
        fallback to snapshot J needs every segment > J present)."""
        for index, path in list_segments(self.directory):
            if index > horizon or index >= self._segment:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self.segments_gced += 1
        for index, path in list_snapshots(self.directory):
            if index >= min(horizon, done):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self.snapshots_gced += 1

    # -- recovery ----------------------------------------------------------

    def _recover(self, *, middleware: Iterable,
                 restore_filter, sink_provider,
                 fallback_config: dict) -> StreamHub:
        report = self.recovery_report = RecoveryReport(recovered=True)
        if restore_filter is None:
            restore_filter = lambda record: bool(record.get("durable"))
        body, snapshot_segment = self._load_latest_snapshot()
        existing = list_segments(self.directory)
        last_existing = existing[-1][0] if existing else 0
        report.snapshot_segment = snapshot_segment
        # each tail segment is read, CRC-checked and decoded once; the
        # same records feed the hub configuration (without a snapshot),
        # the debt pre-scan and the replay
        decode_started = time.perf_counter()
        tail = [(index, read_wal(path)) for index, path in existing
                if index > (snapshot_segment or 0)]
        decode_seconds = time.perf_counter() - decode_started

        # the stored configuration wins: the snapshot's, or without one
        # the first segment's meta record (the tail is every segment)
        stored = body.get("hub") if body is not None else \
            meta_config(tail[0][1].records if tail else [])
        hub = self._make_hub({**fallback_config, **(stored or {})},
                             middleware)

        # open the post-recovery segment *before* replaying: novel
        # matches surfacing during replay (their emit records were lost
        # in the crash) are themselves logged durably
        self._segment = max(last_existing, snapshot_segment or 0) + 1
        self._open_segment()
        self._recovering = True
        replay_started = time.perf_counter()
        try:
            if body is not None:
                self._restore_snapshot(body, restore_filter,
                                       sink_provider, report)
            self._collect_debt(tail)
            self._replay_tail(tail, hub, restore_filter, sink_provider,
                              report)
        finally:
            report.replay_seconds = decode_seconds + \
                (time.perf_counter() - replay_started)
            self._recovering = False
            for attachment in hub._attachments:
                attachment._replay_skip = None
            report.residual_debt = sum(
                sum(c.values()) for c in self._debt.values())
            self._debt.clear()
        # fold the recovered state into a fresh checkpoint so repeated
        # crash/recover cycles never re-replay this tail
        self.checkpoint()
        return hub

    def _load_latest_snapshot(self) -> tuple[Optional[dict],
                                             Optional[int]]:
        for index, path in reversed(list_snapshots(self.directory)):
            try:
                return read_snapshot(path), index
            except SnapshotError:
                continue  # torn/corrupt snapshot: fall back one
        return None, None

    def _restore_snapshot(self, body: dict, restore_filter,
                          sink_provider, report: RecoveryReport) -> None:
        hub = self.hub
        for record in body.get("attachments", []):
            attachment = self._reattach(record, restore_filter,
                                        sink_provider, report)
            if attachment is None:
                continue
            name = attachment.name
            self._cursors[name] = int(record.get("cursor", 0))
            debt = Counter()
            for key, count in record.get("emitted", []):
                debt[tuple(key)] = int(count)
            self._debt[name] = debt
            self._emitted[name] = Counter(debt)
            consumed = record.get("consumed") or []
            if consumed:
                attachment._replay_skip = frozenset(consumed)
        first_position, events = suffix_events(body)
        hub.replay_suffix(first_position, events)
        report.replayed_events += len(events)
        # restore admission provenance and the ingest-side counters
        by_name = {a["name"]: a for a in body.get("attachments", [])}
        for attachment in hub._attachments:
            record = by_name.get(attachment.name)
            if record and record.get("state") == Attachment.LIVE and \
                    attachment._live:
                attachment.admission_position = \
                    record.get("admission_position")
                wm = record.get("admission_watermark")
                attachment.admission_watermark = \
                    None if wm is None else float(wm)
        state = sorter_state(body)
        hub.restore_ingest_state(
            events_pushed=int(body.get("events_pushed", 0)),
            pending=state["pending"], max_seen=state["max_seen"],
            released_key=state["released_key"],
            late_events=state["late_events"])
        for event in state["pending"]:
            self.max_replayed_seq = max(self.max_replayed_seq,
                                        event.seq)
        self.recovered_extra = dict(body.get("extra") or {})
        for name, floor in (body.get("resume_floor") or {}).items():
            if int(floor) > self._resume_floor.get(name, 0):
                self._resume_floor[name] = int(floor)
        if body.get("flushed"):
            hub._flush_raw()

    def _reattach(self, record: dict, restore_filter, sink_provider,
                  report: RecoveryReport) -> Optional[Attachment]:
        """Bring one attachment back from a snapshot entry or a tail
        ``attach`` record.  One that is filtered out, has no source
        text or is refused (unparseable text, rejected engine option,
        name taken) is listed as skipped and recovery proceeds."""
        hub = self.hub
        name = record.get("name")
        attachment = None
        if restore_filter(record) and record.get("query") and \
                name not in hub._names:
            try:
                attachment = attach_from_record(
                    hub, record,
                    sink_provider(record) if sink_provider else None)
            except Exception:
                pass  # counted: listed as skipped below
        if attachment is None:
            report.skipped_attachments.append(name)
            return None
        report.restored_attachments.append(name)
        self._attach_meta[name] = {
            "durable": bool(record.get("durable", True)),
            "pos": attachment._admit_floor or 0}
        return attachment

    def _collect_debt(self, tail: list) -> None:
        """Pre-scan the tail's emit records: every match the crashed
        run delivered after the snapshot joins the suppression multiset
        (replay will regenerate it) and advances its cursor floor."""
        for _index, result in tail:
            for name, cursor, wire in emits(result.records):
                key = tuple(wire.get("seqs") or ())
                self._debt.setdefault(name, Counter())[key] += 1
                self._emitted.setdefault(name, Counter())[key] += 1
                if cursor > self._cursors.get(name, 0):
                    self._cursors[name] = cursor

    def _replay_tail(self, tail: list, hub: StreamHub, restore_filter,
                     sink_provider, report: RecoveryReport) -> None:
        """Replay the decoded tail in log order; each ``push`` record
        re-enters the hub as the one batch it was logged as.  ``tail``
        is consumed: a segment's records are released once replayed."""
        def attach(record: dict) -> None:
            self._reattach(record, restore_filter, sink_provider, report)

        while tail:
            index, result = tail.pop(0)
            if result.torn:
                report.torn_segments.append(index)
            report.segments_replayed += 1
            for record in result.records:
                events = apply_record(hub, record, attach)
                if events:
                    report.replayed_events += len(events)
                    self.max_replayed_seq = max(
                        self.max_replayed_seq,
                        max(event.seq for event in events))

    # -- resume / observability --------------------------------------------

    def read_emits(self, name: str, after: int = 0,
                   upto: Optional[int] = None
                   ) -> Iterator[tuple[int, dict]]:
        """Yield ``(cursor, wire_match)`` for one attachment's logged
        emits with ``after < cursor <= upto`` across all live segments
        — the subscription-resume read path.  With segment GC enabled
        the walk is bounded by ``keep_segments``; callers must refuse
        ``after`` below :meth:`resume_floor` (GC'd records cannot be
        yielded, so the stream would silently gap)."""
        records = (record for _i, record in iter_records(self.directory))
        for attachment, cursor, wire in emits(records):
            if attachment == name and cursor > after and \
                    (upto is None or cursor <= upto):
                yield cursor, wire

    def wal_bytes(self) -> int:
        total = 0
        for _index, path in list_segments(self.directory):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def stats_dict(self) -> dict:
        """The ``durability`` block of ``hub.stats().to_dict()``."""
        return {
            "directory": str(self.directory),
            "segment": self._segment,
            "wal_bytes": self.wal_bytes(),
            "snapshot_bytes": self._last_snapshot_bytes,
            "checkpoints_total": self.checkpoints_total,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_age_seconds":
                time.monotonic() - self._last_checkpoint_monotonic,
            "events_since_checkpoint": self.events_since_checkpoint,
            "fsync": self.fsync,
            "cursors": dict(self._cursors),
            "retained_events": len(self.hub._retained or ()),
            "keep_segments": self.keep_segments,
            "segments_gced": self.segments_gced,
            "snapshots_gced": self.snapshots_gced,
            "resume_floor": dict(self._resume_floor),
            "wal_write_failures": self.wal_write_failures,
            "recovery": self.recovery_report.to_dict(),
        }


class DurableHub:
    """A :class:`~repro.hub.core.StreamHub` with durability: every
    ingest is WAL-logged, checkpoints fire automatically every
    ``checkpoint_every`` events, and constructing a :class:`DurableHub`
    over a directory with prior state *recovers* it.

    .. code-block:: python

        hub = DurableHub("state/", checkpoint_every=5000)
        hub.attach("PATTERN (A B) WITHIN 6 events FROM every 3 events",
                   engine="sequential", name="pairs")
        for event in source:
            hub.push(event)          # logged, periodically snapshotted
        hub.close()                  # final checkpoint

        hub = DurableHub("state/")   # crash or not: resumes exactly
    """

    def __init__(self, directory: Path | str, *,
                 checkpoint_every: int = 10_000, fsync: str = "batch",
                 keep_segments: Optional[int] = None,
                 slack: float = 0.0, late_policy: str = "drop",
                 share: Optional[bool] = None, queue_size: int = 1024,
                 overflow: str = "raise", middleware: Iterable = (),
                 restore_filter: Optional[Callable] = None,
                 sink_provider: Optional[Callable] = None) -> None:
        self.manager = DurabilityManager(
            directory, checkpoint_every=checkpoint_every, fsync=fsync,
            keep_segments=keep_segments)
        self.hub = self.manager.start(
            slack=slack, late_policy=late_policy, share=share,
            queue_size=queue_size, overflow=overflow,
            middleware=middleware, restore_filter=restore_filter,
            sink_provider=sink_provider)

    @property
    def recovered(self) -> bool:
        return self.manager.recovery_report.recovered

    @property
    def recovery_report(self) -> RecoveryReport:
        return self.manager.recovery_report

    def attach(self, query, *, durable: bool = True, **kwargs):
        if durable:
            text = query if isinstance(query, str) \
                else getattr(query, "text", None)
            if not text:
                raise ValueError(
                    "durable attachments need query source text "
                    "(pass MATCH-RECOGNIZE text or a parsed query); "
                    "use durable=False for hand-built queries")
        self.manager.set_durable(durable)
        return self.hub.attach(query, **kwargs)

    def push(self, event: Event) -> int:
        delivered = self.hub.push(event)
        self.manager.maybe_checkpoint()
        return delivered

    def push_many(self, events: Iterable[Event]) -> int:
        delivered = self.hub.push_many(events)
        self.manager.maybe_checkpoint()
        return delivered

    def flush(self) -> int:
        return self.hub.flush()

    def close(self) -> int:
        delivered = self.hub.close()
        self.manager.close(checkpoint=True)
        return delivered

    def checkpoint(self) -> int:
        return self.manager.checkpoint()

    def stats(self):
        return self.hub.stats()

    @property
    def watermark(self) -> float:
        return self.hub.watermark

    @property
    def attachments(self):
        return self.hub.attachments

    def cursor(self, name: str) -> int:
        return self.manager.cursor(name)

    def __enter__(self) -> "DurableHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.hub.abort()
            self.manager.close(checkpoint=False)
        else:
            self.close()
