"""The journal: the one writer, reader and interpreter of the WAL
record grammar (the ``"t"`` field — table in :mod:`repro.durability.wal`).

The grammar is mechanism and lives here, once: :class:`Journal` writes
it (the protocol :class:`~repro.durability.middleware.
DurabilityMiddleware` drives, over any writer with ``append /
flush_os / close``), :func:`meta_config` and :func:`emits` read it,
:func:`apply_record` re-executes it.  *What* is logged, when to
checkpoint and what to suppress is policy around it: the
:class:`~repro.durability.manager.DurabilityManager` is a journal over
rotating segments plus that policy, a run recording
(:mod:`repro.durability.recorder`) a journal over one file nobody
checkpoints — so an un-checkpointed WAL segment *is* a run log.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.events.event import Event
from repro.events.wire import events_from_wire
from repro.hub.core import Attachment, StreamHub
from repro.patterns.parser import parse_query

__all__ = ["Journal", "hub_config", "open_hub", "attach_record",
           "attach_from_record", "meta_config", "emits", "apply_record"]


def hub_config(slack: float = 0.0, late_policy: str = "drop",
               share: Optional[bool] = None, queue_size: int = 1024,
               overflow: str = "raise", **_newer) -> dict:
    """The hub configuration a log or snapshot stores — or, as
    ``hub_config(**stored)``, reads back (unknown fields ignored)."""
    return {"slack": float(slack), "late_policy": late_policy,
            "share": share, "queue_size": int(queue_size),
            "overflow": overflow}


def open_hub(config: dict, middleware: Iterable = ()) -> StreamHub:
    """The hub a stored configuration describes."""
    return StreamHub(**hub_config(**config), middleware=list(middleware))


def attach_record(attachment: Attachment) -> dict:
    """What re-attaching needs.  Options that are not JSON (engine
    config objects) are dropped to ``{}``: they tune performance, not
    output (the engines' equivalence contract), so the re-attached
    query runs on the engine's defaults."""
    query = attachment.query
    options = dict(attachment.engine_options)
    try:
        json.dumps(options)
    except (TypeError, ValueError):
        options = {}
    return {"name": attachment.name, "query": query.text,
            "params": [[k, v] for k, v in (query.params or ())],
            "engine": attachment.engine, "options": options}


def attach_from_record(hub: StreamHub, record: dict,
                       sink: Optional[Callable] = None) -> Attachment:
    """Inverse of :func:`attach_record`, for an ``attach`` record or a
    snapshot entry; raises what the parser or ``hub.attach`` raise.  A
    sink-less attachment must never block ingest: ``drop_oldest``."""
    params = dict(tuple(pair) for pair in record.get("params", []))
    query = parse_query(record["query"], name=record["name"],
                        params=params)
    attachment = hub.attach(
        query, engine=record.get("engine", "sequential"),
        name=record["name"], sink=sink,
        overflow=None if sink else "drop_oldest",
        **(record.get("options") or {}))
    floor = record.get("admit_floor", record.get("pos"))
    if floor is not None:
        attachment._admit_floor = int(floor)
    return attachment


def meta_config(records: list) -> Optional[dict]:
    """The hub configuration in the ``meta`` record a log opens with
    (``None``: it does not open with one)."""
    first = records[0] if records else {}
    if first.get("t") == "meta" and "hub" in first:
        return dict(first["hub"])
    return None


def emits(records: Iterable[dict]) -> Iterator[tuple[Any, int, dict]]:
    """``(attachment name, cursor, match wire)`` of every ``emit``
    record, in log order."""
    for record in records:
        if record.get("t") == "emit":
            yield (record.get("a"), int(record.get("c", 0)),
                   record.get("m") or {})


def apply_record(hub: StreamHub, record: dict,
                 attach: Callable[[dict], Any]) -> list[Event]:
    """Re-execute one operation record below the ingest chains (their
    effects are baked into what was logged) and the backpressure
    raise; returns the events a ``push`` re-ingested as the one batch
    it was logged as.  How an ``attach`` record comes back (filter,
    sink, error policy) is the caller's ``attach(record)``; ``emit``
    and ``meta`` records are outputs and framing: no-ops."""
    rtype = record.get("t")
    if rtype == "push":
        events, _ = events_from_wire(record.get("events", []), packed=True)
        hub.ingest_replay(events)
        return events
    if rtype == "attach":
        attach(record)
    elif rtype == "detach":
        name = record.get("name")
        for attachment in list(hub._attachments):
            if attachment.name == name:
                attachment.detach(drain=bool(record.get("drain", True)))
                break
    elif rtype == "flush" and not hub.is_flushed:
        hub._flush_raw()
    return []


class Journal:
    """The journal protocol over one writer (``None``: number the
    matches, log nothing).  Each match gets its per-attachment
    *cursor* — the count of matches ever emitted — at emit-log time."""

    def __init__(self, writer=None) -> None:
        self._writer = writer
        self._cursors: dict[str, int] = {}
        self.events_logged = 0

    def _append(self, record: dict) -> None:
        self._writer.append(record)

    def _logs_operations(self) -> bool:
        """``emit`` records are written whenever there is a writer."""
        return self._writer is not None

    def log_meta(self, config: dict, **extra) -> None:
        self._append({"t": "meta", **extra, "hub": config})

    def log_push(self, events: Iterable[Event]) -> None:
        events = list(events)
        if not events or not self._logs_operations():
            return
        # packed event rows (see repro.events.wire.pack_event), built
        # inline: this runs once per ingested batch on the hot path
        self._append(
            {"t": "push",
             "events": [[e.seq, e.etype, e.timestamp, e.attributes]
                        for e in events]})
        self.events_logged += len(events)

    def log_flush(self) -> None:
        if self._logs_operations():
            self._append({"t": "flush"})

    def log_op_end(self) -> None:
        """Per-operation durability boundary: one OS write for the
        operation's push record and every emit it caused."""
        if self._logs_operations():
            self._writer.flush_os()

    def log_attach(self, attachment: Attachment, **extra) -> None:
        if self._logs_operations():
            self._append({"t": "attach", **attach_record(attachment),
                          **extra, "pos": attachment.hub._position})
            self._writer.flush_os()  # lifecycle records are not batched

    def log_detach(self, attachment: Attachment,
                   drain: bool = True) -> None:
        # its cursor ends with it: a re-attached name counts from 1
        self._cursors.pop(attachment.name, None)
        if self._logs_operations():
            self._append({"t": "detach", "name": attachment.name,
                          "drain": bool(drain)})
            self._writer.flush_os()

    def handle_match(self, name: str, match) -> Any:
        cursor = self._cursors.get(name, 0) + 1
        self._cursors[name] = cursor
        if self._writer is not None:
            # the compact match wire (repro.events.wire.match_to_wire),
            # built zero-copy: tuples encode as JSON arrays and the
            # record is serialized immediately
            self._append({"t": "emit", "a": name, "c": cursor,
                          "m": {"query": match.query_name,
                                "window": match.window_id,
                                "seqs": match.constituent_seqs,
                                "etypes": [e.etype for e in
                                           match.constituents],
                                "attributes": match.attributes}})
        return match

    def cursor(self, name: str) -> int:
        """Durable cursor of one attachment: matches emitted, ever."""
        return self._cursors.get(name, 0)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
