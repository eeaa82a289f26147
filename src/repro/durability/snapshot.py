"""Checkpoint snapshots: everything a hub needs to resume.

A snapshot captures, at a quiesced instant between pushes:

* the **hub configuration** (slack, late policy, sharing gate, queue
  bounds) so recovery rebuilds an identically-behaving hub,
* the **ingestion counters** and the **SlackSorter state** — held-back
  events, max timestamp seen, release horizon, late count,
* the **replayable released suffix**: the retained released events at
  or after the *checkpoint cut*, the position below which no live
  attachment's open window can anchor.  Open windows (and their
  partial matches) are not serialized engine-internals-style; they are
  rebuilt by replaying this suffix, which works for every engine,
* the **attachment registry**: per attachment its query source text +
  params (provenance for re-attachment), engine + options, admission
  state, consumption ledger (consumed seqs within the suffix), the
  emitted-match ledger (a multiset of match identities regenerable
  from the suffix — recovery uses it to suppress re-emission), and the
  durable **cursor** (total matches emitted, ever),
* an opaque **extra** dict for the embedding runtime (the server
  stores its next auto-assigned sequence number and durable-
  subscription registry there).

The checkpoint cut
------------------
The released stream is totally ordered, so the first retained
position whose timestamp reaches ``min(attachment watermarks)`` is a
safe cut: every live attachment's watermark lower-bounds its future
match anchors, open windows start at or after it, and window opening
is a function of absolute stream position (``position % slide`` for
count-slide starts, data-driven for predicate starts) — replaying
positions ``cut..now`` therefore reopens exactly the windows that
were open, with their original numbering.
"""

from __future__ import annotations

from typing import Optional

from repro.durability.journal import attach_record, hub_config
from repro.durability.wal import json_float, json_safe_float
from repro.events.wire import event_from_wire, event_to_wire
from repro.hub.core import Attachment, StreamHub

SNAPSHOT_FORMAT = 1

__all__ = ["SNAPSHOT_FORMAT", "compute_cut", "build_snapshot",
           "sorter_state", "suffix_events"]


def compute_cut(hub: StreamHub) -> int:
    """The lowest stream position any live attachment's open windows
    can still need (see the module docstring)."""
    floor = hub.retained_floor
    position = hub._position
    live = [a for a in hub._attachments if a.state == Attachment.LIVE]
    if not live:
        return position
    watermark = min(a.watermark for a in live)
    if watermark == float("-inf"):
        return floor  # an attachment has no horizon yet: keep it all
    cut = position
    for pos, event in (hub._retained or ()):
        if event.timestamp >= watermark:
            cut = pos
            break
    return max(min(cut, position), floor)


def build_snapshot(hub: StreamHub, *, segment: int, cut: int,
                   emitted: dict, cursors: dict, attach_meta: dict,
                   extra: Optional[dict] = None) -> dict:
    """Assemble one snapshot body (pure: mutates nothing).

    ``emitted`` maps attachment name → Counter of match identity keys
    (tuples of constituent seqs); entries are pruned here to those
    regenerable from the suffix, which also bounds the ledger's size.
    ``attach_meta`` maps name → {"durable": bool, "pos": int} recorded
    by the manager at attach time.
    """
    state = hub._sorter.state()
    suffix = hub.retained_suffix(cut)
    suffix_seqs = {event.seq for _pos, event in suffix}
    attachments = []
    for attachment in hub._attachments:
        meta = attach_meta.get(attachment.name, {})
        consumed = attachment.session.consumed_seqs()
        name = attachment.name
        counter = emitted.get(name, {})
        kept = [[list(key), count] for key, count in counter.items()
                if count > 0 and suffix_seqs.issuperset(key)]
        if attachment.state == Attachment.LIVE:
            admit_floor = attachment.admission_position
        else:
            admit_floor = meta.get("pos", attachment._admit_floor)
        attachments.append({
            **attach_record(attachment),
            "durable": bool(meta.get("durable", True)),
            "state": attachment.state,
            "admission_position": attachment.admission_position,
            "admission_watermark":
                json_safe_float(attachment.admission_watermark),
            "admit_floor": admit_floor,
            "consumed": sorted(seq for seq in consumed
                               if seq in suffix_seqs),
            "emitted": kept,
            "cursor": int(cursors.get(name, 0)),
        })
    return {
        "format": SNAPSHOT_FORMAT,
        "segment": segment,
        "hub": hub_config(
            slack=hub._sorter.slack, late_policy=hub._sorter.late_policy,
            share=hub._share, queue_size=hub.queue_size,
            overflow=hub.overflow),
        "events_pushed": hub.events_pushed,
        "position": hub._position,
        "flushed": hub.is_flushed,
        "sorter": {
            "pending": [event_to_wire(e) for e in state["pending"]],
            "max_seen": json_safe_float(state["max_seen"]),
            "released_key": [json_safe_float(state["released_key"][0]),
                             json_safe_float(state["released_key"][1])],
            "late_events": state["late_events"],
        },
        "suffix": {
            "first_position": cut,
            "events": [event_to_wire(e) for _pos, e in suffix],
        },
        "attachments": attachments,
        "extra": extra or {},
    }


def sorter_state(body: dict) -> dict:
    """Decoded sorter-restore arguments from a snapshot body."""
    raw = body.get("sorter", {})
    key = raw.get("released_key", ["-inf", "-inf"])
    return {
        "pending": [event_from_wire(obj)
                    for obj in raw.get("pending", [])],
        "max_seen": json_float(raw.get("max_seen", "-inf")),
        "released_key": (json_float(key[0]), json_float(key[1])),
        "late_events": int(raw.get("late_events", 0)),
    }


def suffix_events(body: dict) -> tuple[int, list]:
    """``(first_position, events)`` of the replayable suffix."""
    suffix = body.get("suffix", {})
    return (int(suffix.get("first_position", 0)),
            [event_from_wire(obj) for obj in suffix.get("events", [])])
