"""Shared wire codecs for events and complex events.

One JSON shape per object, used identically by the network protocol
(:mod:`repro.server.protocol`), the write-ahead log and the run
recorder (:mod:`repro.durability`) — so a match recorded in a WAL is
byte-compatible with a match streamed to a client, and replaying a
recorded run re-decodes exactly what the server would have decoded.

Wire shapes
-----------
``Event``::

    {"seq": 7, "etype": "A", "timestamp": 7.0, "attributes": {...}}

``ComplexEvent``::

    {"query": "q1", "window": 3, "seqs": [5, 7], "etypes": ["A", "B"],
     "attributes": {...}}                       # compact form
    {..., "events": [<event wire>, ...]}        # extended form

The compact form is what protocol frames and WAL ``emit`` records
carry: it round-trips the match *identity* (query + constituent seqs)
but degrades constituents to seq/etype skeletons.  The extended form
(``match_to_wire(match, events=True)``) embeds the full constituent
events so :func:`match_from_wire` reconstructs a faithful
:class:`~repro.events.complex_event.ComplexEvent` — the WAL does not
pay for it on the hot path because a match's constituents are already
durable in the ``push`` records that carried them.

Attribute values must be JSON-representable; exotic leaves degrade to
``str()`` at serialization time (:func:`dumps` encodes with
``default=str``), which preserves identity-based comparisons.

The JSON codec
--------------
:func:`dumps` / :func:`loads` are the only JSON encoder and decoder of
wire bytes in ``src/`` — protocol frames, WAL records and the
recorder's round-trip all go through them.  They use ``orjson`` when it
is importable and the standard library otherwise, and fall back to the
standard library *per call* wherever orjson is stricter, so both accept
and produce the same language:

* encode — orjson refuses non-``str`` dict keys, ints beyond 64 bits
  and lone surrogates with a ``TypeError``; the stdlib encoder takes
  over (keys are stringified, big ints written in full).  Tuples are
  arrays, dataclass/datetime and other exotic leaves go through
  ``str()`` on both paths.  The two differ in bytes, not in meaning, on
  non-ASCII text (raw UTF-8 vs ``\\uXXXX``), float exponents (``1e16``
  vs ``1e+16``) and non-finite floats (orjson writes ``null``, the
  stdlib ``NaN``/``Infinity``);
* decode — orjson refuses the ``NaN``/``Infinity`` literals, numbers
  that overflow a double and lone surrogate escapes with a
  ``JSONDecodeError``; the stdlib decoder takes over, and what it
  refuses too is the caller's ``ValueError``.  An integer beyond 64
  bits decodes to a ``float`` under orjson, which is why an event
  ``seq`` must fit in 64 bits under either codec.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any, Iterable, Optional

try:  # ~3x the stdlib on protocol frames, ~15x on WAL records
    import orjson as _fastjson
except ImportError:  # pragma: no cover - depends on the environment
    _fastjson = None

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event

__all__ = [
    "WireError",
    "dumps",
    "loads",
    "event_to_wire",
    "event_from_wire",
    "events_from_wire",
    "pack_event",
    "unpack_event",
    "match_to_wire",
    "match_from_wire",
]

# leaves the stdlib encoder hands to ``default=str`` go there on the
# orjson path too, so both codecs write the same string for them
_FAST_OPTIONS = 0 if _fastjson is None else (
    _fastjson.OPT_PASSTHROUGH_DATACLASS | _fastjson.OPT_PASSTHROUGH_DATETIME)

_SEQ_MIN, _SEQ_MAX = -(1 << 63), (1 << 63) - 1
_ABSENT = object()  # "timestamp" left out (an explicit null is an error)


class WireError(ValueError):
    """A wire object failed to decode (malformed shape or field type).

    Raised out of :func:`events_from_wire` it carries ``next_seq``: the
    default sequence number the offending element would have got, i.e.
    the running default after the elements decoded before it."""

    next_seq: Optional[int] = None


def dumps(obj: Any) -> bytes:
    """Compact UTF-8 JSON of ``obj`` (no spaces, ``default=str``)."""
    if _fastjson is not None:
        try:
            return _fastjson.dumps(obj, default=str, option=_FAST_OPTIONS)
        except TypeError:
            pass  # non-str keys, > 64-bit ints: the stdlib encodes them
    return json.dumps(obj, separators=(",", ":"),
                      default=str).encode("utf-8")


def loads(data: bytes | str) -> Any:
    """Decode one JSON document; raises ``ValueError`` on bad input."""
    if _fastjson is not None:
        try:
            return _fastjson.loads(data)
        except _fastjson.JSONDecodeError:
            pass  # NaN/Infinity literals etc.: the stdlib accepts them
    return json.loads(data)


def event_to_wire(event: Event) -> dict:
    return {"seq": event.seq, "etype": event.etype,
            "timestamp": event.timestamp,
            "attributes": dict(event.attributes)}


def event_from_wire(obj: Mapping[str, Any],
                    default_seq: Optional[int] = None) -> Event:
    """A wire ``event`` object → :class:`Event`.

    ``seq`` may be omitted when the caller assigns sequence numbers
    (the server passes its next global sequence as ``default_seq``);
    ``timestamp`` defaults to ``float(seq)`` mirroring
    :func:`repro.events.event.make_event`.
    """
    # exact type first: the ABC check costs five times the dict one
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise WireError("event must be a JSON object")
    return _checked_event(obj.get("seq", default_seq), obj.get("etype"),
                          obj.get("timestamp", _ABSENT),
                          obj.get("attributes", {}))


def _checked_event(seq, etype, timestamp, attributes) -> Event:
    """Every field check of the two event wire forms, in one place.
    Fields with exactly the types a JSON decoder produces skip the
    ``isinstance`` ladder — it could not refuse them."""
    if not (type(etype) is str and etype and type(seq) is int
            and type(timestamp) is float and type(attributes) is dict):
        if not isinstance(etype, str) or not etype:
            raise WireError("event needs a non-empty string 'etype'")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise WireError("event 'seq' must be an int")
        if timestamp is _ABSENT:
            timestamp = seq
        elif isinstance(timestamp, bool) or \
                not isinstance(timestamp, (int, float)):
            raise WireError("event 'timestamp' must be a number")
        if not isinstance(attributes, dict):
            raise WireError("event 'attributes' must be an object")
    if not _SEQ_MIN <= seq <= _SEQ_MAX:
        raise WireError("event 'seq' must fit in 64 bits")
    return Event(seq, etype, float(timestamp), attributes)


def events_from_wire(objs: Iterable[Any],
                     default_seq: Optional[int] = None, *,
                     packed: bool = False
                     ) -> tuple[list[Event], Optional[int]]:
    """Decode a chunk of wire events in one loop → ``(events,
    next_seq)``.

    ``default_seq`` is the running default of the server's
    auto-numbering: an element without ``seq`` gets it, and it moves
    past every ``seq`` decoded (``next_seq`` is where the next chunk
    continues).  ``packed`` admits the WAL's rows as well
    (:func:`unpack_event`; they take no defaults).
    """
    events: list[Event] = []
    append = events.append
    next_seq = default_seq
    for obj in objs:
        try:
            event = unpack_event(obj) if packed \
                else event_from_wire(obj, next_seq)
        except WireError as error:
            error.next_seq = next_seq
            raise
        if next_seq is not None and event.seq >= next_seq:
            next_seq = event.seq + 1
        append(event)
    return events, next_seq


def pack_event(event: Event) -> list:
    """The packed event row ``[seq, etype, timestamp, attributes]`` —
    same information as :func:`event_to_wire`, but positional and
    zero-copy on ``attributes``, so building + JSON-encoding a WAL
    ``push`` record costs a fraction of the dict form.  The row is the
    WAL's hot-path shape; :func:`unpack_event` accepts both."""
    return [event.seq, event.etype, event.timestamp, event.attributes]


def unpack_event(obj: Any) -> Event:
    """Decode an event from the packed row or the dict wire form."""
    if type(obj) is list:
        if len(obj) != 4:
            raise WireError("packed event row must have 4 fields")
        return _checked_event(*obj)
    return event_from_wire(obj)


def match_to_wire(match: ComplexEvent, *, events: bool = False) -> dict:
    wire = {"query": match.query_name,
            "window": match.window_id,
            "seqs": list(match.constituent_seqs),
            "etypes": [event.etype for event in match.constituents],
            "attributes": dict(match.attributes)}
    if events:
        wire["events"] = [event_to_wire(e) for e in match.constituents]
    return wire


def match_from_wire(obj: Mapping[str, Any]) -> ComplexEvent:
    """A wire ``match`` object → :class:`ComplexEvent`.

    Prefers the durable form's embedded ``events``; without them the
    constituents are rebuilt as seq/etype skeletons (timestamp =
    ``float(seq)``, no attributes) — identity-faithful, payload-lossy.
    """
    if not isinstance(obj, Mapping):
        raise WireError("match must be a JSON object")
    query = obj.get("query")
    if not isinstance(query, str) or not query:
        raise WireError("match needs a non-empty string 'query'")
    events = obj.get("events")
    if events is not None:
        if not isinstance(events, list):
            raise WireError("match 'events' must be a list")
        constituents = tuple(event_from_wire(e) for e in events)
    else:
        seqs = obj.get("seqs")
        if not isinstance(seqs, list):
            raise WireError("match needs a 'seqs' list")
        etypes = obj.get("etypes") or [""] * len(seqs)
        if not isinstance(etypes, list) or len(etypes) != len(seqs):
            raise WireError("match 'etypes' must parallel 'seqs'")
        constituents = tuple(
            Event(seq=int(seq), etype=str(etype), timestamp=float(seq),
                  attributes={})
            for seq, etype in zip(seqs, etypes))
    attributes = obj.get("attributes") or {}
    if not isinstance(attributes, dict):
        raise WireError("match 'attributes' must be an object")
    window = obj.get("window")
    return ComplexEvent(query_name=query,
                        window_id=window if window is not None else -1,
                        constituents=constituents,
                        attributes=attributes)
