"""The newline-delimited JSON wire protocol (version 1).

Every message is one JSON object on one line (UTF-8, ``\\n``
terminated on the TCP transport; one WebSocket text frame on the WS
transport).  Every frame carries a ``"type"``; requests may carry a
client-chosen ``"id"`` which the server echoes in the matching ``ack``
or ``error`` frame.

Request frames (client → server)
--------------------------------
==============  ========================================================
``hello``       First frame on every connection: ``version`` (must be
                :data:`PROTOCOL_VERSION`), optional ``token`` (auth),
                optional ``client`` label.  Acked with the assigned
                ``client_id``.
``subscribe``   ``query`` (MATCH-RECOGNIZE text), optional ``name``,
                ``engine``, ``params`` mapping, ``watermarks`` flag.
                Acked with the subscription name; ``match`` frames for
                it stream until ``unsubscribe``/flush/disconnect.
                ``durable: true`` (needs ``name`` and a server WAL)
                keeps the attachment across disconnects and restarts
                and acks the current match ``cursor``;
                ``resume_from: C`` first replays the logged matches
                with cursor > C.
``unsubscribe`` ``subscription`` name.  Trailing windows flush first
                (their matches still arrive), then a final
                ``watermark`` frame, then the ack.
``push``        One ``event`` object; unacked unless ``ack: true``.
``push_many``   ``events`` list; acked with ``count``/``accepted``
                (they differ when per-client rate limiting sheds).
``flush``       End-of-stream barrier: trailing windows of every
                subscription emit, then the hub accepts no more events.
``stats``       Snapshot request; answered with a ``stats`` frame.
``ping``        Liveness probe; acked (``op: "ping"``).
``pong``        Reply to a server ``ping``; refreshes the client's
                liveness clock, no response.
==============  ========================================================

Response frames (server → client)
---------------------------------
==============  ========================================================
``ack``         ``op`` names the acked request; echoes ``id``; may
                carry op-specific fields (``client_id``,
                ``subscription``, ``count``, ``accepted``, ...).
``match``       One complex event: ``subscription`` + ``match``
                (``query``, ``window``, ``seqs``, ``etypes``,
                ``attributes``); on durable subscriptions also its
                ``cursor`` (contiguous from 1 per subscription name).
``error``       ``code`` (see :data:`ERROR_CODES`) + ``message``;
                echoes ``id`` when the offending request carried one.
``watermark``   ``subscription`` + ``watermark``; ``final: true`` marks
                the subscription's last frame (flush/unsubscribe).
``stats``       ``hub`` (the :meth:`HubStats.to_dict` snapshot) +
                ``server`` (clients/subscriptions/uptime counters).
``goodbye``     Graceful shutdown notice (``reason``: ``"shutdown"``,
                ``"idle_timeout"``, ``"slow_consumer"``, ...); the
                server closes the connection after sending it.
``ping``        Server-side liveness probe (``--heartbeat``); clients
                answer with a ``pong`` request.  :class:`ServerClient`
                replies automatically and never surfaces the frame.
==============  ========================================================

The codec is *typed*: :func:`validate_request` checks every field
against the :data:`REQUEST_FIELDS` table before a frame reaches the
core, and :func:`decode_frame` enforces the per-message size limit, so
transport handlers never see malformed payloads.

The JSON itself is :func:`repro.events.wire.dumps` / ``loads`` — the one
codec the WAL uses too (orjson when installed, the standard library
otherwise and wherever orjson is stricter; see that module).  A pushed
frame may therefore carry ``NaN``/``Infinity`` literals under either
codec, while a non-finite float in an *outgoing* frame (a derived match
attribute) is written as ``null`` on the orjson path, exactly as the
WAL's ``emit`` record of the same match already stores it, and as
``NaN``/``Infinity`` on the stdlib path.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.events import wire
from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.events.wire import (
    WireError,
    event_to_wire,
    match_from_wire,
    match_to_wire,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "validate_request",
    "event_to_wire",
    "event_from_wire",
    "match_to_wire",
    "match_from_wire",
    "ack_frame",
    "error_frame",
    "match_frame",
    "watermark_frame",
    "goodbye_frame",
    "ping_frame",
    "stats_frame",
]

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 20  # per-message cap on both transports

# error codes the server emits; clients can switch on these
ERROR_CODES = (
    "protocol",      # malformed frame / field type / unknown type
    "too_large",     # frame over the size limit
    "version",       # hello version mismatch
    "unauthorized",  # missing/bad token, or pre-hello traffic
    "busy",          # max_clients reached / draining
    "bad_query",     # subscribe query failed to parse/build
    "limit",         # per-client subscription cap
    "rate_limited",  # push refused under policy="raise"
    "closed",        # hub already flushed/closed (post-flush push)
    "unknown",       # unknown subscription name, internal failures
)


class ProtocolError(ValueError):
    """A frame violated the wire protocol (carries an error code)."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


# -- framing ---------------------------------------------------------------

def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One frame → one UTF-8 JSON line (compact separators).

    Non-JSON-native leaves (e.g. derived match attributes holding
    tuples of seqs) degrade to their ``str()`` — the wire never fails
    on exotic payloads, it stringifies them.
    """
    return wire.dumps(frame) + b"\n"


def decode_frame(data: bytes | str,
                 max_bytes: int = MAX_FRAME_BYTES) -> dict:
    """One wire message → a frame dict, size- and shape-checked."""
    if len(data) > max_bytes:
        raise ProtocolError(
            "too_large", f"frame of {len(data)} bytes exceeds the "
                         f"{max_bytes}-byte limit")
    try:
        frame = wire.loads(data)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError("protocol",
                            f"frame is not valid JSON: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError("protocol", "frame must be a JSON object")
    if not isinstance(frame.get("type"), str):
        raise ProtocolError("protocol", "frame needs a string 'type'")
    return frame


# -- typed request validation ---------------------------------------------

_ID_TYPES = (str, int)

# type -> {field: (types, required)}
REQUEST_FIELDS: dict[str, dict[str, tuple[tuple, bool]]] = {
    "hello": {"version": ((int,), False), "token": ((str,), False),
              "client": ((str,), False)},
    "subscribe": {"query": ((str,), True), "name": ((str,), False),
                  "engine": ((str,), False), "params": ((dict,), False),
                  "watermarks": ((bool,), False),
                  # durability: a durable subscription survives its
                  # client (and server restarts under --wal); the
                  # server acks it with the current match cursor and
                  # ``resume_from`` replays the missed suffix
                  "durable": ((bool,), False),
                  "resume_from": ((int,), False)},
    "unsubscribe": {"subscription": ((str,), True)},
    "push": {"event": ((dict,), True), "ack": ((bool,), False)},
    "push_many": {"events": ((list,), True)},
    "flush": {},
    "stats": {},
    "ping": {},
    "pong": {},
}


def validate_request(frame: dict) -> str:
    """Check ``frame`` against :data:`REQUEST_FIELDS`; return its type.

    Raises :class:`ProtocolError` on unknown types, missing required
    fields, or wrong field types — transports turn that into one
    ``error`` frame without the core ever seeing the request.
    """
    rtype = frame["type"]
    spec = REQUEST_FIELDS.get(rtype)
    if spec is None:
        raise ProtocolError("protocol", f"unknown request type {rtype!r}")
    rid = frame.get("id")
    if rid is not None and not isinstance(rid, _ID_TYPES):
        raise ProtocolError("protocol", "'id' must be a string or int")
    for field, (types, required) in spec.items():
        value = frame.get(field)
        if value is None:
            if required:
                raise ProtocolError(
                    "protocol", f"{rtype!r} requires field {field!r}")
            continue
        if not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            raise ProtocolError(
                "protocol",
                f"{rtype!r} field {field!r} must be {expected}, "
                f"got {type(value).__name__}")
    return rtype


# -- event / match codec ---------------------------------------------------
# The codecs live in repro.events.wire (shared with the WAL and the run
# recorder); this module re-exports them and maps decode failures onto
# the protocol's error-code taxonomy.

def event_from_wire(obj: Mapping[str, Any],
                    default_seq: Optional[int] = None) -> Event:
    """A pushed ``event`` object → :class:`Event`.

    ``seq`` may be omitted (the server assigns the next global
    sequence number via ``default_seq``); ``timestamp`` defaults to
    ``float(seq)`` mirroring :func:`repro.events.event.make_event`.
    """
    try:
        return wire.event_from_wire(obj, default_seq)
    except WireError as error:
        raise ProtocolError("protocol", str(error)) from None


# -- response builders -----------------------------------------------------

def _with_id(frame: dict, rid) -> dict:
    if rid is not None:
        frame["id"] = rid
    return frame


def ack_frame(op: str, rid=None, **extra) -> dict:
    frame = {"type": "ack", "op": op, **extra}
    return _with_id(frame, rid)


def error_frame(code: str, message: str, rid=None) -> dict:
    return _with_id({"type": "error", "code": code, "message": message},
                    rid)


def match_frame(subscription: str, match: ComplexEvent | dict,
                cursor: Optional[int] = None) -> dict:
    """A ``match`` frame from a live :class:`ComplexEvent` or from its
    already-encoded wire form (a durable resume re-frames the matches
    stored in the WAL without rebuilding the objects)."""
    frame = {"type": "match", "subscription": subscription,
             "match": match if isinstance(match, dict)
             else match_to_wire(match)}
    if cursor is not None:
        frame["cursor"] = cursor
    return frame


def watermark_frame(subscription: str, watermark: float,
                    final: bool = False) -> dict:
    if watermark in (float("-inf"), float("inf")) or \
            watermark != watermark:
        watermark = None  # JSON has no infinities; None = "none yet"
    frame = {"type": "watermark", "subscription": subscription,
             "watermark": watermark}
    if final:
        frame["final"] = True
    return frame


def goodbye_frame(reason: str) -> dict:
    return {"type": "goodbye", "reason": reason}


def ping_frame() -> dict:
    """Server → client liveness probe (the heartbeat loop)."""
    return {"type": "ping"}


def stats_frame(hub: dict, server: dict, rid=None) -> dict:
    return _with_id({"type": "stats", "hub": hub, "server": server}, rid)
