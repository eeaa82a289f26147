"""Event model: primitive events, complex events and ordered streams."""

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event, make_event
from repro.events.ooo import LateEventError, SlackSorter
from repro.events.stream import (
    EventStream,
    StreamOrderError,
    imerge_streams,
    merge_streams,
    validate_order,
)
from repro.events.wire import (
    WireError,
    event_from_wire,
    event_to_wire,
    events_from_wire,
    match_from_wire,
    match_to_wire,
)

__all__ = [
    "Event",
    "make_event",
    "ComplexEvent",
    "EventStream",
    "StreamOrderError",
    "imerge_streams",
    "merge_streams",
    "validate_order",
    "SlackSorter",
    "LateEventError",
    "WireError",
    "event_to_wire",
    "event_from_wire",
    "events_from_wire",
    "match_to_wire",
    "match_from_wire",
]
