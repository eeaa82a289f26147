"""Event stream utilities.

An :class:`EventStream` is an ordered, indexable sequence of events — the
"shared memory" event buffer of the data-parallelization framework
(Fig. 2): the splitter appends incoming events, windows reference ranges of
it by index, and operator instances read events by position.

Positions are *global*: they keep counting monotonically even after the
retired prefix of the buffer has been dropped with :meth:`EventStream.trim`
(streaming sessions garbage-collect the prefix once no live window can
reference it, which is what makes unbounded streams run in bounded
memory).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from repro.events.event import Event


class StreamOrderError(ValueError):
    """Raised when events are appended out of global order."""


class EventStream:
    """Append-only, globally ordered event buffer.

    The stream enforces the total order of Sec. 2.1 on append: an event
    whose ``order_key`` is smaller than its predecessor's is rejected.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: list[Event] = []
        self._offset = 0  # global position of self._events[0]
        # last appended order key, kept separately so the order check
        # survives trim() emptying the retained buffer
        self._last_key: tuple[float, int] | None = None
        self.extend(events)

    def append(self, event: Event) -> None:
        """Append ``event``, enforcing the global order."""
        self.extend((event,))

    def extend(self, events: Iterable[Event]) -> None:
        """Append a batch, enforcing the global order on every event.

        Equivalent to :meth:`append` per event: an out-of-order event
        raises :class:`StreamOrderError` with the ordered prefix before
        it appended and the offender and everything after it not.
        """
        last = self._last_key
        append = self._events.append
        for event in events:
            key = (event.timestamp, event.seq)  # event.order_key, inlined
            if last is not None and key < last:
                self._last_key = last
                raise StreamOrderError(
                    f"event {event!r} (key {key}) arrives after "
                    f"key {last}"
                )
            append(event)
            last = key
        self._last_key = last

    def __len__(self) -> int:
        """Total number of events ever appended (= next global position)."""
        return self._offset + len(self._events)

    def __getitem__(self, index: int) -> Event:
        if index < 0:
            index += len(self)
        local = index - self._offset
        if local < 0:
            raise IndexError(
                f"position {index} was trimmed (stream offset "
                f"{self._offset})")
        return self._events[local]

    def __iter__(self) -> Iterator[Event]:
        """Iterate over the *retained* events (post-trim suffix)."""
        return iter(self._events)

    def slice(self, start: int, end: int) -> Sequence[Event]:
        """Events in global positions ``[start, end)``."""
        local_start = start - self._offset
        if local_start < 0 and end > start:
            raise IndexError(
                f"positions [{start}, {end}) reach into the trimmed "
                f"prefix (stream offset {self._offset})")
        return self._events[max(0, local_start):max(0, end - self._offset)]

    @property
    def last(self) -> Event | None:
        return self._events[-1] if self._events else None

    # -- prefix garbage collection ----------------------------------------

    @property
    def offset(self) -> int:
        """Global position of the first retained event."""
        return self._offset

    @property
    def retained(self) -> int:
        """Number of events currently held in memory."""
        return len(self._events)

    def trim(self, upto_pos: int) -> int:
        """Drop the prefix below global position ``upto_pos``.

        Positions stay global: ``len`` keeps counting appended events and
        indexing below ``upto_pos`` raises.  Returns the number of events
        dropped.
        """
        drop = min(upto_pos, len(self)) - self._offset
        if drop <= 0:
            return 0
        del self._events[:drop]
        self._offset += drop
        return drop


def imerge_streams(*streams: Iterable[Event]) -> Iterator[Event]:
    """Lazily merge several individually ordered streams into one global
    order.

    This models events from different sources arriving at one operator
    (Sec. 2.1: "events from different streams arriving at an operator have
    a well-defined global ordering").  The merge is ``heapq.merge``-backed
    and never materialises its inputs, so unbounded session feeds can be
    composed from multiple sources without buffering the whole stream;
    ties on ``order_key`` are broken by argument position (stable).
    """
    return heapq.merge(*streams, key=lambda event: event.order_key)


def merge_streams(*streams: Iterable[Event]) -> list[Event]:
    """List-returning wrapper around :func:`imerge_streams` (back-compat
    for callers that index or ``==``-compare the merged stream)."""
    return list(imerge_streams(*streams))


def validate_order(events: Sequence[Event]) -> bool:
    """Return ``True`` iff ``events`` respects the global total order."""
    return all(
        earlier.order_key <= later.order_key
        for earlier, later in zip(events, events[1:])
    )
