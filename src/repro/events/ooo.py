"""Out-of-order arrival handling.

The engines require the globally ordered stream of Sec. 2.1.  Real sources
deliver events out of order; the standard remedy (Mutschler & Philippsen,
cited in Sec. 5) is a *slack buffer*: hold each event back for a slack
interval and release in timestamp order.  SPECTRE's own speculation starts
only after this reordering stage, so the two mechanisms compose.

:class:`SlackSorter` implements the buffer with a configurable slack and
an explicit policy for events arriving later than the slack allows
(``"drop"`` or ``"raise"``); late arrivals are counted either way.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.events.event import Event
from repro.utils.validation import require


class LateEventError(ValueError):
    """An event arrived after its release horizon had already passed."""


class SlackSorter:
    """Reorders a nearly ordered stream using a slack-time buffer.

    Events are buffered until the maximum timestamp seen so far exceeds
    their own by more than ``slack``; then they are released in
    ``(timestamp, seq)`` order.  An event at or below the current release
    horizon — its full ``order_key`` not after the last released event's —
    is *late*: with ``late_policy="drop"`` it is discarded and counted,
    with ``"raise"`` a :class:`LateEventError` is raised.  Comparing the
    full ``(timestamp, seq)`` key (not just the timestamp) keeps the
    released stream totally ordered even when an arrival ties the horizon
    timestamp with a lower sequence number.
    """

    def __init__(self, slack: float, late_policy: str = "drop") -> None:
        require(slack >= 0.0, "slack must be >= 0")
        require(late_policy in ("drop", "raise"),
                "late_policy must be 'drop' or 'raise'")
        self.slack = slack
        self.late_policy = late_policy
        self.late_events = 0
        self._heap: list[tuple[tuple[float, int], Event]] = []
        self._max_seen = float("-inf")
        # order key of the last released event: anything at or below it
        # would be emitted out of order, hence is late
        self._released_key: tuple[float, float] = (float("-inf"),
                                                   float("-inf"))

    @property
    def released_horizon(self) -> tuple[float, float]:
        """Order key of the last released event (-inf before the first)."""
        return self._released_key

    @property
    def watermark(self) -> float:
        """Timestamp of the last released event (-inf before the first).

        Everything at or below this timestamp is final: any later
        arrival there would be late.  The multi-query
        :class:`~repro.hub.StreamHub` uses this as its ingestion
        watermark — the admission point for dynamically attached
        queries.
        """
        return self._released_key[0]

    @property
    def pending(self) -> int:
        """Events currently held back in the slack buffer."""
        return len(self._heap)

    def push(self, event: Event) -> list[Event]:
        """Offer one event; returns the events released by its arrival."""
        return self.push_many((event,))

    def push_many(self, events: Iterable[Event]) -> list[Event]:
        """Offer a chunk in arrival order; returns everything its
        arrivals released, in release order — what one :meth:`push` per
        event would have returned, concatenated.  With
        ``late_policy="raise"`` the events before the offender have
        taken effect when :class:`LateEventError` propagates."""
        heap = self._heap
        slack = self.slack
        max_seen = self._max_seen
        released_key = self._released_key
        released: list[Event] = []
        try:
            for event in events:
                timestamp = event.timestamp
                key = (timestamp, event.seq)
                if key <= released_key:
                    self.late_events += 1
                    if self.late_policy == "raise":
                        raise LateEventError(
                            f"{event!r} arrived at or behind the release "
                            f"horizon {released_key}")
                    continue
                if timestamp > max_seen:
                    max_seen = timestamp
                horizon = max_seen - slack
                if not heap and timestamp <= horizon:
                    # already final and nothing held back: the arrival
                    # is its own release (always the case in order at
                    # slack 0) — no heap round-trip
                    released.append(event)
                    released_key = key
                    continue
                heapq.heappush(heap, (key, event))
                while heap and heap[0][0][0] <= horizon:
                    key, event = heapq.heappop(heap)
                    released.append(event)
                    if key > released_key:
                        released_key = key
        finally:
            self._max_seen = max_seen
            self._released_key = released_key
        return released

    def flush(self) -> list[Event]:
        """End of stream: release everything still buffered, in order."""
        released = [event for _key, event in sorted(self._heap)]
        self._heap = []
        if released:
            self._released_key = max(self._released_key,
                                     released[-1].order_key)
        return released

    def sort(self, events: Iterable[Event]) -> Iterator[Event]:
        """Convenience: reorder a whole finite stream lazily."""
        for event in events:
            yield from self.push(event)
        yield from self.flush()

    # -- durability (checkpoint / recovery) --------------------------------

    def state(self) -> dict:
        """Everything a checkpoint needs to rebuild this sorter:
        the held-back events (in release order), the maximum timestamp
        seen, the release horizon, and the late counter."""
        return {
            "pending": [event for _key, event in sorted(self._heap)],
            "max_seen": self._max_seen,
            "released_key": self._released_key,
            "late_events": self.late_events,
        }

    def restore(self, pending: Iterable[Event], max_seen: float,
                released_key: tuple[float, float],
                late_events: int = 0) -> None:
        """Rebuild the buffer from a checkpointed :meth:`state`.  The
        slack/late-policy configuration is *not* part of the state —
        the caller constructs the sorter with its own configuration
        first (recovery reads it from the snapshot's hub section)."""
        self._heap = [(event.order_key, event) for event in pending]
        heapq.heapify(self._heap)
        self._max_seen = max_seen
        self._released_key = (released_key[0], released_key[1])
        self.late_events = late_events
