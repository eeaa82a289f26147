"""Consumption groups.

A consumption group (CG) is maintained for each partial match found in a
window version (Sec. 3.1): it records all events of this window that must
be consumed if the partial match becomes a total match.  While the match is
open the group grows (events added "in conformance with the specified
consumption policy"); on completion all its events are consumed *as a
whole*; on abandonment it is dropped and nothing is consumed.

Groups are **versioned**: every mutation bumps ``version``.  Operator
instances processing window versions that *suppress* this group compare
the version against the one they last checked to detect late updates —
the consistency-check mechanism of Fig. 8 (lines 31–45).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

from repro.events.event import Event
from repro.matching.base import PartialMatch


class GroupState(enum.Enum):
    """Lifecycle of a consumption group."""

    OPEN = "open"
    COMPLETED = "completed"
    ABANDONED = "abandoned"


class ConsumptionGroup:
    """Event set + lifecycle of one speculative consumption.

    Parameters
    ----------
    group_id:
        Engine-assigned id.
    match:
        The underlying partial match; its live ``delta`` feeds the
        completion-probability prediction (Fig. 5, line 7).
    events:
        Initial consumable events (those already bound at creation).
    """

    __slots__ = ("group_id", "match", "state", "version",
                 "_event_seqs", "_events", "owner")

    def __init__(self, group_id: int, match: Optional[PartialMatch] = None,
                 events: Iterable[Event] = ()) -> None:
        self.group_id = group_id
        self.match = match
        self.state = GroupState.OPEN
        self.version = 0
        self.owner = None  # set by the engine: the owning WindowVersion
        self._events: list[Event] = []
        self._event_seqs: set[int] = set()
        for event in events:
            self.add(event, _initial=True)

    # -- event set ---------------------------------------------------------

    def add(self, event: Event, _initial: bool = False) -> None:
        """Add an event to the group (bumps the version).

        Copy-on-write: readers in other threads (suppression checks,
        consistency checks) always observe a fully formed set — they may
        be one update behind, which is exactly the staleness the Fig. 8
        consistency protocol is designed to detect."""
        if self.state is not GroupState.OPEN and not _initial:
            raise RuntimeError(
                f"cannot add to {self.state.value} group {self.group_id}")
        if event.seq in self._event_seqs:
            return
        new_events = self._events + [event]
        new_seqs = set(self._event_seqs)
        new_seqs.add(event.seq)
        self._events = new_events
        self._event_seqs = new_seqs
        self.version += 1

    @property
    def events(self) -> Sequence[Event]:
        return tuple(self._events)

    @property
    def event_seqs(self) -> set[int]:
        """The live seq set, read-only: an update publishes a new set, so
        a reference taken is a snapshot."""
        return self._event_seqs

    def overlaps_seqs(self, seqs: Iterable[int]) -> bool:
        """Does any of ``seqs`` sit in the group?"""
        return not self._event_seqs.isdisjoint(seqs)

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self.state is GroupState.OPEN

    @property
    def delta(self) -> int:
        """Current inverse degree of completion (0 once completed)."""
        if self.state is GroupState.COMPLETED:
            return 0
        if self.match is None:
            return 1
        return self.match.delta

    def complete(self, final_events: Iterable[Event] = ()) -> None:
        """Mark completed; ``final_events`` replaces the event set with the
        definitive consumed set reported by the detector."""
        if self.state is not GroupState.OPEN:
            raise RuntimeError(f"group {self.group_id} already "
                               f"{self.state.value}")
        final = list(final_events)
        if final:
            new_events: list[Event] = []
            new_seqs: set[int] = set()
            for event in final:
                if event.seq not in new_seqs:
                    new_events.append(event)
                    new_seqs.add(event.seq)
            # atomic publish: readers see either the old or the new set
            self._events = new_events
            self._event_seqs = new_seqs
        self.state = GroupState.COMPLETED
        self.version += 1

    def abandon(self) -> None:
        if self.state is not GroupState.OPEN:
            raise RuntimeError(f"group {self.group_id} already "
                               f"{self.state.value}")
        self.state = GroupState.ABANDONED
        self.version += 1

    def retract(self) -> None:
        """Rollback support: discard the group as if abandoned, from any
        state — the owner version is reprocessing from the start and will
        re-derive its partial matches."""
        self.state = GroupState.ABANDONED
        self.version += 1

    def __repr__(self) -> str:
        return (f"CG(id={self.group_id}, {self.state.value}, "
                f"|events|={len(self._events)}, v{self.version})")
