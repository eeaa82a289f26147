"""The consumed-event ledger.

The ledger is the *resolved* truth about consumption: the set of events
definitively consumed by already-finished windows.  The sequential engine
uses it as its only consumption mechanism; SPECTRE uses it for the
non-speculative part of a window version's suppression set (everything a
version's root path no longer speculates about).
"""

from __future__ import annotations

from typing import Iterable

from repro.events.event import Event


class ConsumptionLedger:
    """Set of consumed events, by sequence number."""

    __slots__ = ("_seqs",)

    def __init__(self) -> None:
        self._seqs: set[int] = set()

    def consume(self, events: Iterable[Event]) -> None:
        self._seqs.update(event.seq for event in events)

    def consume_seqs(self, seqs: Iterable[int]) -> None:
        self._seqs.update(seqs)

    def is_consumed(self, event: Event) -> bool:
        return event.seq in self._seqs

    @property
    def seqs(self) -> set[int]:
        """The live seq set, read-only: it only grows, in place."""
        return self._seqs

    def overlaps_seqs(self, seqs: Iterable[int]) -> bool:
        """Does any of ``seqs`` already sit in the ledger?"""
        return not self._seqs.isdisjoint(seqs)

    def __contains__(self, event: Event) -> bool:
        return self.is_consumed(event)

    def __len__(self) -> int:
        return len(self._seqs)

    def snapshot(self) -> frozenset[int]:
        return frozenset(self._seqs)
