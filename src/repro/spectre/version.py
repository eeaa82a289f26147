"""Window versions: speculative processing state of one window.

A *window version* is one speculative hypothesis about a window's event
set (Sec. 3.1): it assumes, for every unresolved consumption group of a
preceding window version on its root path, either completion (the group's
events are *suppressed*) or abandonment (they are processed normally).

The version owns all processing state, kept in "shared memory" so that any
operator instance can resume it (Sec. 2.2): the detector, the position of
the next event, the events actually used, buffered speculative complex
events, and the consumption groups its own partial matches created.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.consumption.group import ConsumptionGroup, GroupState
from repro.events.complex_event import ComplexEvent
from repro.matching.base import Detector, PartialMatch
from repro.windows.window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.patterns.query import Query


class WindowVersion:
    """Speculative processing state for one window under one hypothesis."""

    __slots__ = (
        "version_id", "window", "assumes_completed", "assumes_abandoned",
        "ledger", "position", "detector", "used_seqs",
        "buffered", "own_groups", "match_to_group", "local_consumed_seqs",
        "finished", "alive", "scheduled_on", "last_checked",
        "steps_since_check", "rollbacks", "steps_spent", "lock", "_query",
    )

    def __init__(self, version_id: int, window: Window, query: "Query",
                 assumes_completed: tuple[ConsumptionGroup, ...] = (),
                 assumes_abandoned: tuple[ConsumptionGroup, ...] = (),
                 ledger=None) -> None:
        self.version_id = version_id
        self.window = window
        self._query = query
        # Groups on the root path whose *completion* this version assumes:
        # their events are suppressed (Fig. 3: versions reachable via a
        # completion edge "do not include any event included in CG").
        self.assumes_completed = assumes_completed
        # Groups whose *abandonment* this version assumes: their events
        # "have no effect" — processed normally, but the version dies if
        # the group completes after all.
        self.assumes_abandoned = assumes_abandoned
        # Live ledger of events consumed by already-emitted windows.  The
        # ledger only grows, and growth relevant to this version always
        # travels through a group on its root path first, so reading it
        # live is safe (consistency is enforced via the groups).
        self.ledger = ledger

        # -- mutable processing state (the shared-memory window state) --
        self.position = 0
        self.detector: Optional[Detector] = None
        self.used_seqs: set[int] = set()
        self.buffered: list[ComplexEvent] = []
        self.own_groups: list[ConsumptionGroup] = []
        self.match_to_group: dict[int, ConsumptionGroup] = {}
        self.local_consumed_seqs: set[int] = set()
        self.finished = False
        self.alive = True
        self.scheduled_on: Optional[int] = None
        self.last_checked: dict[int, int] = {}
        self.steps_since_check = 0
        self.rollbacks = 0
        self.steps_spent = 0
        # serialises processing steps against splitter-side rollbacks in
        # the threaded runtime; uncontended (cheap) in the simulated one
        self.lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def ensure_detector(self) -> Detector:
        if self.detector is None:
            self.detector = self._query.new_detector(self.window.start_event)
        return self.detector

    def group_for_match(self, match: PartialMatch) -> Optional[ConsumptionGroup]:
        return self.match_to_group.get(id(match))

    def register_group(self, group: ConsumptionGroup,
                       match: PartialMatch) -> None:
        self.own_groups.append(group)
        self.match_to_group[id(match)] = group

    def rollback(self) -> list[ConsumptionGroup]:
        """Reset processing to the window start (Fig. 8 line 43).

        Returns the version's own groups that must be *retracted* from the
        dependency tree — reprocessing will re-derive partial matches, so
        the stale speculative structure below them is discarded.
        """
        retired = list(self.own_groups)
        self.position = 0
        self.detector = None
        self.used_seqs = set()
        self.buffered = []
        self.own_groups = []
        self.match_to_group = {}
        self.local_consumed_seqs = set()
        self.finished = False
        self.last_checked = {}
        self.steps_since_check = 0
        self.rollbacks += 1
        return retired

    def consistency_violations(self) -> bool:
        """Fig. 8 lines 33–41: did a suppressed group gain an event this
        version already used?"""
        inconsistent = False
        for group in self.assumes_completed:
            if group.version != self.last_checked.get(group.group_id):
                if group.overlaps_seqs(self.used_seqs):
                    inconsistent = True
            self.last_checked[group.group_id] = group.version
        return inconsistent

    def final_validation_ok(self) -> bool:
        """Backstop before emission: with every assumed group now resolved,
        was every assumption honoured by the actual processing?

        * no used event may sit in a completed suppressed group,
        * no used event may sit in the global ledger (assumptions whose
          owner window was already emitted are stripped from the tuples
          at root advancement; their consumption lives in the ledger), and
        * every assumed-abandoned group must really be abandoned,
        * every assumed-completed group must really be completed.
        """
        if self.ledger is not None and \
                self.ledger.overlaps_seqs(self.used_seqs):
            return False
        for group in self.assumes_completed:
            if group.state is not GroupState.COMPLETED:
                return False
            if group.overlaps_seqs(self.used_seqs):
                return False
        for group in self.assumes_abandoned:
            if group.state is not GroupState.ABANDONED:
                return False
        return True

    def __repr__(self) -> str:
        state = "dead" if not self.alive else (
            "finished" if self.finished else f"pos={self.position}")
        return (f"WV(v{self.version_id}, w{self.window.window_id}, {state}, "
                f"+{[g.group_id for g in self.assumes_completed]}, "
                f"-{[g.group_id for g in self.assumes_abandoned]})")
