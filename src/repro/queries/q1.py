"""Query Q1 (Fig. 9): leading-symbol momentum.

``PATTERN (MLE RE1 RE2 ... REq) ... WITHIN ws events FROM MLE
CONSUME (MLE RE1 ... REq)``

A window opens on every rising or falling quote of a *leading* symbol
(MLE).  Inside the window, the first q quotes moving in the same direction
(of any symbol) complete the pattern; all q+1 constituents are consumed.
"This query always has a fixed pattern length of q, and each matching
event moves the pattern detection to a higher completion stage."
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.events.event import Event
from repro.matching.base import (
    EMPTY_FEEDBACK, Completion, Detector, Feedback)
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.patterns.query import Query
from repro.queries.udf import UDFMatch, is_falling, is_rising
from repro.windows.specs import WindowSpec


class Q1Detector(Detector):
    """UDF detector for one Q1 window (anchored at its MLE event)."""

    def __init__(self, anchor: Event, q: int, consume: bool) -> None:
        self._anchor = anchor
        self._q = q
        self._consume = consume
        self._match: Optional[UDFMatch] = None
        self._rising: Optional[bool] = None
        self._done = False
        self._closed = False

    @property
    def delta_max(self) -> int:
        return self._q

    @property
    def done(self) -> bool:
        return self._done or self._closed

    def process(self, event: Event) -> Feedback:
        if self.done:
            return EMPTY_FEEDBACK
        if self._match is None:
            # the pattern starts with the window's own MLE event; if the
            # anchor was consumed elsewhere this window can never match
            if event.seq != self._anchor.seq:
                return EMPTY_FEEDBACK
            direction_rising = is_rising(event)
            if not direction_rising and not is_falling(event):
                return EMPTY_FEEDBACK  # unchanged quote opens no pattern
            self._rising = direction_rising
            match = UDFMatch(match_id=0, delta=self._q)
            match.bind(event, consumed=self._consume)
            self._match = match
            feedback = Feedback(created=[match])
            if self._consume:
                feedback.added.append((match, event))
            return feedback

        moves = is_rising(event) if self._rising else is_falling(event)
        if not moves:
            return EMPTY_FEEDBACK
        feedback = Feedback()
        match = self._match
        match.bind(event, consumed=self._consume, delta_after=match.delta - 1)
        if self._consume:
            feedback.added.append((match, event))
        if match.delta == 0:
            consumed = match.consumable if self._consume else ()
            feedback.completed.append(Completion(
                match=match,
                constituents=match.constituents,
                consumed=tuple(consumed),
                attributes={"direction": "rise" if self._rising else "fall"},
            ))
            self._match = None
            self._done = True
        return feedback

    def close(self) -> Feedback:
        feedback = EMPTY_FEEDBACK
        if not self._closed:
            if self._match is not None:
                feedback = Feedback(abandoned=[self._match])
                self._match = None
            self._closed = True
        return feedback


def leading_predicate(leading_symbols: Iterable[str]):
    """Window start condition: a rising or falling quote of a leader."""
    leaders = frozenset(leading_symbols)

    def predicate(event: Event) -> bool:
        if event.attributes.get("symbol") not in leaders:
            return False
        return is_rising(event) or is_falling(event)

    return predicate


def make_q1(q: int, window_size: int, leading_symbols: Iterable[str],
            consume: bool = True) -> Query:
    """Build Q1 with pattern size ``q`` and window size ``window_size``."""
    leaders = tuple(leading_symbols)
    consumption = ConsumptionPolicy.all() if consume else \
        ConsumptionPolicy.none()

    def factory(start_event: Event) -> Detector:
        return Q1Detector(anchor=start_event, q=q, consume=consume)

    return Query(
        name=f"Q1(q={q},ws={window_size})",
        window=WindowSpec.count_on(window_size, leading_predicate(leaders)),
        detector_factory=factory,
        delta_max=q,
        selection=SelectionPolicy.FIRST,
        consumption=consumption,
        description=("first q same-direction quotes within ws events of a "
                     "leading-symbol move; CONSUME all"),
    )
