"""Query Q3 (Fig. 9): unordered symbol set.

``PATTERN (A SET(X1 ... Xn)) WITHIN ws events FROM every s events
CONSUME (A SET(X1 ... Xn))``

After an occurrence of symbol A, the window must contain each of n
specific symbols in any order ("the ordering of those n symbols is not
important").  δ counts the symbols still missing, so every *distinct* new
set member moves the detection to a higher completion stage — the query
driving the Markov-model evaluation (Fig. 11).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.events.event import Event
from repro.matching.base import (
    EMPTY_FEEDBACK, Completion, Detector, Feedback)
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.patterns.query import Query
from repro.queries.udf import UDFMatch
from repro.windows.specs import WindowSpec


class Q3Detector(Detector):
    """UDF detector: anchor symbol followed by an unordered symbol set."""

    def __init__(self, anchor_symbol: str, set_symbols: frozenset[str],
                 consume: bool) -> None:
        self._anchor_symbol = anchor_symbol
        self._set_symbols = set_symbols
        self._consume = consume
        self._match: Optional[UDFMatch] = None
        self._missing: set[str] = set()
        self._done = False
        self._closed = False

    @property
    def delta_max(self) -> int:
        return len(self._set_symbols) + 1

    @property
    def done(self) -> bool:
        return self._done or self._closed

    def process(self, event: Event) -> Feedback:
        if self.done:
            return EMPTY_FEEDBACK
        symbol = event.attributes.get("symbol")

        if self._match is None:
            if symbol != self._anchor_symbol:
                return EMPTY_FEEDBACK
            match = UDFMatch(match_id=0, delta=len(self._set_symbols))
            match.bind(event, consumed=self._consume)
            self._match = match
            self._missing = set(self._set_symbols)
            feedback = Feedback(created=[match])
            if self._consume:
                feedback.added.append((match, event))
            return feedback

        if symbol not in self._missing:
            return EMPTY_FEEDBACK
        feedback = Feedback()
        self._missing.discard(symbol)
        match = self._match
        match.bind(event, consumed=self._consume,
                   delta_after=len(self._missing))
        if self._consume:
            feedback.added.append((match, event))
        if not self._missing:
            consumed = match.consumable if self._consume else ()
            feedback.completed.append(Completion(
                match=match,
                constituents=match.constituents,
                consumed=tuple(consumed),
                attributes={"set_size": len(self._set_symbols)},
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


def make_q3(anchor_symbol: str, set_symbols: Iterable[str],
            window_size: int, slide: int, consume: bool = True) -> Query:
    """Build Q3: ``anchor_symbol`` followed by the ``set_symbols`` set."""
    members = frozenset(set_symbols)
    if anchor_symbol in members:
        raise ValueError("anchor symbol must not be in the SET")
    if not members:
        raise ValueError("the SET needs at least one symbol")
    consumption = ConsumptionPolicy.all() if consume else \
        ConsumptionPolicy.none()

    def factory(start_event: Event) -> Detector:
        return Q3Detector(anchor_symbol=anchor_symbol, set_symbols=members,
                          consume=consume)

    return Query(
        name=f"Q3(n={len(members)},ws={window_size},s={slide})",
        window=WindowSpec.count_sliding(window_size, slide),
        detector_factory=factory,
        delta_max=len(members) + 1,
        selection=SelectionPolicy.FIRST,
        consumption=consumption,
        description="anchor symbol followed by an unordered symbol set",
    )
