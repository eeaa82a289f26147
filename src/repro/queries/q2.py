"""Query Q2 (Fig. 9): price-band oscillation (Balkesen & Tatbul, Query 9).

``PATTERN (A B+ C D+ E F+ G H+ I J+ K L+ M)`` — the close price crosses
below the lower limit (A), passes through the band (B+), exceeds the upper
limit (C), and oscillates like that three full times, ending below (M).
Extended by the paper with ``WITHIN ws events FROM every s events`` and
``CONSUME (<all>)``.

The average pattern length is controlled by the band ``(lower, upper)``:
a wide band makes between-events (the Kleene stages) dwell longer,
lowering the chance a window can host the full oscillation — that is how
the evaluation sweeps the completion probability without a direct pattern
size knob.  "A matching event might or might not influence the pattern
completion: the Kleene+ implies that many events can match while the
pattern completion does not progress."
"""

from __future__ import annotations

from typing import Optional

from repro.events.event import Event
from repro.matching.base import (
    EMPTY_FEEDBACK, Completion, Detector, Feedback)
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.patterns.query import Query
from repro.queries.udf import UDFMatch
from repro.windows.specs import WindowSpec

# stage classes: even stages are mandatory extremes, odd stages are
# Kleene "between" stages.  0=below, 1=between, 2=above.
_EXTREMES = (0, 2, 0, 2, 0, 2, 0)  # A C E G I K M
_N_STAGES = 13


class Q2Detector(Detector):
    """UDF state machine for one Q2 window."""

    def __init__(self, lower: float, upper: float, consume: bool) -> None:
        self._lower = lower
        self._upper = upper
        self._consume = consume
        self._match: Optional[UDFMatch] = None
        self._stage = 0          # 0..12; even=extreme, odd=Kleene between
        self._kleene_count = 0   # events bound in the current Kleene stage
        self._done = False
        self._closed = False

    @property
    def delta_max(self) -> int:
        return _N_STAGES

    @property
    def done(self) -> bool:
        return self._done or self._closed

    def _classify(self, event: Event) -> Optional[int]:
        close = event.attributes["closePrice"]
        if close < self._lower:
            return 0
        if close > self._upper:
            return 2
        if self._lower < close < self._upper:
            return 1
        return None  # exactly on a limit matches no stage

    def _delta_at(self, stage: int, kleene_count: int) -> int:
        """Mandatory events still required from (stage, kleene progress)."""
        remaining = _N_STAGES - stage
        if stage % 2 == 1 and kleene_count > 0:
            remaining -= 1  # current Kleene already satisfied
        return remaining

    def process(self, event: Event) -> Feedback:
        if self.done:
            return EMPTY_FEEDBACK
        cls = self._classify(event)
        if cls is None:
            return EMPTY_FEEDBACK

        if self._match is None:
            if cls != 0:  # a pattern opens below the lower limit (A)
                return EMPTY_FEEDBACK
            match = UDFMatch(match_id=0, delta=self._delta_at(1, 0))
            match.bind(event, consumed=self._consume)
            self._match = match
            self._stage = 1
            self._kleene_count = 0
            feedback = Feedback(created=[match])
            if self._consume:
                feedback.added.append((match, event))
            return feedback

        if self._stage % 2 == 1:  # in a Kleene "between" stage
            next_extreme = _EXTREMES[(self._stage + 1) // 2]
            if self._kleene_count > 0 and cls == next_extreme:
                self._stage += 1  # progress beats absorption
                extreme = True
            elif cls == 1:
                self._kleene_count += 1
                extreme = False
            else:
                return EMPTY_FEEDBACK
        elif cls == _EXTREMES[self._stage // 2]:
            extreme = True  # a mandatory extreme (only reachable transiently)
        else:
            return EMPTY_FEEDBACK
        feedback = Feedback()
        self._bind(self._match, event, feedback)
        if extreme:
            self._after_extreme(self._match, feedback)
        return feedback

    def _bind(self, match: UDFMatch, event: Event,
              feedback: Feedback) -> None:
        match.bind(event, consumed=self._consume,
                   delta_after=self._delta_at(self._stage,
                                              self._kleene_count))
        if self._consume:
            feedback.added.append((match, event))

    def _after_extreme(self, match: UDFMatch, feedback: Feedback) -> None:
        if self._stage >= _N_STAGES - 1:
            consumed = match.consumable if self._consume else ()
            match.delta = 0
            feedback.completed.append(Completion(
                match=match,
                constituents=match.constituents,
                consumed=tuple(consumed),
                attributes={"oscillations": 3},
            ))
            self._match = None
            self._done = True
        else:
            self._stage += 1  # enter the next Kleene stage
            self._kleene_count = 0
            match.delta = self._delta_at(self._stage, 0)

    def close(self) -> Feedback:
        feedback = EMPTY_FEEDBACK
        if not self._closed:
            if self._match is not None:
                feedback = Feedback(abandoned=[self._match])
                self._match = None
            self._closed = True
        return feedback


def make_q2(lower: float, upper: float, window_size: int, slide: int,
            consume: bool = True) -> Query:
    """Build Q2 with price band ``(lower, upper)``."""
    consumption = ConsumptionPolicy.all() if consume else \
        ConsumptionPolicy.none()

    def factory(start_event: Event) -> Detector:
        return Q2Detector(lower=lower, upper=upper, consume=consume)

    return Query(
        name=f"Q2({lower},{upper},ws={window_size},s={slide})",
        window=WindowSpec.count_sliding(window_size, slide),
        detector_factory=factory,
        delta_max=_N_STAGES,
        selection=SelectionPolicy.FIRST,
        consumption=consumption,
        description=("three full price oscillations across a band; "
                     "CONSUME all"),
    )
