"""The running example QE (Sec. 2.1, Figs. 1a/1b).

Tesla query::

    define Influence(Factor)
    from   B() and A() within 1min from B     -- paper writes "from B";
    where  Factor = B:change / A:change       -- the window anchor is A

A window opens on each ``A`` event (scope: 1 minute).  The selection
policy is "first A, each B": the window's A is correlated with *every* B
inside the window.  Under consumption policy "selected B" (Fig. 1b) each
correlated B is consumed; under "none" (Fig. 1a) nothing is.

On the example stream A1 A2 B1 B2 B3 this yields the paper's outputs:
five complex events without consumption, three with "selected B".
"""

from __future__ import annotations


from repro.events.event import Event
from repro.matching.base import (
    EMPTY_FEEDBACK, Completion, Detector, Feedback)
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.patterns.query import Query
from repro.queries.udf import UDFMatch
from repro.windows.specs import WindowSpec


class QEDetector(Detector):
    """Anchor A correlated with each B in the window."""

    def __init__(self, anchor: Event,
                 consumption: ConsumptionPolicy) -> None:
        self._anchor = anchor
        self._policy = consumption
        self._anchor_seen = False
        self._anchor_alive = False
        self._next_id = 0
        self._closed = False

    @property
    def delta_max(self) -> int:
        return 1

    @property
    def done(self) -> bool:
        if self._closed:
            return True
        # once the anchor was processed but could not start correlations
        # (wrong type or consumed), nothing can ever match
        return self._anchor_seen and not self._anchor_alive

    def process(self, event: Event) -> Feedback:
        if self._closed:
            return EMPTY_FEEDBACK
        if not self._anchor_seen:
            if event.seq == self._anchor.seq:
                self._anchor_seen = True
                self._anchor_alive = event.etype == "A"
            return EMPTY_FEEDBACK
        if not self._anchor_alive or event.etype != "B":
            return EMPTY_FEEDBACK

        # every B instantly completes a (window-A, B) correlation
        match = UDFMatch(match_id=self._next_id, delta=0)
        self._next_id += 1
        match.bind(self._anchor, consumed=self._policy.consumes("A"))
        match.bind(event, consumed=self._policy.consumes("B"))
        feedback = Feedback(created=[match])
        a_change = self._anchor.attributes.get("change")
        b_change = event.attributes.get("change")
        factor = None
        if a_change not in (None, 0) and b_change is not None:
            factor = b_change / a_change
        feedback.completed.append(Completion(
            match=match,
            constituents=(self._anchor, event),
            consumed=tuple(match.consumable),
            attributes={"Factor": factor},
        ))
        return feedback

    def close(self) -> Feedback:
        self._closed = True
        return EMPTY_FEEDBACK


def make_qe(consumption: ConsumptionPolicy | str = "selected-b",
            window_seconds: float = 60.0) -> Query:
    """Build QE; ``consumption`` is ``"none"``, ``"selected-b"``, ``"all"``
    or any explicit :class:`ConsumptionPolicy`."""
    if isinstance(consumption, str):
        presets = {
            "none": ConsumptionPolicy.none(),
            "selected-b": ConsumptionPolicy.selected("B"),
            "all": ConsumptionPolicy.all(),
        }
        try:
            consumption = presets[consumption]
        except KeyError:
            raise ValueError(f"unknown QE consumption preset "
                             f"{consumption!r}; expected {sorted(presets)}"
                             ) from None

    def factory(start_event: Event) -> Detector:
        return QEDetector(anchor=start_event, consumption=consumption)

    return Query(
        name=f"QE(cp={consumption.describe()})",
        window=WindowSpec.time_on(window_seconds,
                                  lambda event: event.etype == "A"),
        detector_factory=factory,
        delta_max=1,
        selection=SelectionPolicy.EACH,
        consumption=consumption,
        description="Influence(Factor): each B within 1 min of an A",
    )
