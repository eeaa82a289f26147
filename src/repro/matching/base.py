"""Detector protocol: the interface between pattern logic and engines.

The paper implements pattern detection as a user-defined function (UDF)
inside SPECTRE (Sec. 4.1) that reports *feedback* to the runtime (Fig. 8):
each processed event may

1. complete partial matches (→ complex events, consumption groups
   *completed*),
2. abandon partial matches (→ consumption groups *abandoned*),
3. create new partial matches (→ consumption groups *created*),
4. be added to existing partial matches (→ consumption-group event sets
   updated).

Every engine in this repository (sequential baseline, T-REX baseline,
SPECTRE simulated and threaded) drives detectors through this one
protocol, which is what makes the output-equivalence tests meaningful.

A detector instance is *per window (version)*: engines create a fresh
detector via the query's factory for every window version they process,
feed it the window's non-suppressed events in order, and call
:meth:`Detector.close` when the window ends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.events.event import Event


class PartialMatch(abc.ABC):
    """A live partial match inside a detector.

    Engines wrap these in consumption groups; they read ``delta`` (the
    inverse degree of completion, Sec. 3.2.1) when predicting completion
    probabilities and ``consumable`` to know which events the match would
    consume.
    """

    match_id: int

    @property
    @abc.abstractmethod
    def delta(self) -> int:
        """Minimum number of further events required to complete."""

    @property
    @abc.abstractmethod
    def consumable(self) -> Sequence[Event]:
        """Events bound so far that the consumption policy would consume."""


@dataclass(frozen=True)
class Completion:
    """A completed pattern instance."""

    match: PartialMatch
    constituents: tuple[Event, ...]
    consumed: tuple[Event, ...]
    attributes: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class Feedback:
    """What one ``process``/``close`` call did (Fig. 8 cases 1–4)."""

    created: list[PartialMatch] = field(default_factory=list)
    added: list[tuple[PartialMatch, Event]] = field(default_factory=list)
    completed: list[Completion] = field(default_factory=list)
    abandoned: list[PartialMatch] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.created or self.added or self.completed
                    or self.abandoned)


# The one shared "nothing happened" feedback.  Skip-till-next-match
# means most process() calls change nothing; every shipped detector
# returns this instead of allocating, and engines skip it by identity.
# Its fields are tuples, so an accidental ``.append`` raises rather than
# leaking into every later step.
EMPTY_FEEDBACK = Feedback((), (), (), ())


class Detector(abc.ABC):
    """Incremental pattern detector for one window (version).

    Contract
    --------
    * Events are fed in window order; *suppressed* events are simply never
      fed (the engine skips them — Fig. 8 line 13).
    * When a completion consumes events, the detector itself abandons any
      other partial match containing a consumed event (an event may be
      part of at most one pattern instance) and reports those abandons in
      the same feedback.
    * After ``close()`` the detector must not be used again.
    """

    @abc.abstractmethod
    def process(self, event: Event) -> Feedback:
        """Process the next (non-suppressed) event of the window."""

    @abc.abstractmethod
    def close(self) -> Feedback:
        """End of window: abandon all still-open partial matches."""

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """True once no further match can occur (e.g. the query's match
        budget is exhausted) — engines may stop feeding events early."""

    @property
    def delta_max(self) -> int:
        """Largest possible δ of this detector's matches (Markov state
        space size hint).  Defaults to 1; concrete detectors override."""
        return 1
