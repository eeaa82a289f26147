"""Approximate early emission (the paper's Sec. 5 future-work extension).

    "Our model would generally allow to be extended toward supporting
    probabilistic approximations, as a survival probability is given on
    the window versions. However, in this paper, we focus on consistent
    event detection [...] and leave approximate applications of our model
    to the future work."

This module implements that extension: complex events buffered inside a
*speculative* window version are released early once the version's
survival probability reaches a threshold.  Early emissions are tagged with
the probability at release time; the consistent (final) output stream is
unchanged, so consumers can choose latency or certainty per subscription.

Quality accounting follows the natural definitions:

* precision — early emissions later confirmed by the final output;
* recall   — final complex events that had been emitted early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.patterns.query import Query
from repro.spectre.config import SpectreConfig
from repro.spectre.engine import SpectreEngine, SpectreResult
from repro.spectre.prediction import CompletionPredictor
from repro.utils.validation import require


@dataclass(frozen=True)
class EarlyEmission:
    """A speculatively released complex event."""

    complex_event: ComplexEvent
    survival_probability: float
    cycle: int


@dataclass
class ApproximateResult:
    """Final (consistent) result plus the early speculative stream."""

    final: SpectreResult
    early: list[EarlyEmission]

    def _early_identities(self) -> set[tuple]:
        return {emission.complex_event.identity()
                for emission in self.early}

    @property
    def precision(self) -> float:
        """Share of early emissions confirmed by the final output."""
        early = self._early_identities()
        if not early:
            return 1.0
        final = set(self.final.identities())
        return len(early & final) / len(early)

    @property
    def recall(self) -> float:
        """Share of final complex events that were available early."""
        final = set(self.final.identities())
        if not final:
            return 1.0
        return len(self._early_identities() & final) / len(final)


class ApproximateSpectreEngine(SpectreEngine):
    """SPECTRE with probabilistic early emission.

    ``emission_threshold`` is the minimum survival probability at which a
    version's buffered complex events are released speculatively.  Each
    pattern instance is released at most once.
    """

    def __init__(self, query: Query, config: SpectreConfig | None = None,
                 emission_threshold: float = 0.9,
                 predictor: CompletionPredictor | None = None,
                 scheduler=None) -> None:
        super().__init__(query, config, predictor, scheduler)
        require(0.0 < emission_threshold <= 1.0,
                "emission_threshold must be in (0, 1]")
        self.emission_threshold = emission_threshold
        self.early: list[EarlyEmission] = []
        self._released: set[tuple] = set()

    def _survival_probability(self, version) -> float:
        probability = 1.0
        for group in version.assumes_completed:
            probability *= self._group_probability_resolved(group, True)
        for group in version.assumes_abandoned:
            probability *= self._group_probability_resolved(group, False)
        return probability

    def _group_probability_resolved(self, group, assume_completed: bool
                                    ) -> float:
        from repro.consumption.group import GroupState
        if group.state is GroupState.COMPLETED:
            return 1.0 if assume_completed else 0.0
        if group.state is GroupState.ABANDONED:
            return 0.0 if assume_completed else 1.0
        completion = self._group_probability(group)
        return completion if assume_completed else 1.0 - completion

    def splitter_cycle(self) -> None:
        super().splitter_cycle()
        self._release_confident_versions()

    def _release_confident_versions(self) -> None:
        for version in self.forest.iter_versions():
            if not version.alive or not version.buffered:
                continue
            probability = self._survival_probability(version)
            if probability < self.emission_threshold:
                continue
            for complex_event in version.buffered:
                identity = complex_event.identity()
                if identity in self._released:
                    continue
                self._released.add(identity)
                self.early.append(EarlyEmission(
                    complex_event=complex_event,
                    survival_probability=probability,
                    cycle=self.stats.cycles,
                ))

    def run_approximate(self, events: Iterable[Event]
                        ) -> ApproximateResult:
        """Run to completion; return final + early output."""
        final = self.run(events)
        return ApproximateResult(final=final, early=self.early)
