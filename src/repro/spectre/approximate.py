"""Approximate early emission (the paper's Sec. 5 future-work extension).

    "Our model would generally allow to be extended toward supporting
    probabilistic approximations, as a survival probability is given on
    the window versions. However, in this paper, we focus on consistent
    event detection [...] and leave approximate applications of our model
    to the future work."

This module holds that extension's pieces: with
``SpectreConfig(emission_threshold=...)`` the engine releases the
complex events buffered inside a *speculative* window version early,
once the version's survival probability reaches the threshold.  Early
emissions are tagged with the probability at release time; the
consistent (final) output stream is unchanged, so consumers can choose
latency or certainty per subscription.

Quality accounting (``SpectreResult.precision``/``recall``) follows
the natural definitions:

* precision — early emissions later confirmed by the final output;
* recall   — final complex events that had been emitted early.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.complex_event import ComplexEvent
from repro.spectre.topk import GroupProbability, completion_probability
from repro.spectre.version import WindowVersion


@dataclass(frozen=True)
class EarlyEmission:
    """A speculatively released complex event."""

    complex_event: ComplexEvent
    survival_probability: float
    cycle: int


def survival_probability(version: WindowVersion,
                         group_probability: GroupProbability) -> float:
    """Probability that every assumption of ``version`` holds: the
    product over its root path, priced as
    :func:`~repro.spectre.topk.find_top_k` prices it."""
    probability = 1.0
    for group in version.assumes_completed:
        probability *= completion_probability(group, group_probability)
    for group in version.assumes_abandoned:
        probability *= 1.0 - completion_probability(group, group_probability)
    return probability
