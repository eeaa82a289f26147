"""Completion-probability-driven elasticity (Sec. 4.2.1 discussion).

    "In SPECTRE, the parallelization-to-throughput ratio largely depends
    on the completion probability of partial matches. [...] Existing
    elasticity mechanisms do not take into account the completion
    probability to determine the optimal resource provisioning. Using the
    described throughput curves, SPECTRE could adapt the number of
    operator instances based on the current pattern completion
    probability."

This module holds that adaptation's policy.  With
``SpectreConfig(elasticity=ElasticityPolicy(...))`` the engine observes
the running completion probability (resolved groups so far) and
periodically re-sizes its instance pool, starting from ``config.k``.
Near the probability extremes (≈0 or ≈1) speculation is almost always
right and extra instances pay off, so the controller grants the full
budget; in the mid-probability band the throughput curves plateau
around k≈8, so capping k there frees cores without losing throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require


@dataclass(frozen=True)
class ElasticityPolicy:
    """Maps the observed completion probability to an instance count.

    ``mid_band`` is the (low, high) probability interval considered
    "plateau territory"; inside it k is capped at ``plateau_k``, outside
    it the full ``max_k`` is used.  ``period`` is the adaptation interval
    in splitter cycles; ``min_resolved`` groups must have resolved before
    the first adaptation (otherwise the estimate is noise).
    """

    max_k: int = 32
    plateau_k: int = 8
    mid_band: tuple[float, float] = (0.25, 0.75)
    period: int = 200
    min_resolved: int = 20

    def __post_init__(self) -> None:
        require(1 <= self.plateau_k <= self.max_k,
                "need 1 <= plateau_k <= max_k")
        low, high = self.mid_band
        require(0.0 <= low < high <= 1.0, "mid_band must be ordered in [0,1]")
        require(self.period >= 1, "period must be >= 1")

    def recommend(self, completion_probability: float) -> int:
        low, high = self.mid_band
        if low <= completion_probability <= high:
            return self.plateau_k
        return self.max_k


@dataclass
class AdaptationRecord:
    """One controller decision."""

    cycle: int
    completion_probability: float
    k: int
