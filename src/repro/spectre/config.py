"""SPECTRE runtime configuration.

Defaults follow the paper's evaluation settings where it states them
(Sec. 4.2: "the Markov model is employed with the parameters α = 0.7 and
ℓ = 10"; consumption groups limited to one per window version).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spectre.elasticity import ElasticityPolicy
from repro.utils.validation import require


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs for the simulated k-core runtime.

    Units are abstract "seconds".  ``process`` is the cost of feeding one
    event through the detector; ``suppressed`` the cost of recognising and
    skipping a suppressed event; ``check`` the per-group cost of one
    consistency check.  Benchmarks calibrate ``process`` so that a
    1-instance run lands near the paper's ~10k events/s baseline.
    """

    process: float = 1.0
    suppressed: float = 0.15
    check: float = 0.02

    def __post_init__(self) -> None:
        require(self.process > 0, "process cost must be positive")
        require(self.suppressed >= 0, "suppressed cost must be >= 0")
        require(self.check >= 0, "check cost must be >= 0")


@dataclass(frozen=True)
class MarkovParams:
    """Parameters of the completion-probability Markov model (Sec. 3.2.1).

    ``alpha``: exponential-smoothing weight of fresh statistics.
    ``ell``: precomputed power step size (T_ℓ, T_2ℓ, ...).
    ``rho``: number of new transition measurements per model update.
    ``state_cap``: maximum number of δ states; larger δ ranges are
    bucketed linearly onto ``state_cap`` states (implementation parameter,
    keeps matrix powers cheap for patterns with thousands of stages).
    """

    alpha: float = 0.7
    ell: int = 10
    rho: int = 200
    state_cap: int = 40

    def __post_init__(self) -> None:
        require(0.0 <= self.alpha <= 1.0, "alpha must be in [0, 1]")
        require(self.ell >= 1, "ell must be >= 1")
        require(self.rho >= 1, "rho must be >= 1")
        require(self.state_cap >= 2, "state_cap must be >= 2")


@dataclass(frozen=True)
class SpectreConfig:
    """Full configuration of a SPECTRE run.

    Parameters
    ----------
    k:
        Number of operator instances (the splitter gets its own core;
        Sec. 2.2 assumes k+1 threads).
    steps_per_cycle:
        Virtual-time instance steps between two splitter cycles
        (tree maintenance + top-k scheduling).
    consistency_check_freq:
        Run the Fig. 8 consistency check every this many processed events.
    probability_model:
        ``"markov"`` (the paper's model), or ``"fixed"`` with
        ``fixed_probability`` (the Fig. 11 comparison models).
    scheduler:
        Scheduling strategy name, resolved against the
        :data:`repro.runtime.scheduler.SCHEDULERS` registry: ``"topk"``
        (the paper's survival-probability-driven selection, Fig. 6),
        ``"fifo"`` (ablation: schedule the oldest unfinished versions
        regardless of probability) or ``"roundrobin"`` (fair rotation
        across dependency trees).
    admission_factor:
        The splitter admits new windows into the dependency tree while
        fewer than ``admission_factor * k`` schedulable (unfinished)
        window versions exist — speculation depth scales with k.
    max_versions:
        Hard cap on simultaneously maintained window versions (memory
        guard; the paper observed natural peaks of ~6.7k at k=32).
    elasticity:
        An :class:`~repro.spectre.elasticity.ElasticityPolicy`, or
        ``None`` (static k).  When set, the instance pool starts at
        ``k`` (at most the policy's ``max_k``) and is re-sized from the
        observed completion probability every ``policy.period`` cycles
        (Sec. 4.2.1); the decisions land in ``engine.adaptations``.
    emission_threshold:
        Survival probability in (0, 1] at which a speculative version's
        buffered complex events are released early (the Sec. 5
        extension), or ``None`` (consistent output only).  Releases land
        in ``engine.early`` and ``SpectreResult.early``; the final
        output is unchanged.

    Both policy fields drive the virtual-time engine only; the threaded
    runtime refuses a config that sets either.
    """

    k: int = 1
    steps_per_cycle: int = 8
    consistency_check_freq: int = 10
    probability_model: str = "markov"
    fixed_probability: float = 0.5
    scheduler: str = "topk"
    markov: MarkovParams = field(default_factory=MarkovParams)
    admission_factor: float = 2.0
    max_versions: int = 20_000
    costs: CostModel = field(default_factory=CostModel)
    collect_transition_stats: bool = True
    elasticity: ElasticityPolicy | None = None
    emission_threshold: float | None = None

    def __post_init__(self) -> None:
        require(self.k >= 1, "k must be >= 1")
        require(self.steps_per_cycle >= 1, "steps_per_cycle must be >= 1")
        require(self.consistency_check_freq >= 1,
                "consistency_check_freq must be >= 1")
        require(self.probability_model in ("markov", "fixed"),
                "probability_model must be 'markov' or 'fixed'")
        from repro.runtime.scheduler import SCHEDULER_NAMES
        require(self.scheduler in SCHEDULER_NAMES,
                f"scheduler must be one of {SCHEDULER_NAMES}")
        require(0.0 <= self.fixed_probability <= 1.0,
                "fixed_probability must be in [0, 1]")
        require(self.admission_factor > 0, "admission_factor must be > 0")
        require(self.max_versions >= 4, "max_versions must be >= 4")
        if self.elasticity is not None:
            require(isinstance(self.elasticity, ElasticityPolicy),
                    "elasticity must be an ElasticityPolicy")
            require(self.k <= self.elasticity.max_k,
                    "k must be <= elasticity.max_k")
        require(self.emission_threshold is None
                or 0.0 < self.emission_threshold <= 1.0,
                "emission_threshold must be in (0, 1]")

    def admission_target(self, k: int) -> int:
        """Schedulable-version pool size the splitter aims for at
        parallelization degree ``k`` (the live pool size, which
        elasticity moves away from ``self.k``)."""
        return max(2, int(round(self.admission_factor * k)) + 1)
