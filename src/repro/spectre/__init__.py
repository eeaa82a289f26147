"""SPECTRE: speculative processing of dependent windows (Sec. 3)."""

from repro.spectre.approximate import EarlyEmission
from repro.spectre.config import CostModel, MarkovParams, SpectreConfig
from repro.spectre.elasticity import ElasticityPolicy
from repro.spectre.engine import (
    RunStats,
    SpectreEngine,
    SpectreResult,
)
from repro.spectre.threaded import ThreadedSpectreEngine
from repro.spectre.prediction import (
    CompletionPredictor,
    FixedPredictor,
    MarkovPredictor,
)
from repro.spectre.topk import find_top_k
from repro.spectre.tree import DependencyTree, GroupVertex, VersionVertex
from repro.spectre.version import WindowVersion

__all__ = [
    "SpectreConfig",
    "CostModel",
    "MarkovParams",
    "SpectreEngine",
    "SpectreResult",
    "RunStats",
    "ThreadedSpectreEngine",
    "EarlyEmission",
    "ElasticityPolicy",
    "MarkovPredictor",
    "FixedPredictor",
    "CompletionPredictor",
    "DependencyTree",
    "VersionVertex",
    "GroupVertex",
    "WindowVersion",
    "find_top_k",
]
