"""Sequential (ground-truth) engine."""

from repro.sequential.engine import (
    SequentialEngine,
    SequentialResult,
    ground_truth_completion_probability,
)

__all__ = [
    "SequentialEngine",
    "SequentialResult",
    "ground_truth_completion_probability",
]
