#!/usr/bin/env python
"""Adapt the parallelization degree to the completion probability.

Sec. 4.2.1: "the parallelization-to-throughput ratio largely depends on
the completion probability of partial matches [...] SPECTRE could adapt
the number of operator instances based on the current pattern completion
probability."  This example runs that controller on two workloads: one
where nearly every partial match completes (speculation nearly always
right → full budget pays off) and one in the mid-probability band (the
throughput curve plateaus → the controller caps k).  The controller is
a ``SpectreConfig`` field of the one speculative engine: the pool starts
at ``config.k`` and ``engine.adaptations`` records each decision.

Run:  python examples/elastic_scaling.py
"""

from repro import ElasticityPolicy, SpectreConfig, SpectreEngine, make_q1
from repro.datasets import generate_nyse, leading_symbols
from repro.sequential import SequentialEngine


def run_case(label: str, q: int, events) -> None:
    query = make_q1(q=q, window_size=400,
                    leading_symbols=leading_symbols(2))
    truth = SequentialEngine(query).run(events).completion_probability
    policy = ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                              min_resolved=5)
    engine = SpectreEngine(query, SpectreConfig(k=policy.plateau_k,
                                                elasticity=policy))
    result = engine.run(events)
    adaptations = ", ".join(
        f"cycle {record.cycle}: k->{record.k} (p={record.completion_probability:.2f})"
        for record in engine.adaptations) or "none"
    print(f"{label}: ground-truth p={truth:.2f} -> final k={engine.k}")
    print(f"  adaptations: {adaptations}")


def main() -> None:
    events = generate_nyse(4000, n_symbols=80, n_leading=2, seed=3,
                           unchanged_probability=0.4)
    run_case("high-probability workload (q=8)", 8, events)
    run_case("mid-probability workload (q=110)", 110, events)
    print("\nthe controller grants the full budget only where the "
          "throughput curves say it pays")


if __name__ == "__main__":
    main()
