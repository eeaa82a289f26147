#!/usr/bin/env python
"""Trade certainty for latency with approximate early emission.

The paper (Sec. 5) notes its survival probabilities "would generally
allow [SPECTRE] to be extended toward supporting probabilistic
approximations" and leaves that to future work — this example runs that
extension on Q2 (whose consumption groups stay open for most of a window,
so downstream matches genuinely complete while their fate is uncertain):
complex events leave speculative window versions as soon as the version's
survival probability passes a threshold — the engine's
``SpectreConfig(emission_threshold=...)`` field.

Two effects reduce precision below 100 %:

* the version's outcome assumptions can turn out wrong (the speculation
  itself), and
* a version can hold stale results that a later consistency check rolls
  back — early emissions from it are withdrawn in the final stream.

The consistent (final) output is identical in every run.

Run:  python examples/approximate_emission.py
"""

from repro import SpectreConfig, SpectreEngine
from repro.datasets import generate_price_walk
from repro.queries import make_q2


def main() -> None:
    events = generate_price_walk(5000, step_scale=4.0, reversion=0.1,
                                 seed=23)
    query = make_q2(lower=44.0, upper=56.0, window_size=800, slide=100)

    print(f"{'threshold':>9} {'early':>6} {'precision':>9} {'recall':>7} "
          f"{'final':>6}")
    for threshold in (0.99, 0.9, 0.7, 0.5, 0.3):
        result = SpectreEngine(query, SpectreConfig(
            k=8, emission_threshold=threshold)).run(events)
        print(f"{threshold:>9} {len(result.early):>6} "
              f"{result.precision:>9.0%} {result.recall:>7.0%} "
              f"{len(result.complex_events):>6}")

    print("\nlower thresholds release more events early at lower "
          "precision; recall is always\ncomplete because every final "
          "event passes through a certain version eventually")


if __name__ == "__main__":
    main()
