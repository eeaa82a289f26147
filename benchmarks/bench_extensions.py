"""Benchmarks for the beyond-the-paper extensions (README §Beyond).

* approximate early emission (Sec. 5 future work): early-emission volume
  and precision across thresholds;
* completion-probability-driven elasticity (Sec. 4.2.1 discussion):
  adapted k and throughput vs. static configurations.
"""

from __future__ import annotations

import pytest

from benchmarks.figure_output import format_series, write_figure
from repro.queries import make_q1, make_q2
from repro.sequential import SequentialEngine
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.elasticity import ElasticityPolicy


@pytest.mark.benchmark(group="extensions")
def test_extension_approximate_emission(benchmark, price_walk_events):
    query = make_q2(lower=44.0, upper=56.0, window_size=800, slide=100)

    def sweep():
        rows = {}
        for threshold in (0.99, 0.7, 0.5):
            result = SpectreEngine(query, SpectreConfig(
                k=8, emission_threshold=threshold)).run(price_walk_events)
            rows[threshold] = (len(result.early), result.precision,
                               result.recall)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [format_series(
        f"threshold {threshold}",
        [("early", early), ("precision", f"{precision:.0%}"),
         ("recall", f"{recall:.0%}")])
        for threshold, (early, precision, recall) in rows.items()]
    write_figure("extension_approximate",
                 "Extension: approximate early emission (Q2, k=8)", lines)
    for _threshold, (_early, precision, recall) in rows.items():
        # recall < 1 only for events whose final emission lands in the
        # same splitter cycle as their confidence crossing (no early win)
        assert recall >= 0.9
        assert precision >= 0.75
    # lower thresholds emit at least as much, never more precisely
    assert rows[0.5][0] >= rows[0.99][0]


@pytest.mark.benchmark(group="extensions")
def test_extension_elasticity(benchmark, nyse_events, nyse_leaders):
    query = make_q1(q=176, window_size=800, leading_symbols=nyse_leaders)
    truth = SequentialEngine(query).run(nyse_events).completion_probability

    def sweep():
        # wide mid band: the *observed* completion probability fluctuates
        # around the ground truth while windows resolve
        policy = ElasticityPolicy(max_k=32, plateau_k=8, period=100,
                                  min_resolved=10, mid_band=(0.15, 0.85))
        elastic = SpectreEngine(query, SpectreConfig(
            k=policy.plateau_k, elasticity=policy))
        elastic_result = elastic.run(nyse_events)
        static_full = SpectreEngine(query, SpectreConfig(k=32)) \
            .run(nyse_events)
        static_plateau = SpectreEngine(query, SpectreConfig(k=8)) \
            .run(nyse_events)
        return (elastic.k, elastic_result.throughput,
                static_full.throughput, static_plateau.throughput)

    final_k, elastic_t, full_t, plateau_t = benchmark.pedantic(
        sweep, rounds=1, iterations=1)
    write_figure("extension_elasticity",
                 "Extension: completion-probability elasticity (Q1)",
                 [f"ground-truth p: {truth:.2f}",
                  f"controller's final k: {final_k}",
                  format_series("throughput",
                                [("elastic", f"{elastic_t:.4f}"),
                                 ("static k=32", f"{full_t:.4f}"),
                                 ("static k=8", f"{plateau_t:.4f}")])])
    # in the mid-probability band the controller must not burn the full
    # budget for plateau throughput
    if 0.25 <= truth <= 0.75:
        assert final_k == 8
        assert elastic_t >= plateau_t * 0.6
