"""Ablations of SPECTRE's design choices (at the scale of README.md,
"Scale substitutions").

Not figures from the paper, but benchmarks for the design decisions its
text motivates:

* consistency-check frequency (Fig. 8's ``consistencyCheckFreq``):
  staleness-detection latency vs. checking overhead;
* top-k probability-driven scheduling (Fig. 6) vs. naive FIFO
  scheduling of the oldest versions;
* speculation on/off: SPECTRE at k vs. the defer-until-resolved baseline
  (which degenerates to sequential window processing = k=1 throughput);
* Markov smoothing α and step size ℓ sensitivity.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import Q1_WINDOW
from benchmarks.figure_output import format_series, write_figure
from repro.queries import make_q1
from repro.sequential import SequentialEngine
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.config import MarkovParams

K = 8


def _query(nyse_leaders, q=64):
    return make_q1(q=q, window_size=Q1_WINDOW,
                   leading_symbols=nyse_leaders)


@pytest.mark.benchmark(group="ablations")
def test_ablation_consistency_check_frequency(benchmark, nyse_events,
                                              nyse_leaders):
    query = _query(nyse_leaders)
    expected = SequentialEngine(query).run(nyse_events).identities()

    def sweep():
        rows = {}
        for freq in (1, 10, 100, 1000):
            config = SpectreConfig(k=K, consistency_check_freq=freq)
            result = SpectreEngine(query, config).run(nyse_events)
            assert result.identities() == expected
            rows[freq] = (result.throughput, result.stats.rollbacks,
                          result.stats.validation_rollbacks)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [format_series("throughput", [(f"freq{f}", f"{t:.4f}")
                                          for f, (t, _r, _v) in rows.items()]),
             format_series("rollbacks", [(f"freq{f}", r)
                                         for f, (_t, r, _v) in rows.items()]),
             format_series("validation rollbacks",
                           [(f"freq{f}", v)
                            for f, (_t, _r, v) in rows.items()])]
    write_figure("ablation_consistency",
                 "Ablation: consistency-check frequency (Q1, k=8)", lines)
    # correctness never depends on the check frequency (asserted above);
    # rare checks defer detection to emission-time validation
    assert rows[1000][1] <= rows[1][1] + rows[1000][2] + \
        rows[1000][1], "sanity"


@pytest.mark.benchmark(group="ablations")
def test_ablation_topk_vs_fifo_scheduling(benchmark, nyse_events,
                                          nyse_leaders):
    # high completion probability: FIFO keeps burning instances on stale
    # abandon-side versions, top-k follows the likely path
    query = _query(nyse_leaders, q=16)
    expected = SequentialEngine(query).run(nyse_events).identities()

    def sweep():
        rows = {}
        for scheduler in ("topk", "fifo"):
            config = SpectreConfig(k=K, scheduler=scheduler)
            result = SpectreEngine(query, config).run(nyse_events)
            assert result.identities() == expected
            rows[scheduler] = result.throughput
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_figure("ablation_scheduler",
                 "Ablation: top-k vs FIFO scheduling (Q1 q=16, k=8)",
                 [format_series("throughput",
                                [(s, f"{t:.4f}") for s, t in rows.items()]),
                  f"topk/fifo = {rows['topk'] / rows['fifo']:.2f}"])
    assert rows["topk"] >= rows["fifo"] * 0.95, \
        "top-k must not lose to naive scheduling"


@pytest.mark.benchmark(group="ablations")
def test_ablation_speculation_speedup(benchmark, nyse_events, nyse_leaders):
    # defer-until-resolved = sequential windows = SPECTRE with k=1
    query = _query(nyse_leaders, q=16)

    def sweep():
        baseline = SpectreEngine(query, SpectreConfig(k=1)) \
            .run(nyse_events).throughput
        speculative = SpectreEngine(query, SpectreConfig(k=K)) \
            .run(nyse_events).throughput
        return baseline, speculative

    baseline, speculative = benchmark.pedantic(sweep, rounds=1,
                                               iterations=1)
    write_figure("ablation_speculation",
                 "Ablation: speculation vs defer-until-resolved (Q1, k=8)",
                 [f"defer-until-resolved: {baseline:.4f}",
                  f"speculative (k={K}): {speculative:.4f}",
                  f"speedup: {speculative / baseline:.1f}x"])
    assert speculative > baseline * 3.0, \
        "speculation is the point of the system"


@pytest.mark.benchmark(group="ablations")
def test_ablation_markov_parameters(benchmark, nyse_events, nyse_leaders):
    query = _query(nyse_leaders)
    expected = SequentialEngine(query).run(nyse_events).identities()

    def sweep():
        rows = {}
        for alpha in (0.1, 0.7, 1.0):
            for ell in (5, 10, 50):
                params = MarkovParams(alpha=alpha, ell=ell)
                config = SpectreConfig(k=K, markov=params)
                result = SpectreEngine(query, config).run(nyse_events)
                assert result.identities() == expected
                rows[(alpha, ell)] = result.throughput
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [format_series(f"alpha={alpha}",
                           [(f"ell{ell}", f"{rows[(alpha, ell)]:.4f}")
                            for ell in (5, 10, 50)])
             for alpha in (0.1, 0.7, 1.0)]
    best = max(rows.values())
    worst = min(rows.values())
    lines.append(f"spread best/worst = {best / worst:.2f}")
    write_figure("ablation_markov",
                 "Ablation: Markov alpha and ell sensitivity (Q1, k=8)",
                 lines)
    # the model is robust: parameter choice shifts throughput, it never
    # breaks correctness (asserted per run above)
    assert best / worst < 3.0
