"""Shared fixtures for the benchmark harness.

The datasets are scaled-down equivalents of the paper's (24M-quote NYSE,
3M-event RAND): the queries keep the paper's *ratios* (pattern size over
window size), which is the x-axis all throughput figures use, while event
counts stay laptop-sized.  README.md, "Scale substitutions", documents
the substitution.
"""

from __future__ import annotations

import pytest

from repro.datasets import (
    generate_nyse,
    generate_price_walk,
    generate_rand,
    leading_symbols,
)

# paper: k ∈ {1, 2, 4, 8, 16, 32} operator instances
KS = (1, 2, 4, 8, 16, 32)

# scaled-down window size for Q1/Q2 (paper: 8000); ratios are preserved
Q1_WINDOW = 800
Q2_WINDOW = 800
Q2_SLIDE = 100
Q3_WINDOW = 500
Q3_SLIDE = 100


@pytest.fixture(scope="session")
def nyse_events():
    """Synthetic NYSE-like stream (paper: real NYSE quotes).

    40 % flat quotes approximates 1-minute resolution data and lets the
    Q1 ratio sweep span the paper's completion-probability range
    (~100 % down to ~13 %)."""
    return generate_nyse(6000, n_symbols=100, n_leading=2, seed=3,
                         unchanged_probability=0.4)


@pytest.fixture(scope="session")
def nyse_leaders():
    return leading_symbols(2)


@pytest.fixture(scope="session")
def price_walk_events():
    """Mean-reverting single-series price process for Q2's band pattern:
    the band half-width then sweeps the completion probability smoothly
    from ~100 % down to 0 (cf. Fig. 10(e))."""
    return generate_price_walk(6000, step_scale=4.0, reversion=0.1,
                               seed=23)


@pytest.fixture(scope="session")
def rand_events():
    """The RAND dataset construction (scaled from 3M to 12k events).

    The symbol universe is scaled with the event count so that per-window
    symbol frequencies (and therefore the Q3 completion probabilities the
    Fig. 11 experiments depend on) match the original's operating points.
    """
    return generate_rand(12_000, n_symbols=100, seed=13)


@pytest.fixture(scope="session")
def rand_events_dense():
    """Denser-symbol RAND variant: Q3's high-completion-probability
    operating point (Fig. 11(a), paper: ~100 %)."""
    return generate_rand(12_000, n_symbols=50, seed=13)
