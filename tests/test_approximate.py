"""Tests for approximate early emission (the Sec. 5 future-work feature)."""

import pytest

from repro.datasets import generate_nyse, leading_symbols
from repro.queries import make_q1
from repro.spectre import SpectreConfig
from repro.spectre.approximate import ApproximateSpectreEngine
from repro.streaming.builder import pipeline


@pytest.fixture(scope="module")
def nyse():
    return generate_nyse(2000, n_symbols=60, n_leading=2, seed=11)


@pytest.fixture(scope="module")
def query():
    return make_q1(q=8, window_size=300, leading_symbols=leading_symbols(2))


def approximate(query, events, threshold=0.9, k=4):
    """Final + early streams (the early one lives on the engine, so the
    fluent ``run`` — final stream only — cannot return it)."""
    return ApproximateSpectreEngine(
        query, SpectreConfig(k=k),
        emission_threshold=threshold).run_approximate(events)


class TestApproximateEmission:
    def test_final_output_unchanged(self, nyse, query):
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = approximate(query, nyse, 0.7)
        assert result.final.identities() == expected

    def test_high_threshold_high_precision(self, nyse, query):
        result = approximate(query, nyse, 0.95)
        assert result.precision >= 0.9

    def test_early_emissions_exist(self, nyse, query):
        result = approximate(query, nyse, 0.7)
        assert len(result.early) > 0
        for emission in result.early:
            assert emission.survival_probability >= 0.7

    def test_recall_complete_at_any_threshold(self, nyse, query):
        # every final event passes through a version whose survival
        # probability reaches 1.0 at the latest when it becomes root
        result = approximate(query, nyse, 1.0)
        assert result.recall == 1.0

    def test_lower_threshold_not_less_early(self, nyse, query):
        strict = approximate(query, nyse, 0.99)
        loose = approximate(query, nyse, 0.5)
        assert len(loose.early) >= len(strict.early)

    def test_no_duplicate_early_emissions(self, nyse, query):
        result = approximate(query, nyse, 0.6)
        identities = [e.complex_event.identity() for e in result.early]
        assert len(identities) == len(set(identities))

    def test_threshold_validation(self, query):
        with pytest.raises(ValueError):
            ApproximateSpectreEngine(query, emission_threshold=0.0)
        with pytest.raises(ValueError):
            ApproximateSpectreEngine(query, emission_threshold=1.5)

    def test_empty_run_perfect_scores(self, query):
        result = approximate(query, [], k=2)
        assert result.precision == 1.0
        assert result.recall == 1.0
