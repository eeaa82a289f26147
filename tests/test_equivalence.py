"""Output-equivalence suite: SPECTRE must emit exactly the sequential
engine's complex events — no false positives, no false negatives
(Sec. 2.3) — for every query, policy, dataset and instance count."""

import pytest

from repro.datasets import (
    generate_nyse,
    generate_price_walk,
    generate_rand,
    leading_symbols,
)
from repro.queries import make_q1, make_q2, make_q3
from repro.streaming.builder import pipeline
from repro.spectre import SpectreConfig, SpectreEngine

KS = [1, 2, 4, 8]


def assert_equivalent(query, events, k, **config_kwargs):
    expected = pipeline(query).engine("sequential").run(events)
    config = SpectreConfig(k=k, **config_kwargs)
    result = SpectreEngine(query, config).run(events)
    assert result.identities() == expected.identities(), (
        f"k={k}: {len(result.complex_events)} vs "
        f"{len(expected.complex_events)} complex events")
    return expected, result


class TestQ1Equivalence:
    @pytest.fixture(scope="class")
    def nyse(self):
        return generate_nyse(2500, n_symbols=60, n_leading=2, seed=11)

    @pytest.mark.parametrize("k", KS)
    def test_high_completion_probability(self, nyse, k):
        query = make_q1(q=4, window_size=400,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, k)

    @pytest.mark.parametrize("k", KS)
    def test_mid_completion_probability(self, nyse, k):
        query = make_q1(q=150, window_size=400,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, k)

    @pytest.mark.parametrize("k", KS)
    def test_zero_completion_probability(self, nyse, k):
        query = make_q1(q=300, window_size=400,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, k)


class TestQ2Equivalence:
    @pytest.fixture(scope="class")
    def walk(self):
        return generate_price_walk(2400, step_scale=6.0, seed=23)

    @pytest.mark.parametrize("k", KS)
    def test_narrow_band(self, walk, k):
        query = make_q2(lower=45, upper=55, window_size=400, slide=100)
        assert_equivalent(query, walk, k)

    @pytest.mark.parametrize("k", KS)
    def test_wide_band(self, walk, k):
        query = make_q2(lower=20, upper=80, window_size=400, slide=100)
        assert_equivalent(query, walk, k)


class TestQ3Equivalence:
    @pytest.fixture(scope="class")
    def rand(self):
        return generate_rand(2000, n_symbols=40, seed=31)

    @pytest.mark.parametrize("k", KS)
    def test_small_set(self, rand, k):
        query = make_q3("S0000", ["S0001", "S0002"], window_size=200,
                        slide=50)
        assert_equivalent(query, rand, k)

    @pytest.mark.parametrize("k", KS)
    def test_large_set(self, rand, k):
        members = [f"S{i:04d}" for i in range(1, 25)]
        query = make_q3("S0000", members, window_size=200, slide=50)
        assert_equivalent(query, rand, k)


class TestModelIndependence:
    """Correctness must not depend on prediction quality (Sec. 3.2:
    probabilities only steer scheduling, never semantics)."""

    @pytest.fixture(scope="class")
    def nyse(self):
        return generate_nyse(1500, n_symbols=60, n_leading=2, seed=17)

    @pytest.mark.parametrize("fixed_p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_fixed_models(self, nyse, fixed_p):
        query = make_q1(q=40, window_size=300,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, 4, probability_model="fixed",
                          fixed_probability=fixed_p)

    def test_tiny_consistency_check_frequency(self, nyse):
        query = make_q1(q=40, window_size=300,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, 4, consistency_check_freq=1)

    def test_rare_consistency_checks(self, nyse):
        query = make_q1(q=40, window_size=300,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, 4, consistency_check_freq=1000)

    def test_small_admission(self, nyse):
        query = make_q1(q=40, window_size=300,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, 4, admission_factor=0.5)

    def test_tight_version_budget(self, nyse):
        query = make_q1(q=40, window_size=300,
                        leading_symbols=leading_symbols(2))
        assert_equivalent(query, nyse, 8, max_versions=32)
