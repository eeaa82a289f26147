"""Tests for completion-probability-driven elasticity."""

import pytest

from repro.datasets import generate_nyse, leading_symbols
from repro.queries import make_q1
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.elasticity import (
    ElasticityPolicy,
    ElasticSpectreEngine,
)
from repro.streaming.builder import pipeline


@pytest.fixture(scope="module")
def nyse():
    return generate_nyse(3000, n_symbols=80, n_leading=2, seed=3,
                         unchanged_probability=0.4)


class TestElasticityPolicy:
    def test_mid_band_caps(self):
        policy = ElasticityPolicy(max_k=32, plateau_k=8,
                                  mid_band=(0.25, 0.75))
        assert policy.recommend(0.5) == 8
        assert policy.recommend(0.3) == 8

    def test_extremes_get_full_budget(self):
        policy = ElasticityPolicy(max_k=32, plateau_k=8)
        assert policy.recommend(0.99) == 32
        assert policy.recommend(0.01) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(max_k=4, plateau_k=8)
        with pytest.raises(ValueError):
            ElasticityPolicy(mid_band=(0.8, 0.2))


class TestSetK:
    def test_grow_and_shrink(self, nyse):
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        engine = SpectreEngine(query, SpectreConfig(k=2))
        engine.prepare(nyse)
        for _ in range(50):
            engine.splitter_cycle()
            engine.instance_phase()
        engine.set_k(6)
        assert engine.k == 6
        assert len(engine._instances) == 6
        engine.set_k(2)
        assert len(engine._instances) == 2
        # continue to completion: output must stay correct
        while not engine.done:
            engine.splitter_cycle()
            engine.instance_phase()
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        assert engine.result().identities() == expected

    def test_set_k_validation(self, nyse):
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        engine = SpectreEngine(query, SpectreConfig(k=2))
        with pytest.raises(ValueError):
            engine.set_k(0)


class TestElasticEngine:
    def test_high_probability_scales_up(self, nyse):
        # q=8: completion probability ~100% -> full budget expected
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        policy = ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                                  min_resolved=5)
        engine = ElasticSpectreEngine(query, policy)
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = engine.run(nyse)
        assert result.identities() == expected
        assert engine.k == 16
        assert any(record.k == 16 for record in engine.adaptations)

    def test_mid_probability_stays_capped(self, nyse):
        # pick a q with mid completion probability
        query = make_q1(q=110, window_size=400,
                        leading_symbols=leading_symbols(2))
        truth = pipeline(query).engine("sequential") \
            .run(nyse).completion_probability
        if not 0.25 <= truth <= 0.75:
            pytest.skip(f"dataset gives p={truth:.2f}, outside mid band")
        policy = ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                                  min_resolved=5)
        engine = ElasticSpectreEngine(query, policy)
        result = engine.run(nyse)
        assert engine.k == 4

    def test_wrapper_correct(self, nyse):
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = pipeline(query).engine("elastic").run(nyse)
        assert result.identities() == expected
