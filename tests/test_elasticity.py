"""Tests for completion-probability-driven elasticity."""

import pytest

from repro.datasets import generate_nyse, leading_symbols
from repro.queries import make_q1
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.elasticity import ElasticityPolicy
from repro.streaming.builder import pipeline
from tests.helpers import fingerprint


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


def elastic(query, policy):
    """The engine the removed subclass built: it starts at the plateau."""
    return SpectreEngine(query, SpectreConfig(k=policy.plateau_k,
                                              elasticity=policy))


class TestElasticEngine:
    def test_high_probability_scales_up(self, nyse):
        # q=8: completion probability ~100% -> full budget expected
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        policy = ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                                  min_resolved=5)
        engine = elastic(query, policy)
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
        engine = elastic(query, policy)
        engine.run(nyse)
        assert engine.k == 4

    def test_wrapper_correct(self, nyse):
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = pipeline(query).engine(
            "spectre", elasticity=ElasticityPolicy()).run(nyse)
        assert result.identities() == expected

    def test_static_config_adapts_nothing(self, nyse):
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        engine = SpectreEngine(query, SpectreConfig(k=4))
        engine.run(nyse)
        assert engine.k == 4 and engine.adaptations == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_k"):
            SpectreConfig(k=8, elasticity=ElasticityPolicy(max_k=4,
                                                           plateau_k=2))
        with pytest.raises(ValueError, match="ElasticityPolicy"):
            SpectreConfig(elasticity={"max_k": 4})

    @pytest.mark.parametrize("value", ["topk", 16, (16, 4),
                                       ElasticityPolicy])
    def test_config_refuses_a_non_policy(self, value):
        with pytest.raises(ValueError, match="ElasticityPolicy"):
            SpectreConfig(elasticity=value)

    @pytest.mark.parametrize("scheduler", ["topk", "fifo", "roundrobin"])
    def test_every_scheduler_adapts_and_stays_correct(self, nyse,
                                                      scheduler):
        """The adaptation step runs in the splitter cycle whichever
        strategy picks the versions; the output stays sequential."""
        query = make_q1(q=8, window_size=400,
                        leading_symbols=leading_symbols(2))
        policy = ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                                  min_resolved=5)
        engine = SpectreEngine(query, SpectreConfig(
            k=4, scheduler=scheduler, elasticity=policy))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        assert engine.run(nyse).identities() == expected
        assert engine.adaptations
        assert all(record.k in (policy.plateau_k, policy.max_k)
                   for record in engine.adaptations)
        assert engine.k == engine.adaptations[-1].k

    # Recorded from the ElasticSpectreEngine subclass this config
    # replaced: the same policy on the same events must reproduce its
    # runs bit-for-bit.
    @pytest.mark.parametrize("q, policy, pinned", [
        (8, ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                             min_resolved=5),
         ("4cb2b2f404454d85", 33, 1504.0, [(50, 1.0, 16)], 0)),
        (110, ElasticityPolicy(max_k=16, plateau_k=4, period=50,
                               min_resolved=5),
         ("aa235e5c465eb0d4", 11, 3784.0,
          [(250, 1.0, 16), (450, 0.6875, 4)], 0)),
        (8, ElasticityPolicy(),
         ("33e34653b4e17904", 33, 2032.0, [(200, 1.0, 32)], 0)),
    ], ids=["q8", "q110", "q8-default-policy"])
    def test_pinned_runs(self, nyse, q, policy, pinned):
        query = make_q1(q=q, window_size=400,
                        leading_symbols=leading_symbols(2))
        engine = elastic(query, policy)
        assert fingerprint(engine, engine.run(nyse)) == pinned
