"""Tests for the real-thread runtime (correctness under genuine races).

These runs are nondeterministic in their interleavings but must always
produce exactly the sequential output — the point of the consistency
check + rollback + final-validation machinery.
"""

import pytest

from repro.datasets import generate_nyse, leading_symbols
from repro.events import make_event
from repro.queries import make_q1, make_qe
from repro.spectre import SpectreConfig
from repro.spectre.threaded import (
    LockedPredictor,
    ThreadedSpectreEngine,
)
from repro.spectre.prediction import FixedPredictor
from repro.streaming.builder import pipeline


class TestLockedPredictor:
    def test_delegates(self):
        locked = LockedPredictor(FixedPredictor(0.4))
        assert locked.probability(3, 10) == 0.4
        locked.observe(3, 2)  # no-op, must not raise


class TestThreadedEquivalence:
    @pytest.fixture(scope="class")
    def nyse(self):
        return generate_nyse(1200, n_symbols=50, n_leading=2, seed=41)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_q1_equivalence(self, nyse, k):
        query = make_q1(q=8, window_size=200,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        engine = ThreadedSpectreEngine(query, SpectreConfig(k=k))
        result = engine.run(nyse, timeout_seconds=120.0)
        assert result.identities() == expected
        assert result.stats.windows_emitted == result.stats.windows_total

    def test_qe_equivalence(self):
        stream = [make_event(0, "A", timestamp=0.0, change=2.0),
                  make_event(1, "A", timestamp=10.0, change=4.0),
                  make_event(2, "B", timestamp=20.0, change=6.0),
                  make_event(3, "B", timestamp=30.0, change=8.0),
                  make_event(4, "B", timestamp=70.0, change=2.0)]
        query = make_qe("selected-b")
        expected = pipeline(query).engine("sequential") \
            .run(stream).identities()
        result = pipeline(query).engine("threaded", k=2).run(stream)
        assert result.identities() == expected

    def test_wall_time_recorded(self, nyse):
        query = make_q1(q=8, window_size=200,
                        leading_symbols=leading_symbols(2))
        engine = ThreadedSpectreEngine(query, SpectreConfig(k=2))
        result = engine.run(nyse, timeout_seconds=120.0)
        assert engine.wall_seconds > 0
        assert result.virtual_time == engine.wall_seconds

    def test_repeated_runs_all_correct(self, nyse):
        """Race robustness: several runs, every one must be exact."""
        query = make_q1(q=8, window_size=200,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        for _attempt in range(3):
            engine = ThreadedSpectreEngine(query, SpectreConfig(k=4))
            result = engine.run(nyse, timeout_seconds=120.0)
            assert result.identities() == expected

    def test_workers_step_through_the_one_instance_loop(self, nyse):
        """The workers run the simulated engine's loop, one step per
        lock acquisition (a budget of 0), and stay exact."""
        query = make_q1(q=8, window_size=200,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        engine = ThreadedSpectreEngine(query, SpectreConfig(k=2))
        budgets = []
        loop = engine._run_version

        def spy(version, budget):
            assert version.lock.locked()
            budgets.append(budget)
            return loop(version, budget)

        engine._run_version = spy
        result = engine.run(nyse, timeout_seconds=120.0)
        assert result.identities() == expected
        assert budgets and set(budgets) == {0.0}
        assert not hasattr(engine, "_step_version")
