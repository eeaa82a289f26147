"""Scheduler-strategy parity suite.

Scheduling is pure policy (mechanism/policy separation): whichever
strategy picks the versions to run, the emitted complex events must be
exactly the sequential engine's — on every query shape (Q1 fixed-length,
Q2 variable-length, QE running example) and every engine variant built
on the layered runtime.
"""

import pytest

from repro.datasets import (
    generate_nyse,
    generate_price_walk,
    leading_symbols,
)
from repro.events import make_event
from repro.queries import make_q1, make_q2, make_qe
from repro.runtime.scheduler import SCHEDULER_NAMES, make_scheduler
from repro.spectre import (
    ApproximateSpectreEngine,
    ElasticityPolicy,
    ElasticSpectreEngine,
    SpectreConfig,
    SpectreEngine,
    ThreadedSpectreEngine,
)
from repro.streaming.builder import pipeline

STRATEGIES = list(SCHEDULER_NAMES)


@pytest.fixture(scope="module")
def nyse():
    return generate_nyse(1500, n_symbols=60, n_leading=2, seed=19)


@pytest.fixture(scope="module")
def walk():
    return generate_price_walk(1500, step_scale=6.0, seed=29)


@pytest.fixture(scope="module")
def qe_stream():
    events = []
    for i in range(240):
        etype = "A" if i % 7 in (0, 3) else ("B" if i % 7 in (1, 4, 5)
                                             else "X")
        events.append(make_event(i, etype, timestamp=float(i),
                                 change=1.0 + (i % 5)))
    return events


def _queries(nyse, walk, qe_stream):
    return {
        "q1": (make_q1(q=40, window_size=300,
                       leading_symbols=leading_symbols(2)), nyse),
        "q2": (make_q2(lower=45, upper=55, window_size=300, slide=100),
               walk),
        "qe": (make_qe("selected-b", window_seconds=12.0), qe_stream),
    }


class TestSchedulerParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("qname", ["q1", "q2", "qe"])
    def test_strategy_matches_sequential(self, nyse, walk, qe_stream,
                                         qname, strategy):
        query, events = _queries(nyse, walk, qe_stream)[qname]
        expected = pipeline(query).engine("sequential").run(events)
        config = SpectreConfig(k=4, scheduler=strategy)
        result = SpectreEngine(query, config).run(events)
        assert result.identities() == expected.identities(), (
            f"{qname}/{strategy}: {len(result.complex_events)} vs "
            f"{len(expected.complex_events)} complex events")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_constructor_injection_overrides_config(self, nyse, walk,
                                                    qe_stream, strategy):
        query, events = _queries(nyse, walk, qe_stream)["q1"]
        expected = pipeline(query).engine("sequential").run(events)
        engine = SpectreEngine(query, SpectreConfig(k=4),
                               scheduler=make_scheduler(strategy))
        assert engine.scheduler.name == strategy
        assert engine.run(events).identities() == expected.identities()


class TestEngineVariantParity:
    """Every engine variant × every strategy stays sequential-identical."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_elastic(self, nyse, walk, qe_stream, strategy):
        query, events = _queries(nyse, walk, qe_stream)["q1"]
        expected = pipeline(query).engine("sequential").run(events)
        policy = ElasticityPolicy(max_k=8, plateau_k=2, period=50,
                                  min_resolved=10)
        engine = ElasticSpectreEngine(
            query, policy,
            config=SpectreConfig(k=2, scheduler=strategy))
        assert engine.run(events).identities() == expected.identities()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_approximate_final_stream(self, nyse, walk, qe_stream,
                                      strategy):
        query, events = _queries(nyse, walk, qe_stream)["q2"]
        expected = pipeline(query).engine("sequential").run(events)
        engine = ApproximateSpectreEngine(
            query, SpectreConfig(k=4, scheduler=strategy),
            emission_threshold=0.8)
        assert engine.run(events).identities() == expected.identities()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_threaded(self, nyse, walk, qe_stream, strategy):
        query, events = _queries(nyse, walk, qe_stream)["qe"]
        expected = pipeline(query).engine("sequential").run(events)
        engine = ThreadedSpectreEngine(
            query, SpectreConfig(k=2, scheduler=strategy))
        assert engine.run(events).identities() == expected.identities()
