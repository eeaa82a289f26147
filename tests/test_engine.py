"""Behavioural tests for the SPECTRE engine on the simulated runtime."""

import pytest

from repro.events import make_event
from repro.patterns import ConsumptionPolicy
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.config import CostModel, MarkovParams
from repro.streaming.builder import pipeline

from tests.helpers import ab_query


def ab_stream(pattern_positions, n=24):
    """Events of type X everywhere except A/B pairs at given positions."""
    events = []
    for i in range(n):
        etype = pattern_positions.get(i, "X")
        events.append(make_event(i, etype))
    return events


class TestBasicRuns:
    def test_empty_stream(self):
        result = pipeline(ab_query()).engine("spectre").run([])
        assert result.complex_events == []
        assert result.stats.windows_total == 0

    def test_single_window_match(self):
        events = ab_stream({0: "A", 1: "B"}, n=6)
        query = ab_query(window=6, slide=6)
        result = pipeline(query).engine("spectre").run(events)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(0, 1)]

    def test_output_in_window_order(self):
        events = ab_stream({0: "A", 1: "B", 6: "A", 7: "B", 12: "A",
                            13: "B"}, n=18)
        query = ab_query(window=6, slide=6)
        result = pipeline(query).engine("spectre", k=4).run(events)
        window_ids = [ce.window_id for ce in result.complex_events]
        assert window_ids == sorted(window_ids)

    def test_throughput_positive(self):
        events = ab_stream({0: "A", 1: "B"}, n=12)
        result = pipeline(ab_query()).engine("spectre").run(events)
        assert result.throughput > 0
        assert result.virtual_time > 0

    def test_k1_has_no_speculative_waste(self):
        events = ab_stream({0: "A", 1: "B", 3: "A", 4: "B"}, n=24)
        result = pipeline(ab_query()).engine("spectre", k=1).run(events)
        # with one instance only the most probable (root-path) version
        # runs; any dropped versions were never processed
        assert result.stats.wasted_steps == 0

    def test_no_consumption_no_groups(self):
        events = ab_stream({0: "A", 1: "B", 3: "A", 4: "B"}, n=24)
        query = ab_query(consumption=ConsumptionPolicy.none())
        result = pipeline(query).engine("spectre", k=4).run(events)
        assert result.stats.groups_created == 0
        assert result.stats.max_tree_size >= 1


class TestScalingBehaviour:
    def test_more_instances_do_not_slow_down(self):
        events = ab_stream({i: ("A" if i % 6 == 0 else
                                "B" if i % 6 == 1 else "X")
                            for i in range(60)}, n=60)
        query = ab_query(window=12, slide=6)
        t1 = pipeline(query).engine("spectre", k=1).run(events).throughput
        t4 = pipeline(query).engine("spectre", k=4).run(events).throughput
        assert t4 > t1 * 1.2

    def test_max_tree_size_grows_with_k(self):
        events = ab_stream({i: ("A" if i % 6 == 0 else
                                "B" if i % 6 == 1 else "X")
                            for i in range(120)}, n=120)
        query = ab_query(window=24, slide=6)
        small = pipeline(query).engine("spectre", k=1).run(events)
        large = pipeline(query).engine("spectre", k=8).run(events)
        assert large.stats.max_tree_size >= small.stats.max_tree_size


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            SpectreConfig(k=0)

    def test_bad_probability_model(self):
        with pytest.raises(ValueError):
            SpectreConfig(probability_model="magic")

    def test_bad_fixed_probability(self):
        with pytest.raises(ValueError):
            SpectreConfig(probability_model="fixed", fixed_probability=1.5)

    def test_bad_markov_params(self):
        with pytest.raises(ValueError):
            MarkovParams(alpha=2.0)
        with pytest.raises(ValueError):
            MarkovParams(ell=0)

    def test_bad_costs(self):
        with pytest.raises(ValueError):
            CostModel(process=0.0)

    def test_admission_target(self):
        assert SpectreConfig(k=4).admission_target >= 8


class TestFixedProbabilityModel:
    def test_fixed_model_runs_correctly(self):
        events = ab_stream({0: "A", 1: "B", 6: "A", 7: "B"}, n=18)
        query = ab_query(window=6, slide=6)
        expected = pipeline(query).engine("sequential") \
            .run(events).identities()
        for p in (0.0, 0.5, 1.0):
            config = SpectreConfig(k=4, probability_model="fixed",
                                   fixed_probability=p)
            result = pipeline(query).engine("spectre", config=config) \
                .run(events)
            assert result.identities() == expected


class TestStats:
    def test_group_accounting(self):
        events = ab_stream({0: "A", 1: "B"}, n=6)
        query = ab_query(window=6, slide=6)
        result = pipeline(query).engine("spectre").run(events)
        assert result.stats.groups_created == 1
        assert result.stats.groups_completed == 1
        assert result.stats.completion_probability == 1.0

    def test_abandoned_group_accounting(self):
        events = ab_stream({0: "A"}, n=6)  # A without B
        query = ab_query(window=6, slide=6)
        result = pipeline(query).engine("spectre").run(events)
        assert result.stats.groups_created == 1
        assert result.stats.groups_abandoned == 1
        assert result.stats.completion_probability == 0.0

    def test_windows_emitted_matches_total(self):
        events = ab_stream({}, n=30)
        query = ab_query(window=10, slide=5)
        result = pipeline(query).engine("spectre", k=2).run(events)
        assert result.stats.windows_emitted == result.stats.windows_total


class TestWatchdog:
    def test_max_cycles_guard(self):
        events = ab_stream({0: "A", 1: "B"}, n=12)
        engine = SpectreEngine(ab_query(), SpectreConfig(k=1))
        with pytest.raises(RuntimeError):
            engine.run(events, max_cycles=1)


class TestLatencyInstrumentation:
    def test_latencies_recorded_per_window(self):
        events = ab_stream({0: "A", 1: "B", 6: "A", 7: "B"}, n=18)
        query = ab_query(window=6, slide=6)
        result = pipeline(query).engine("spectre", k=2).run(events)
        stats = result.stats
        assert len(stats.window_latencies) == stats.windows_emitted
        assert all(latency >= 0 for latency in stats.window_latencies)
        assert stats.mean_window_latency > 0

    def test_latency_bounded_by_run_time(self):
        # note: higher k admits windows *earlier* (deeper speculation), so
        # admission-to-emission latency is not monotone in k; it is always
        # bounded by the run's virtual time though
        events = ab_stream({i: ("A" if i % 6 == 0 else
                                "B" if i % 6 == 1 else "X")
                            for i in range(120)}, n=120)
        query = ab_query(window=24, slide=6)
        for k in (1, 8):
            result = pipeline(query).engine("spectre", k=k).run(events)
            assert all(latency <= result.virtual_time
                       for latency in result.stats.window_latencies)
