"""Property-based tests (hypothesis) for core invariants.

The headline property is Sec. 2.3's correctness contract: for *random*
streams, queries and configurations, SPECTRE's output equals the
sequential engine's, event for event.
"""

from hypothesis import given, settings, strategies as st

from repro.consumption import ConsumptionGroup
from repro.events import make_event, validate_order
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.streaming.builder import pipeline
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.config import MarkovParams
from repro.spectre.prediction import MarkovPredictor
from repro.windows import WindowSpec

import numpy as np


# -- stream strategies -------------------------------------------------------

event_types = st.sampled_from(["A", "B", "C", "X"])
streams = st.lists(event_types, min_size=0, max_size=80).map(
    lambda types: [make_event(i, t) for i, t in enumerate(types)])


def abc_query(window, slide, consumption):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                       Atom("C", etype="C"))
    return make_query("abc", pattern,
                      WindowSpec.count_sliding(window, slide),
                      consumption=consumption)


class TestSequentialSpectreEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams,
           window=st.integers(min_value=2, max_value=20),
           slide=st.integers(min_value=1, max_value=10),
           k=st.sampled_from([1, 2, 4]),
           consume_all=st.booleans())
    def test_outputs_identical(self, stream, window, slide, k, consume_all):
        consumption = ConsumptionPolicy.all() if consume_all else \
            ConsumptionPolicy.selected("B")
        query = abc_query(window, slide, consumption)
        expected = pipeline(query).engine("sequential") \
            .run(stream).identities()
        result = SpectreEngine(query, SpectreConfig(k=k)).run(stream)
        assert result.identities() == expected

    @settings(max_examples=30, deadline=None)
    @given(stream=streams, fixed_p=st.floats(min_value=0.0, max_value=1.0))
    def test_any_prediction_quality_is_safe(self, stream, fixed_p):
        query = abc_query(8, 4, ConsumptionPolicy.all())
        expected = pipeline(query).engine("sequential") \
            .run(stream).identities()
        config = SpectreConfig(k=3, probability_model="fixed",
                               fixed_probability=fixed_p)
        result = SpectreEngine(query, config).run(stream)
        assert result.identities() == expected


class TestSequentialInvariants:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_constituents_unique_under_consume_all(self, stream):
        """An event participates in at most one pattern instance."""
        query = abc_query(10, 5, ConsumptionPolicy.all())
        result = pipeline(query).engine("sequential").run(stream)
        seen: set[int] = set()
        for ce in result.complex_events:
            for seq in ce.constituent_seqs:
                assert seq not in seen
                seen.add(seq)

    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_consumption_never_creates_matching_windows(self, stream):
        """Consumption can *shift* a window's match to later events or
        kill it, but never make a non-matching window match, nor raise a
        window's match count: the pattern language is monotone, so a
        match over the consumption-filtered event set is also a match
        over the full set.  (Match identities are NOT a subset — an A B C
        window whose B was consumed elsewhere legitimately matches the
        *next* B; that shifting is exactly why SPECTRE must speculate.)"""
        from collections import Counter
        with_cp, without = (
            pipeline(abc_query(10, 5, policy)).engine("sequential")
            .run(stream)
            for policy in (ConsumptionPolicy.all(), ConsumptionPolicy.none()))
        with_counts = Counter(ce.window_id for ce in with_cp.complex_events)
        without_counts = Counter(ce.window_id
                                 for ce in without.complex_events)
        for window_id, count in with_counts.items():
            assert count <= without_counts.get(window_id, 0)

    @settings(max_examples=40, deadline=None)
    @given(stream=streams)
    def test_groups_resolve_exactly_once(self, stream):
        query = abc_query(10, 5, ConsumptionPolicy.all())
        result = pipeline(query).engine("sequential").run(stream)
        assert result.groups_completed <= result.groups_created


class TestMarkovProperties:
    deltas = st.integers(min_value=1, max_value=30)

    @settings(max_examples=40, deadline=None)
    @given(delta_max=deltas,
           transitions=st.lists(
               st.tuples(st.integers(1, 30), st.integers(0, 30)),
               max_size=300))
    def test_matrix_stays_stochastic(self, delta_max, transitions):
        predictor = MarkovPredictor(delta_max,
                                    params=MarkovParams(rho=25))
        for src, dst in transitions:
            predictor.observe(min(src, delta_max), min(dst, delta_max))
        matrix = predictor.transition_matrix
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= -1e-12).all()

    @settings(max_examples=40, deadline=None)
    @given(delta_max=deltas, delta=st.integers(0, 30),
           events_left=st.floats(min_value=0.0, max_value=500.0))
    def test_probability_bounds(self, delta_max, delta, events_left):
        predictor = MarkovPredictor(delta_max)
        probability = predictor.probability(min(delta, delta_max),
                                            events_left)
        assert 0.0 <= probability <= 1.0


class TestGroupProperties:
    @settings(max_examples=60, deadline=None)
    @given(seqs=st.lists(st.integers(0, 100), max_size=30))
    def test_versions_monotone(self, seqs):
        group = ConsumptionGroup(0)
        last_version = group.version
        for seq in seqs:
            group.add(make_event(seq, "A"))
            assert group.version >= last_version
            last_version = group.version
        assert group.event_seqs == frozenset(seqs)


class TestDatasetProperties:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 50))
    def test_nyse_streams_ordered(self, n, seed):
        from repro.datasets import generate_nyse
        events = generate_nyse(n, n_symbols=10, n_leading=2, seed=seed)
        assert len(events) == n
        assert validate_order(events)
