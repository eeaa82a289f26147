"""Unit tests for the sequential ground-truth engine."""

from repro.events import make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.sequential import ground_truth_completion_probability
from repro.streaming.builder import pipeline
from repro.windows import WindowSpec


def ab_query(consumption, window=6, slide=3, max_matches=1):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"))
    return make_query("ab", pattern, WindowSpec.count_sliding(window, slide),
                      consumption=consumption, max_matches=max_matches)


class TestSequentialBasics:
    def test_detects_in_each_window(self):
        events = [make_event(0, "A"), make_event(1, "B"),
                  make_event(2, "X"), make_event(3, "A"),
                  make_event(4, "B"), make_event(5, "X")]
        query = ab_query(ConsumptionPolicy.none())
        result = pipeline(query).engine("sequential").run(events)
        # w0=[0..5] matches (0,1); w1=[3..5] matches (3,4)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(0, 1), (3, 4)]

    def test_consumption_blocks_reuse_across_windows(self):
        events = [make_event(0, "X"), make_event(1, "X"),
                  make_event(2, "X"), make_event(3, "A"),
                  make_event(4, "B"), make_event(5, "X")]
        # w0=[0..5] matches (3,4) and consumes; w1=[3..8] finds them consumed
        query = ab_query(ConsumptionPolicy.all())
        result = pipeline(query).engine("sequential").run(events)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(3, 4)]

    def test_no_consumption_allows_reuse(self):
        events = [make_event(0, "X"), make_event(1, "X"),
                  make_event(2, "X"), make_event(3, "A"),
                  make_event(4, "B"), make_event(5, "X")]
        query = ab_query(ConsumptionPolicy.none())
        result = pipeline(query).engine("sequential").run(events)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(3, 4), (3, 4)]

    def test_selected_consumption_partial_reuse(self):
        # consuming only B: the A can be reused by the next window,
        # but it needs a fresh B
        events = [make_event(0, "X"), make_event(1, "X"), make_event(2, "X"),
                  make_event(3, "A"), make_event(4, "B"), make_event(5, "B")]
        query = ab_query(ConsumptionPolicy.selected("B"))
        result = pipeline(query).engine("sequential").run(events)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(3, 4), (3, 5)]

    def test_window_count_reported(self):
        events = [make_event(i, "X") for i in range(10)]
        query = ab_query(ConsumptionPolicy.none(), window=4, slide=2)
        result = pipeline(query).engine("sequential").run(events)
        assert result.windows == 5


class TestGroundTruthProbability:
    def test_all_complete(self):
        events = [make_event(0, "A"), make_event(1, "B")] + \
            [make_event(i, "X") for i in range(2, 6)]
        query = ab_query(ConsumptionPolicy.all(), window=6, slide=6)
        probability = ground_truth_completion_probability(query, events)
        assert probability == 1.0

    def test_none_complete(self):
        events = [make_event(0, "A")] + \
            [make_event(i, "X") for i in range(1, 6)]
        query = ab_query(ConsumptionPolicy.all(), window=6, slide=6)
        probability = ground_truth_completion_probability(query, events)
        assert probability == 0.0

    def test_no_groups_is_zero(self):
        events = [make_event(i, "X") for i in range(6)]
        query = ab_query(ConsumptionPolicy.all(), window=6, slide=6)
        assert ground_truth_completion_probability(query, events) == 0.0

    def test_half_complete(self):
        # w0: A then B completes; w1 (events 6..11): A without B abandons
        events = [make_event(0, "A"), make_event(1, "B"),
                  make_event(2, "X"), make_event(3, "X"),
                  make_event(4, "X"), make_event(5, "X"),
                  make_event(6, "A"), make_event(7, "X"),
                  make_event(8, "X"), make_event(9, "X"),
                  make_event(10, "X"), make_event(11, "X")]
        query = ab_query(ConsumptionPolicy.all(), window=6, slide=6)
        result = pipeline(query).engine("sequential").run(events)
        assert result.groups_created == 2
        assert result.groups_completed == 1
        assert result.completion_probability == 0.5

    def test_events_fed_excludes_consumed(self):
        events = [make_event(0, "X"), make_event(1, "X"), make_event(2, "X"),
                  make_event(3, "A"), make_event(4, "B"), make_event(5, "X")]
        query = ab_query(ConsumptionPolicy.all())
        result = pipeline(query).engine("sequential").run(events)
        assert result.events_skipped_consumed == 2  # A and B in window 1
