"""Engine behaviour with independent windows (multi-tree forests).

Windows that overlap no unresolved predecessor are *independent*
(Sec. 3.1: "there exists an individual dependency tree for each
independent window") — the engine keeps a forest and must still emit in
window order.
"""

from repro.events import make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.streaming.builder import pipeline
from repro.spectre import SpectreConfig, SpectreEngine
from repro.windows import WindowSpec


def anchored_ab_query(window_size=6):
    """Window opens on each S event; pattern = A then B inside it."""
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"))
    return make_query(
        "ab-islands", pattern,
        WindowSpec.count_on(window_size, lambda e: e.etype == "S"),
        consumption=ConsumptionPolicy.all())


def islands_stream(n_islands=4, gap=20):
    """Disjoint windows: S A B then a long run of X (no window opens)."""
    events = []
    seq = 0
    for _ in range(n_islands):
        for etype in ("S", "A", "B"):
            events.append(make_event(seq, etype))
            seq += 1
        for _ in range(gap):
            events.append(make_event(seq, "X"))
            seq += 1
    return events


class TestIndependentWindows:
    def test_disjoint_windows_form_forest(self):
        events = islands_stream()
        query = anchored_ab_query()
        expected = pipeline(query).engine("sequential").run(events)
        engine = SpectreEngine(query, SpectreConfig(k=4))
        result = engine.run(events)
        assert result.identities() == expected.identities()
        assert len(expected.complex_events) == 4

    def test_output_order_preserved_across_trees(self):
        events = islands_stream(n_islands=6)
        query = anchored_ab_query()
        result = SpectreEngine(query, SpectreConfig(k=8)).run(events)
        window_ids = [ce.window_id for ce in result.complex_events]
        assert window_ids == sorted(window_ids)

    def test_parallelism_across_independent_trees(self):
        events = islands_stream(n_islands=8, gap=30)
        query = anchored_ab_query()
        slow = SpectreEngine(query, SpectreConfig(k=1)).run(events)
        fast = SpectreEngine(query, SpectreConfig(k=4)).run(events)
        # independent windows parallelise trivially, consumption or not
        assert fast.throughput > slow.throughput * 1.5

    def test_mixed_overlapping_and_independent(self):
        # two S close together (dependent windows), then a gap, then two
        # more: forest with two trees of two windows each
        events = []
        seq = 0
        for offset in (0, 2):
            events.append(make_event(seq, "S")); seq += 1
            events.append(make_event(seq, "A")); seq += 1
        events.append(make_event(seq, "B")); seq += 1
        for _ in range(20):
            events.append(make_event(seq, "X")); seq += 1
        for offset in (0, 2):
            events.append(make_event(seq, "S")); seq += 1
            events.append(make_event(seq, "A")); seq += 1
        events.append(make_event(seq, "B")); seq += 1
        for _ in range(10):
            events.append(make_event(seq, "X")); seq += 1

        query = anchored_ab_query(window_size=8)
        expected = pipeline(query).engine("sequential").run(events)
        for k in (1, 2, 4):
            result = SpectreEngine(query, SpectreConfig(k=k)).run(events)
            assert result.identities() == expected.identities(), k
