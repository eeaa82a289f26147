"""Unit tests for the splitter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import make_event
from repro.events.stream import StreamOrderError
from repro.matching.kernel import EventClassifier
from repro.windows import Splitter, WindowSpec
from repro.windows.specs import EverySlide, TimeScope


def count_events(n):
    return [make_event(i, "A") for i in range(n)]


class TestCountSliding:
    def test_window_boundaries(self):
        splitter = Splitter(WindowSpec.count_sliding(size=4, slide=2))
        windows = splitter.split_all(count_events(10))
        bounds = [(w.start_pos, w.end_pos) for w in windows]
        assert bounds == [(0, 4), (2, 6), (4, 8), (6, 10), (8, 10)]

    def test_trailing_window_truncated(self):
        splitter = Splitter(WindowSpec.count_sliding(size=4, slide=2))
        windows = splitter.split_all(count_events(9))
        assert windows[-1].end_pos == 9

    def test_window_ids_increase(self):
        splitter = Splitter(WindowSpec.count_sliding(size=4, slide=2))
        windows = splitter.split_all(count_events(10))
        assert [w.window_id for w in windows] == list(range(len(windows)))

    def test_avg_window_size(self):
        splitter = Splitter(WindowSpec.count_sliding(size=4, slide=2))
        splitter.split_all(count_events(10))
        # sizes: 4,4,4,4,2
        assert splitter.stats.avg_window_size == pytest.approx(18 / 5)

    def test_is_window_complete(self):
        splitter = Splitter(WindowSpec.count_sliding(size=3, slide=3))
        for event in count_events(4):
            splitter.ingest(event)
        first, second = splitter.windows
        assert splitter.is_window_complete(first)
        assert not splitter.is_window_complete(second)
        splitter.finish()
        assert splitter.is_window_complete(second)


class TestPredicateWindows:
    def test_opens_on_predicate(self):
        spec = WindowSpec.count_on(3, lambda e: e.etype == "A")
        splitter = Splitter(spec)
        events = [make_event(0, "X"), make_event(1, "A"), make_event(2, "X"),
                  make_event(3, "A"), make_event(4, "X"), make_event(5, "X")]
        windows = splitter.split_all(events)
        assert [(w.start_pos, w.end_pos) for w in windows] == [(1, 4), (3, 6)]


class TestTimeWindows:
    def test_closes_on_time(self):
        spec = WindowSpec.time_on(10.0, lambda e: e.etype == "A")
        splitter = Splitter(spec)
        events = [make_event(0, "A", timestamp=0.0),
                  make_event(1, "B", timestamp=5.0),
                  make_event(2, "B", timestamp=10.0),   # still inside
                  make_event(3, "B", timestamp=10.5)]   # outside -> closes
        windows = splitter.split_all(events)
        assert len(windows) == 1
        assert windows[0].end_pos == 3  # event 3 excluded

    def test_open_until_finish(self):
        spec = WindowSpec.time_on(100.0, lambda e: e.etype == "A")
        splitter = Splitter(spec)
        splitter.ingest(make_event(0, "A", timestamp=0.0))
        assert splitter.windows[0].end_pos is None
        splitter.finish()
        assert splitter.windows[0].end_pos == 1


class TestSplitterLifecycle:
    def test_ingest_after_finish_rejected(self):
        splitter = Splitter(WindowSpec.count_sliding(2, 2))
        splitter.finish()
        with pytest.raises(RuntimeError):
            splitter.ingest(make_event(0, "A"))

    def test_double_finish_is_idempotent(self):
        splitter = Splitter(WindowSpec.count_sliding(2, 2))
        splitter.split_all(count_events(4))
        splitter.finish()
        assert splitter.stats.windows_closed == 2

    def test_ingest_returns_opened_windows(self):
        splitter = Splitter(WindowSpec.count_sliding(4, 2))
        assert len(splitter.ingest(make_event(0, "A"))) == 1
        assert len(splitter.ingest(make_event(1, "A"))) == 0
        assert len(splitter.ingest(make_event(2, "A"))) == 1

    def test_stats_counts(self):
        splitter = Splitter(WindowSpec.count_sliding(4, 2))
        splitter.split_all(count_events(10))
        assert splitter.stats.windows_opened == 5
        assert splitter.stats.windows_closed == 5


# -- batch ingestion: ingest_many ≡ ingest per event -------------------------

SPECS = {
    "slide/count": WindowSpec.count_sliding(5, 2),
    "slide/time": WindowSpec(start=EverySlide(3), scope=TimeScope(4.0)),
    "predicate/count": WindowSpec.count_on(5, lambda e: e.etype == "A"),
    "predicate/time": WindowSpec.time_on(4.0, lambda e: e.etype == "A"),
}


def new_splitter(spec_name, classified):
    classifier = EventClassifier(frozenset("AB")) if classified else None
    return Splitter(SPECS[spec_name], classifier=classifier)


def observable_state(splitter):
    """Everything an engine can see of a splitter between ingests."""
    classifier = splitter.classifier
    return {
        "ingested": splitter.ingested,
        "offset": splitter.stream.offset,
        "last_key": splitter.stream._last_key,
        "flags": None if classifier is None else (
            classifier._offset, list(classifier._flags)),
        "windows": [(w.window_id, w.start_pos, w.end_pos)
                    for w in splitter.windows],
        "open": [w.window_id for w in splitter._open_windows],
        "stats": splitter.stats,
        "retired": splitter.retired,
    }


def collect_garbage(splitter, closed):
    if closed:
        splitter.retire(closed[-1])
    splitter.trim_to_live()


class TestIngestMany:
    @settings(max_examples=60, deadline=None)
    @given(types=st.lists(st.sampled_from("ABX"), max_size=60),
           gaps=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                         min_size=1, max_size=7),
           sizes=st.lists(st.integers(1, 13), min_size=1, max_size=5),
           spec_name=st.sampled_from(sorted(SPECS)),
           classified=st.booleans(), gc=st.booleans())
    def test_equals_one_ingest_per_event(self, types, gaps, sizes,
                                         spec_name, classified, gc):
        timestamp, events = 0.0, []
        for index, etype in enumerate(types):
            timestamp += gaps[index % len(gaps)]
            events.append(make_event(index, etype, timestamp=timestamp))
        one, many = (new_splitter(spec_name, classified) for _ in range(2))
        start, turn = 0, 0
        while start < len(events):
            chunk = events[start:start + sizes[turn % len(sizes)]]
            start += len(chunk)
            turn += 1
            opened = [w.window_id for event in chunk
                      for w in one.ingest(event)]
            assert [w.window_id for w in many.ingest_many(chunk)] == opened
            closed = [w.window_id for w in one.drain_closed()]
            assert [w.window_id for w in many.drain_closed()] == closed
            if gc:
                collect_garbage(one, closed)
                collect_garbage(many, closed)
            assert observable_state(many) == observable_state(one)
        one.finish()
        many.finish()
        assert [w.window_id for w in many.drain_closed()] == \
            [w.window_id for w in one.drain_closed()]
        assert observable_state(many) == observable_state(one)

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_order_error_mid_batch_keeps_the_ordered_prefix(self, spec_name):
        """The events before the offender are ingested, the offender and
        the rest of the batch are not — the state one ``ingest`` per
        event leaves behind when it raises on the same event."""
        batch = [make_event(0, "A", timestamp=0.0),
                 make_event(1, "B", timestamp=1.0),
                 make_event(2, "A", timestamp=6.0),
                 make_event(3, "A", timestamp=5.0),   # behind event 2
                 make_event(4, "B", timestamp=7.0)]
        one, many = (new_splitter(spec_name, True) for _ in range(2))
        with pytest.raises(StreamOrderError):
            for event in batch:
                one.ingest(event)
        with pytest.raises(StreamOrderError):
            many.ingest_many(batch)
        assert many.ingested == 3
        assert many.classifier.retained == 3
        assert observable_state(many) == observable_state(one)
        # both keep working, identically, from the same point
        assert [w.window_id for w in many.ingest_many(batch[4:])] == \
            [w.window_id for w in one.ingest(batch[4])]
        assert observable_state(many) == observable_state(one)
