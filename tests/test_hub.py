"""Multi-query StreamHub: one ingestion path serving many attachments.

The acceptance contract of the serving redesign: for every engine in
the builder's ``ENGINES`` table (speculative or baseline), each
attachment on a shared hub emits exactly the complex events, consumption
ledger and window counters of that same query run alone through
``pipeline()``; an attachment added mid-stream emits exactly the
alone-run events whose windows open at/after its admission watermark;
attach/detach work dynamically; queues are bounded with backpressure;
sink failures stay isolated per attachment.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import BackpressureError, HubClosedError, StreamHub, pipeline
from repro.events import make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.queries import make_qe
from repro.streaming import SinkError
from repro.streaming.builder import ENGINES, build_engine
from repro.streaming.session import drive
from repro.windows import WindowSpec

FACTORY_ALIASES = ["spectre", "threaded", "elastic", "approximate",
                   "sharded"]
ALL_ENGINES = ["sequential", "trex"] + FACTORY_ALIASES

BUILD_OPTIONS = {
    "sequential": {},
    "trex": {},
    "spectre": {"k": 3},
    "threaded": {"k": 2},
    "elastic": {"k": 4},
    "approximate": {"k": 2},
    "sharded": {"k": 2, "workers": 1},
}


def abc_query(window, slide, consumption=None, name="abc"):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                       Atom("C", etype="C"))
    return make_query(name, pattern, WindowSpec.count_sliding(window, slide),
                      consumption=consumption or ConsumptionPolicy.all())


def abc_stream(n, seed=7):
    rng = random.Random(seed)
    return [make_event(i, rng.choice("ABCX")) for i in range(n)]


def run_alone(query, engine, events):
    """The baseline: the same query alone through the pipeline session.

    Returns (identities, consumed seqs, engine-native result)."""
    session = build_engine(query, engine, **BUILD_OPTIONS[engine]).open()
    matches = drive(session, events)
    identities = [ce.identity() for ce in matches]
    consumed = session.consumed_seqs()
    result = session.result()
    session.close()
    return identities, consumed, result


class TestSharedHubParity:
    """Acceptance: attachment on a shared hub == query run alone."""

    @pytest.fixture(scope="class")
    def events(self):
        return abc_stream(240, seed=13)

    def test_factory_registry_is_covered(self):
        assert set(ALL_ENGINES) == set(BUILD_OPTIONS) == set(ENGINES)
        assert set(FACTORY_ALIASES) == {
            name for name, spec in ENGINES.items() if spec.takes_config}

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_attachment_equals_alone_run(self, name, events):
        query = abc_query(12, 4)
        alone_ids, alone_consumed, alone_result = \
            run_alone(query, name, events)
        hub = StreamHub()
        # a second concurrent query proves fan-out isolation: its
        # consumption must not leak into the first attachment's ledger
        att = hub.attach(abc_query(12, 4), engine=name,
                         name="under-test", **BUILD_OPTIONS[name])
        other = hub.attach(abc_query(9, 3, name="other"), engine="spectre",
                           name="other", k=2)
        for event in events:
            hub.push(event)
        hub.close()
        assert [ce.identity() for ce in att.drain()] == alone_ids
        assert att.session.consumed_seqs() == alone_consumed
        assert att.matches_emitted == len(alone_ids)
        result = att.session.result()
        if name not in ("sequential", "trex"):
            assert result.stats.windows_total == \
                alone_result.stats.windows_total
            assert result.stats.windows_emitted == \
                alone_result.stats.windows_emitted
        # the sibling also matches its own alone run
        other_ids, _, _ = run_alone(abc_query(9, 3, name="other"),
                                    "spectre", events)
        assert [ce.identity() for ce in other.drain()] == \
            [i for i in other_ids]

    def test_heterogeneous_windows_one_pass(self, events):
        """Three window shapes over one pass, each = its alone run."""
        shapes = {"tumbling": abc_query(6, 6, name="tumbling"),
                  "sliding": abc_query(16, 4, name="sliding"),
                  "sparse": abc_query(4, 10, name="sparse")}
        hub = StreamHub()
        atts = {label: hub.attach(q, engine="spectre", k=2)
                for label, q in shapes.items()}
        for event in events:
            hub.push(event)
        hub.close()
        for label, q in shapes.items():
            alone_ids, _, _ = run_alone(q, "spectre", events)
            assert [ce.identity() for ce in atts[label].drain()] \
                == alone_ids, label

    def test_aggregate_stats(self, events):
        hub = StreamHub()
        hub.attach(abc_query(6, 6), engine="spectre", name="a", k=2)
        hub.attach(abc_query(8, 4, name="b"), engine="sequential", name="b")
        for event in events[:60]:
            hub.push(event)
        stats = hub.stats()
        assert stats.events_pushed == 60
        assert stats.events_released == 60
        assert {a.name for a in stats.attachments} == {"a", "b"}
        assert stats.attachments_live == 2
        assert stats.matches_total == sum(a.matches_emitted
                                          for a in stats.attachments)
        run_stats = {a.name: a.run_stats for a in stats.attachments}
        assert run_stats["a"] is not None  # speculative: RunStats
        assert run_stats["a"].windows_total > 0
        hub.close()

    def test_query_text_attachment(self, events):
        """MATCH-RECOGNIZE text goes through parse_query at attach."""
        text = """
        PATTERN (A B C)
        WITHIN 12 events FROM every 4 events
        CONSUME ALL
        """
        hub = StreamHub()
        att = hub.attach(text, engine="spectre", name="typed", k=2)
        for event in events:
            hub.push(event)
        hub.close()
        alone = pipeline(att.query).engine("spectre", k=2).run(events)
        assert [ce.identity() for ce in att.drain()] == alone.identities()


class TestDynamicAttachDetach:
    def test_mid_stream_attachment_sees_the_suffix(self):
        events = abc_stream(200, seed=3)
        query = abc_query(6, 6)
        alone = pipeline(abc_query(6, 6)).engine("spectre", k=2).run(events)
        hub = StreamHub()
        late = None
        for index, event in enumerate(events):
            if index == 77:
                late = hub.attach(abc_query(6, 6), engine="spectre",
                                  name="late", k=2)
                assert late.state == "pending"
            hub.push(event)
        hub.close()
        # admitted at the next slide-aligned position, at/after the
        # hub watermark at attach time
        assert late.admission_position == 78
        assert late.admission_watermark >= 77.0
        expected = [ce.identity() for ce in alone.complex_events
                    if ce.window_id * 6 >= late.admission_position]
        assert [ce.identity() for ce in late.drain()] == expected

    def test_predicate_window_attachment_admits_immediately(self):
        stream = [make_event(0, "A", 0.0, change=2.0),
                  make_event(1, "A", 20.0, change=4.0),
                  make_event(2, "B", 30.0, change=6.0),
                  make_event(3, "A", 80.0, change=2.0),
                  make_event(4, "B", 95.0, change=8.0)]
        alone = pipeline(make_qe("none")).engine("sequential").run(stream)
        hub = StreamHub()
        late = None
        for index, event in enumerate(stream):
            if index == 3:  # after watermark 30.0
                late = hub.attach(make_qe("none"), engine="sequential",
                                  name="late")
            hub.push(event)
        hub.close()
        assert late.admission_watermark == 80.0
        expected = [ce.identity() for ce in alone.complex_events
                    if ce.constituents[0].timestamp >= 80.0]
        assert [ce.identity() for ce in late.drain()] == expected

    def test_detach_mid_stream_equals_alone_run_over_prefix(self):
        events = abc_stream(160, seed=5)
        hub = StreamHub()
        att = hub.attach(abc_query(8, 4), engine="spectre", k=2)
        for event in events[:90]:
            hub.push(event)
        final = att.detach()  # drains trailing windows
        assert att.state == "detached"
        alone = pipeline(abc_query(8, 4)).engine("spectre", k=2) \
            .run(events[:90])
        assert [ce.identity() for ce in att.drain()] == alone.identities()
        assert set(ce.identity() for ce in final) <= \
            set(alone.identities())
        # the hub keeps serving the remaining attachments
        survivor = hub.attach(abc_query(6, 6), engine="sequential",
                              name="survivor")
        for event in events[90:]:
            hub.push(event)
        hub.close()
        assert att not in hub.attachments
        assert survivor.state == "flushed"

    def test_detach_without_drain_discards_trailing_windows(self):
        hub = StreamHub()
        att = hub.attach(abc_query(50, 50), engine="sequential")
        for index, etype in enumerate("ABC"):
            hub.push(make_event(index, etype))
        assert att.detach(drain=False) == []
        assert att.drain() == []
        assert att.detach() == []  # idempotent
        hub.close()

    def test_detached_name_is_reusable(self):
        hub = StreamHub()
        first = hub.attach(abc_query(6, 6), engine="sequential", name="q")
        with pytest.raises(ValueError, match="already in use"):
            hub.attach(abc_query(6, 6), engine="sequential", name="q")
        first.detach()
        hub.attach(abc_query(6, 6), engine="sequential", name="q")
        hub.close()

    def test_never_admitted_attachment_flushes_empty(self):
        hub = StreamHub()
        for index in range(3):
            hub.push(make_event(index, "A"))
        late = hub.attach(abc_query(10, 10), engine="sequential",
                          name="late")
        hub.close()  # stream ends before the next slide boundary (10)
        assert late.admission_position is None
        assert late.drain() == []
        assert late.state == "flushed"


class TestLifecycle:
    def test_push_after_close_raises(self):
        hub = StreamHub()
        hub.push(make_event(0, "A"))
        hub.close()
        with pytest.raises(HubClosedError, match="closed"):
            hub.push(make_event(1, "B"))
        with pytest.raises(HubClosedError):
            hub.attach(abc_query(6, 6), engine="sequential")

    def test_close_is_idempotent_and_context_manager_cleans_up(self):
        with StreamHub() as hub:
            att = hub.attach(abc_query(2, 2), engine="spectre", k=2)
            hub.push(make_event(0, "A"))
            hub.push(make_event(1, "B"))
        assert hub.is_closed
        assert hub.close() == 0
        assert att.session.is_closed

    def test_context_manager_aborts_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with StreamHub() as hub:
                att = hub.attach(abc_query(6, 6), engine="spectre", k=2)
                hub.push(make_event(0, "A"))
                raise RuntimeError("boom")
        assert hub.is_closed
        assert att.session.is_closed
        assert not att.session.is_flushed

    def test_shared_reorder_stage(self):
        """One slack buffer serves every attachment."""
        events = abc_stream(120, seed=11)
        jittered = events[:]
        rng = random.Random(2)
        for index in range(0, len(jittered) - 1, 7):  # local swaps
            jittered[index], jittered[index + 1] = \
                jittered[index + 1], jittered[index]
        hub = StreamHub(slack=5.0)
        a = hub.attach(abc_query(8, 4), engine="spectre", name="a", k=2)
        b = hub.attach(abc_query(6, 6, name="b"), engine="sequential",
                       name="b")
        for event in jittered:
            hub.push(event)
        hub.close()
        assert hub.late_events == 0
        for att, query in ((a, abc_query(8, 4)),
                           (b, abc_query(6, 6, name="b"))):
            alone = pipeline(query).engine("sequential").run(events)
            assert [ce.identity() for ce in att.drain()] == \
                alone.identities(), att.name

    def test_watermark_tracks_released_horizon(self):
        hub = StreamHub(slack=10.0)
        assert hub.watermark == float("-inf")
        hub.push(make_event(0, "A", 0.0))
        hub.push(make_event(1, "A", 5.0))
        assert hub.watermark == float("-inf")  # still inside the slack
        hub.push(make_event(2, "A", 20.0))
        assert hub.watermark == 5.0
        hub.close()


class TestBackpressure:
    def test_overflow_raises_but_loses_nothing(self):
        hub = StreamHub(queue_size=2)
        att = hub.attach(abc_query(3, 3), engine="sequential")
        pushed = 0
        with pytest.raises(BackpressureError, match="drain"):
            for index in range(60):
                hub.push(make_event(index, "ABC"[index % 3]))
                pushed += 1
        assert att.matches_dropped == 0
        drained = att.drain()
        assert len(drained) == 3  # over bound by at most one push's worth
        # draining clears the signal; pushing resumes
        hub.push(make_event(pushed, "X"))
        hub.close()

    def test_flush_and_close_never_raise_backpressure(self):
        # regression: a lingering over-bound flag must not make the
        # success path of `with hub:` raise, abort live sessions and
        # lose trailing-window matches — there is nothing to push back
        # on at end-of-stream
        events = [make_event(i, "ABC"[i % 3]) for i in range(31)]
        with StreamHub(queue_size=1) as hub:
            att = hub.attach(abc_query(3, 3), engine="sequential")
            for event in events:
                try:
                    hub.push(event)
                except BackpressureError:
                    pass  # documented: catch, keep pushing (lossless)
        # exiting the with-block flushed cleanly despite the overrun:
        # the trailing (31st-event) window match is present too
        assert att.state == "flushed"
        alone = pipeline(abc_query(3, 3)).engine("sequential").run(events)
        assert [ce.identity() for ce in att.drain()] == alone.identities()

    def test_drop_oldest_enforces_a_hard_bound(self):
        hub = StreamHub(queue_size=2, overflow="drop_oldest")
        att = hub.attach(abc_query(3, 3), engine="sequential")
        for index in range(30):
            hub.push(make_event(index, "ABC"[index % 3]))
        hub.close()
        assert len(att.drain()) <= 2
        assert att.matches_dropped > 0
        assert att.matches_emitted == att.matches_dropped + \
            len(att.drain()) + 2  # emitted = dropped + taken earlier

    def test_sinks_bypass_the_queue(self):
        seen = []
        hub = StreamHub(queue_size=1)
        att = hub.attach(abc_query(3, 3), engine="sequential",
                         sink=seen.append)
        for index in range(30):
            hub.push(make_event(index, "ABC"[index % 3]))
        hub.close()
        assert len(seen) == 10
        assert att.drain() == []


class TestHubSinkIsolation:
    def test_raising_sink_does_not_starve_others_or_the_hub(self):
        events = abc_stream(120, seed=9)
        good, bad_calls = [], []

        def bad(ce):
            bad_calls.append(ce)
            raise RuntimeError("sink down")

        hub = StreamHub()
        att = hub.attach(abc_query(6, 6), engine="spectre", k=2,
                         sink=(bad, good.append))
        other = hub.attach(abc_query(6, 6), engine="sequential",
                           name="other")
        for event in events:
            hub.push(event)  # never raises: sink errors are captured
        with pytest.raises(SinkError) as info:
            hub.flush()
        assert len(info.value.errors) == len(good)
        assert good  # the second sink kept receiving every match
        assert bad_calls == good
        alone = pipeline(abc_query(6, 6)).engine("sequential").run(events)
        assert [ce.identity() for ce in good] == alone.identities()
        # the sibling attachment was never affected
        assert [ce.identity() for ce in other.drain()] == \
            alone.identities()
        assert att.stats().sink_errors == len(good)  # cumulative counter
        hub.close()


# -- randomized parity -------------------------------------------------------

event_types = st.sampled_from(["A", "B", "C", "X"])
streams = st.lists(event_types, min_size=0, max_size=80).map(
    lambda types: [make_event(i, t) for i, t in enumerate(types)])


class TestRandomizedHubParity:
    """Hypothesis: shared-hub attachment == alone run, for random
    streams, windows, engines and sibling interference."""

    @settings(max_examples=12, deadline=None)
    @given(stream=streams,
           window=st.integers(min_value=2, max_value=16),
           slide=st.integers(min_value=1, max_value=10),
           name=st.sampled_from(ALL_ENGINES),
           consume_all=st.booleans())
    def test_attachment_equals_alone_run(self, stream, window, slide, name,
                                         consume_all):
        consumption = ConsumptionPolicy.all() if consume_all else \
            ConsumptionPolicy.selected("B")
        query = abc_query(window, slide, consumption)
        alone_ids, alone_consumed, alone_result = \
            run_alone(query, name, stream)
        hub = StreamHub(queue_size=4096)
        att = hub.attach(abc_query(window, slide, consumption),
                         engine=name, name="under-test",
                         **BUILD_OPTIONS[name])
        hub.attach(abc_query(5, 2, name="noise"), engine="sequential",
                   name="noise")
        for event in stream:
            hub.push(event)
        hub.close()
        assert [ce.identity() for ce in att.drain()] == alone_ids
        assert att.session.consumed_seqs() == alone_consumed
        if name not in ("sequential", "trex"):
            stats = att.session.result().stats
            assert stats.windows_total == alone_result.stats.windows_total
            assert stats.windows_emitted == \
                alone_result.stats.windows_emitted

    @settings(max_examples=12, deadline=None)
    @given(stream=streams,
           size=st.integers(min_value=2, max_value=8),
           attach_at=st.integers(min_value=0, max_value=80),
           name=st.sampled_from(["sequential", "spectre", "sharded"]))
    def test_mid_stream_attachment_is_the_alone_run_suffix(
            self, stream, size, attach_at, name):
        """Tumbling windows: admission is a dependency-closed cut, so
        the mid-stream attachment must emit *exactly* the alone-run
        suffix from its admission watermark, consumption included."""
        query = abc_query(size, size)
        alone_ids_full = pipeline(abc_query(size, size)) \
            .engine(name, **BUILD_OPTIONS[name]).run(stream)
        hub = StreamHub(queue_size=4096)
        late = None
        for index, event in enumerate(stream):
            if index == attach_at:
                late = hub.attach(abc_query(size, size), engine=name,
                                  name="late", **BUILD_OPTIONS[name])
            hub.push(event)
        if late is None:  # attach point beyond the stream
            late = hub.attach(abc_query(size, size), engine=name,
                              name="late", **BUILD_OPTIONS[name])
        hub.close()
        got = [ce.identity() for ce in late.drain()]
        if late.admission_position is None:
            assert got == []
        else:
            expected = [ce.identity()
                        for ce in alone_ids_full.complex_events
                        if ce.window_id * size >= late.admission_position]
            assert got == expected
