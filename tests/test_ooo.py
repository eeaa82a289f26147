"""Tests for out-of-order handling (slack buffer)."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableHub
from repro.events import make_event, validate_order
from repro.events.ooo import LateEventError, SlackSorter
from repro.hub import StreamHub


def ev(seq, ts):
    return make_event(seq, "A", timestamp=ts)


class TestSlackSorter:
    def test_reorders_within_slack(self):
        sorter = SlackSorter(slack=5.0)
        out = list(sorter.sort([ev(0, 0.0), ev(2, 10.0), ev(1, 7.0),
                                ev(3, 20.0)]))
        assert validate_order(out)
        assert [e.seq for e in out] == [0, 1, 2, 3]

    def test_release_requires_horizon(self):
        sorter = SlackSorter(slack=10.0)
        assert sorter.push(ev(0, 0.0)) == []
        released = sorter.push(ev(1, 10.1))  # horizon passes event 0
        assert [e.seq for e in released] == [0]

    def test_flush_releases_rest(self):
        sorter = SlackSorter(slack=100.0)
        sorter.push(ev(1, 5.0))
        sorter.push(ev(0, 1.0))
        assert [e.seq for e in sorter.flush()] == [0, 1]

    def test_late_event_dropped_and_counted(self):
        sorter = SlackSorter(slack=1.0, late_policy="drop")
        sorter.push(ev(0, 0.0))
        sorter.push(ev(1, 10.0))  # releases event 0, horizon 9.0... 0.0
        sorter.push(ev(2, 20.0))
        late = sorter.push(ev(3, 2.0))
        assert late == []
        assert sorter.late_events == 1

    def test_late_event_raises_when_configured(self):
        sorter = SlackSorter(slack=0.5, late_policy="raise")
        sorter.push(ev(0, 0.0))
        sorter.push(ev(1, 10.0))   # releases event 0
        sorter.push(ev(2, 20.0))   # releases event 1 -> horizon 10.0
        with pytest.raises(LateEventError):
            sorter.push(ev(3, 1.0))

    def test_horizon_tie_is_late(self):
        """Regression: an arrival whose timestamp *equals* the release
        horizon but whose seq is lower than an already-released event
        must be treated as late, not re-admitted behind it.

        With the old ``timestamp < released`` check, ``Event(1, .., 0.0)``
        slipped into the buffer after ``Event(5, .., 0.0)`` had been
        released, producing keys ``[(0.0,5), (0.0,1), (5.0,10)]`` — a
        violation of the documented global ``(timestamp, seq)`` order.
        """
        sorter = SlackSorter(slack=1.0, late_policy="drop")
        out = list(sorter.push(make_event(5, "A", timestamp=0.0)))
        out += sorter.push(make_event(10, "A", timestamp=5.0))  # releases 5
        assert [e.seq for e in out] == [5]
        late = sorter.push(make_event(1, "A", timestamp=0.0))
        assert late == []
        assert sorter.late_events == 1
        out += sorter.flush()
        assert [e.order_key for e in out] == [(0.0, 5), (5.0, 10)]
        assert validate_order(out)

    def test_horizon_tie_higher_seq_still_admitted(self):
        """Same-timestamp arrivals *after* the released seq stay valid:
        only keys at or below the released (timestamp, seq) are late."""
        sorter = SlackSorter(slack=1.0, late_policy="raise")
        out = list(sorter.push(make_event(5, "A", timestamp=0.0)))
        out += sorter.push(make_event(10, "A", timestamp=5.0))
        out += sorter.push(make_event(7, "A", timestamp=0.0))  # 7 > 5: ok
        out += sorter.flush()
        assert [e.order_key for e in out] == [(0.0, 5), (0.0, 7), (5.0, 10)]
        assert sorter.late_events == 0

    def test_zero_slack_passthrough(self):
        sorter = SlackSorter(slack=0.0)
        out = list(sorter.sort([ev(0, 1.0), ev(1, 2.0), ev(2, 3.0)]))
        assert [e.seq for e in out] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SlackSorter(slack=-1.0)
        with pytest.raises(ValueError):
            SlackSorter(slack=1.0, late_policy="panic")

    def test_composes_with_engine(self):
        """Shuffled input + slack sorter feeds an engine correctly."""
        from repro.queries import make_qe
        from repro.streaming.builder import pipeline
        ordered = [make_event(0, "A", timestamp=0.0, change=1.0),
                   make_event(1, "B", timestamp=10.0, change=2.0),
                   make_event(2, "B", timestamp=20.0, change=3.0)]
        shuffled = [ordered[0], ordered[2], ordered[1]]
        sorter = SlackSorter(slack=30.0)
        restored = list(sorter.sort(shuffled))
        result = pipeline(make_qe("selected-b")).engine("sequential") \
            .run(restored)
        expected = pipeline(make_qe("selected-b")).engine("sequential") \
            .run(ordered)
        assert result.identities() == expected.identities()


# -- push_many: any chunking == one push per event --------------------------

class ReferenceSorter(SlackSorter):
    """``push`` as it was before ``push_many`` became the one body: a
    heap round-trip per event.  The reference the batch body must
    equal."""

    def push(self, event):
        if event.order_key <= self._released_key:
            self.late_events += 1
            if self.late_policy == "raise":
                raise LateEventError(
                    f"{event!r} arrived at or behind the release horizon "
                    f"{self._released_key}")
            return []
        heapq.heappush(self._heap, (event.order_key, event))
        self._max_seen = max(self._max_seen, event.timestamp)
        horizon = self._max_seen - self.slack
        released = []
        while self._heap and self._heap[0][1].timestamp <= horizon:
            released.append(heapq.heappop(self._heap)[1])
        if released:
            self._released_key = max(self._released_key,
                                     released[-1].order_key)
        return released


@st.composite
def feeds_and_cuts(draw):
    """A nearly ordered feed — few distinct timestamps, so equal
    timestamps meet out-of-order seqs, and displaced arrivals, some
    further back than any slack below — and a chunking of it."""
    n = draw(st.integers(0, 40))
    stamps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    events = [make_event(seq, "A", timestamp=float(ts))
              for seq, ts in enumerate(sorted(stamps))]
    for _ in range(draw(st.integers(0, 6))):
        if n > 1:
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 1))
            events.insert(j, events.pop(i))
    cuts = sorted(set(draw(st.lists(st.integers(0, n), max_size=6))))
    return events, cuts


def chunked(events, cuts):
    bounds = [0, *cuts, len(events)]
    return [events[a:b] for a, b in zip(bounds, bounds[1:])]


def feed_through(sorter, calls):
    """Run ``calls`` (thunks returning released events) against
    ``sorter`` → ``(released, everything else observable)``.  A
    ``LateEventError`` ends the feed; what the raising call had released
    is lost with the exception."""
    released, error = [], None
    try:
        for call in calls:
            released.extend(call())
    except LateEventError as exc:
        error = str(exc)
    state = sorter.state()
    return ([(e.seq, e.timestamp) for e in released],
            {"pending": [e.seq for e in state["pending"]],
             "max_seen": state["max_seen"],
             "released_key": state["released_key"],
             "late_events": sorter.late_events,
             "watermark": sorter.watermark, "error": error})


class TestPushManyEqualsPush:
    @settings(max_examples=300, deadline=None)
    @given(feeds_and_cuts(), st.sampled_from([0.0, 2.0, 100.0]),
           st.sampled_from(["drop", "raise"]))
    def test_any_chunking_equals_one_push_per_event(self, feed, slack,
                                                    policy):
        events, cuts = feed
        reference = ReferenceSorter(slack, policy)
        want, want_state = feed_through(
            reference, [lambda e=e: reference.push(e) for e in events])

        for chunks in (chunked(events, cuts), [events],
                       [[event] for event in events]):
            sorter = SlackSorter(slack, policy)
            got, got_state = feed_through(
                sorter, [lambda c=c: sorter.push_many(c) for c in chunks])
            assert got_state == want_state
            if got_state["error"] is None:
                assert got == want
            else:   # the raising chunk's own releases went with it
                assert got == want[:len(got)]

        single = SlackSorter(slack, policy)
        assert feed_through(
            single, [lambda e=e: single.push(e) for e in events]) == \
            (want, want_state)

    def test_in_order_at_slack_zero_never_touches_the_heap(self):
        sorter = SlackSorter(0.0)
        events = [ev(i, float(i // 2)) for i in range(10)]
        assert sorter.push_many(events) == events
        assert sorter.pending == 0 and sorter.watermark == 4.0
        tie = ev(10, 4.0)               # ties the horizon, higher seq
        assert sorter.push(tie) == [tie] and sorter.pending == 0

    def test_push_many_takes_any_iterable(self):
        sorter = SlackSorter(1.0)
        released = sorter.push_many(ev(i, float(i)) for i in range(5))
        assert [e.seq for e in released] == [0, 1, 2, 3]
        assert [e.seq for e in sorter.flush()] == [4]


# -- hub level: push_many == per-event push across a recovery ---------------

AB_TEXT = "PATTERN (A B)\nWITHIN 6 events FROM every 3 events\n"


def displaced_feed(n, seed):
    """Timestamp-ordered feed whose arrival order has some events moved
    a few positions (inside slack 5) and a few moved far (late)."""
    rng = random.Random(seed)
    events = [make_event(i, rng.choice("ABX"), timestamp=float(i))
              for i in range(n)]
    arrival = list(events)
    for _ in range(n // 8):
        i = rng.randrange(n - 4)
        arrival.insert(i + rng.randrange(1, 4), arrival.pop(i))
    for _ in range(3):
        i = rng.randrange(n // 2)
        arrival.insert(min(n - 1, i + 30), arrival.pop(i))
    return arrival


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hub_push_many_equals_push_across_checkpoint_and_restore(
        tmp_path, seed):
    feed = displaced_feed(120, seed)

    def run(directory, chunk):
        matches = []

        def push(hub, events):
            if chunk == 1:
                for event in events:
                    hub.push(event)
            else:
                for start in range(0, len(events), chunk):
                    hub.push_many(events[start:start + chunk])

        hub = DurableHub(directory, slack=5.0, checkpoint_every=10**9)
        hub.attach(AB_TEXT, engine="sequential", name="ab",
                   sink=lambda ce: matches.append(ce.identity()))
        push(hub, feed[:50])
        hub.checkpoint()
        push(hub, feed[50:70])          # the WAL tail recovery replays
        hub.hub.abort()
        hub.manager.close(checkpoint=False)
        hub = DurableHub(directory, slack=5.0, checkpoint_every=10**9,
                         sink_provider=lambda record:
                         lambda ce: matches.append(ce.identity()))
        assert hub.recovered
        push(hub, feed[70:])
        stats = hub.hub.stats()
        observed = (stats.late_events, stats.events_pushed,
                    hub.hub.watermark)
        hub.close()
        return matches, observed

    uncrashed = []
    plain = StreamHub(slack=5.0)
    plain.attach(AB_TEXT, engine="sequential", name="ab",
                 sink=lambda ce: uncrashed.append(ce.identity()))
    plain.push_many(feed)
    late = plain.stats().late_events
    plain.close()
    assert uncrashed and late > 0, "feed must match and run late"

    want = run(tmp_path / "push", 1)
    assert want == (uncrashed, (late, len(feed), want[1][2]))
    for chunk in (7, 256):
        assert run(tmp_path / f"chunk{chunk}", chunk) == want
