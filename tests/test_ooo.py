"""Tests for out-of-order handling (slack buffer)."""

import pytest

from repro.events import make_event, validate_order
from repro.events.ooo import LateEventError, SlackSorter


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
