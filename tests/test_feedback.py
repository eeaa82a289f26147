"""Tests for the detector feedback protocol plumbing."""

import pytest

from repro.datasets import generate_nyse, generate_price_walk, leading_symbols
from repro.events import make_event
from repro.matching.base import EMPTY_FEEDBACK, Completion, Feedback
from repro.patterns.parser import parse_query
from repro.queries import make_q1, make_q2, make_q3, make_qe
from repro.queries.fig9 import q1_text
from repro.queries.udf import UDFMatch, is_falling, is_rising
from repro.streaming.builder import build_engine


class TestFeedback:
    def test_empty(self):
        assert Feedback().is_empty

    def test_not_empty_with_content(self):
        feedback = Feedback()
        feedback.created.append(UDFMatch(0, delta=1))
        assert not feedback.is_empty

    def test_shared_empty_feedback_refuses_mutation(self):
        assert EMPTY_FEEDBACK.is_empty
        with pytest.raises(AttributeError):
            EMPTY_FEEDBACK.created.append(UDFMatch(0, delta=1))


def _qe_stream():
    return [make_event(i, "A" if i % 7 in (0, 3) else
                       "B" if i % 7 in (1, 4, 5) else "X",
                       timestamp=float(i), change=1.0 + i % 5)
            for i in range(240)]


# every shipped detector, with a stream it matches on
DETECTORS = {
    "nfa-compiled": lambda: parse_query(
        q1_text(8, 200, leading_symbols(2)), compile=True),
    "nfa-interpreted": lambda: parse_query(
        q1_text(8, 200, leading_symbols(2)), compile=False),
    "q1": lambda: make_q1(8, 200, leading_symbols(2)),
    "q2": lambda: make_q2(lower=45, upper=55, window_size=300, slide=100),
    "q3": lambda: make_q3("S0000", ["S0001", "S0002"], window_size=200,
                          slide=50),
    "qe": lambda: make_qe("selected-b", window_seconds=12.0),
}
STREAMS = {
    "q2": lambda: generate_price_walk(1500, step_scale=6.0, seed=29),
    "qe": _qe_stream,
}


@pytest.mark.parametrize("name", list(DETECTORS))
@pytest.mark.parametrize("engine", ["sequential", "spectre"])
def test_shipped_detectors_leave_the_shared_feedback_empty(name, engine):
    """Detectors return ``EMPTY_FEEDBACK`` on no-op steps; neither they
    nor the engines may write into it."""
    events = STREAMS.get(name, lambda: generate_nyse(
        1500, n_symbols=60, n_leading=2, seed=19))()
    result = build_engine(DETECTORS[name](), engine).run(events)
    assert result.complex_events
    assert EMPTY_FEEDBACK == Feedback((), (), (), ())


class TestUDFMatch:
    def test_bind_tracks_consumable(self):
        match = UDFMatch(0, delta=2)
        a, b = make_event(0, "A"), make_event(1, "B")
        match.bind(a, consumed=True, delta_after=1)
        match.bind(b, consumed=False, delta_after=0)
        assert match.constituents == (a, b)
        assert list(match.consumable) == [a]
        assert match.delta == 0

    def test_delta_setter(self):
        match = UDFMatch(0, delta=5)
        match.delta = 2
        assert match.delta == 2


class TestQuoteHelpers:
    def test_rising(self):
        event = make_event(0, "q", openPrice=10.0, closePrice=11.0)
        assert is_rising(event)
        assert not is_falling(event)

    def test_falling(self):
        event = make_event(0, "q", openPrice=11.0, closePrice=10.0)
        assert is_falling(event)
        assert not is_rising(event)

    def test_flat_is_neither(self):
        event = make_event(0, "q", openPrice=10.0, closePrice=10.0)
        assert not is_rising(event)
        assert not is_falling(event)


class TestCompletion:
    def test_fields(self):
        match = UDFMatch(0, delta=0)
        a = make_event(0, "A")
        completion = Completion(match=match, constituents=(a,),
                                consumed=(a,), attributes={"x": 1})
        assert completion.constituents == (a,)
        assert completion.attributes["x"] == 1
