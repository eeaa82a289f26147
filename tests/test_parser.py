"""Unit tests for the extended MATCH-RECOGNIZE parser."""

import pytest

from repro.events import make_event
from repro.patterns import QueryParseError, parse_query
from repro.patterns.policies import SelectionPolicy
from repro.streaming.builder import pipeline
from repro.windows.specs import CountScope, EverySlide, OnPredicate, TimeScope

Q2_STYLE = """
PATTERN (A B+ C)
DEFINE
    A AS (A.closePrice < lowerLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit),
    C AS (C.closePrice > upperLimit)
WITHIN 100 events FROM every 10 events
CONSUME (A B+ C)
"""


def quote(seq, close):
    return make_event(seq, "quote", openPrice=50.0, closePrice=close)


class TestParseStructure:
    def test_q2_style_parses(self):
        query = parse_query(Q2_STYLE, name="q2ish",
                            params={"lowerLimit": 40, "upperLimit": 60})
        assert query.name == "q2ish"
        assert isinstance(query.window.scope, CountScope)
        assert query.window.scope.size == 100
        assert isinstance(query.window.start, EverySlide)
        assert query.window.start.slide == 10
        assert query.consumption.is_all is False
        assert query.consumption.consumes("A")
        assert query.consumption.consumes("B")
        assert query.delta_max == 3

    def test_consume_all(self):
        text = "PATTERN (A B) WITHIN 10 events FROM every 5 events CONSUME ALL"
        query = parse_query(text)
        assert query.consumption.is_all

    def test_no_consume_clause(self):
        text = "PATTERN (A B) WITHIN 10 events FROM every 5 events"
        assert parse_query(text).consumption.is_none

    def test_time_window_from_symbol(self):
        text = "PATTERN (B) WITHIN 1 min FROM A()"
        query = parse_query(text)
        assert isinstance(query.window.scope, TimeScope)
        assert query.window.scope.duration == 60.0
        assert isinstance(query.window.start, OnPredicate)

    def test_set_pattern(self):
        text = "PATTERN (A SET(X1 X2 X3)) WITHIN 50 events " \
               "FROM every 10 events CONSUME ALL"
        query = parse_query(text)
        assert query.delta_max == 4

    def test_negation(self):
        text = "PATTERN (A !C B) WITHIN 10 events FROM every 5 events"
        query = parse_query(text)
        assert query.delta_max == 2  # negation contributes no mandatory event

    def test_params_in_window_clause(self):
        text = "PATTERN (A B) WITHIN ws events FROM every s events"
        query = parse_query(text, params={"ws": 64, "s": 8})
        assert query.window.scope.size == 64
        assert query.window.start.slide == 8

    def test_anchored_inference(self):
        text = "PATTERN (MLE RE) DEFINE MLE AS (MLE.x > 1), RE AS (RE.x > 0) " \
               "WITHIN 10 events FROM MLE"
        query = parse_query(text)
        assert query.description  # parsed fine; anchor inferred
        # window starts on the MLE condition
        assert query.window.start.predicate(make_event(0, "quote", x=2))
        assert not query.window.start.predicate(make_event(0, "quote", x=0))


class TestBooleanConditions:
    """OR / parenthesized grouping in DEFINE (AND binds tighter)."""

    def test_or_disjunction(self):
        text = """
        PATTERN (A)
        DEFINE A AS (A.x < 10 OR A.x > 20)
        WITHIN 4 events FROM every 4 events
        """
        query = parse_query(text)
        stream = [make_event(0, "quote", x=5), make_event(1, "quote", x=15),
                  make_event(2, "quote", x=25)]
        result = pipeline(query).engine("sequential").run(stream)
        assert [ce.constituent_seqs for ce in result.complex_events] == \
            [(0,)]  # first match per window; 15 matches neither branch

    def test_and_binds_tighter_than_or(self):
        text = """
        PATTERN (A)
        DEFINE A AS (A.x > 0 AND A.x < 10 OR A.x > 20 AND A.x < 30)
        WITHIN 1 events FROM every 1 events
        """
        query = parse_query(text)
        hits = [x for x in (5, 15, 25, 35)
                if pipeline(query).engine("sequential")
                    .run([make_event(0, "quote", x=x)])
                .complex_events]
        assert hits == [5, 25]

    def test_parentheses_override_precedence(self):
        text = """
        PATTERN (A)
        DEFINE A AS ((A.x > 0 OR A.y > 0) AND A.z > 0)
        WITHIN 1 events FROM every 1 events
        """
        query = parse_query(text)

        def matches(**attrs):
            return bool(pipeline(query).engine("sequential")
                .run([make_event(0, "quote", **attrs)]).complex_events)

        assert matches(x=1, y=0, z=1)
        assert matches(x=0, y=1, z=1)
        assert not matches(x=1, y=1, z=0)  # z guard applies to both

    def test_cross_symbol_disjunction(self):
        # Q1's shape: "same direction as the bound MLE event"
        text = """
        PATTERN (M R)
        DEFINE
            M AS (M.x != 0),
            R AS ((R.x > 0 AND M.x > 0) OR (R.x < 0 AND M.x < 0))
        WITHIN 10 events FROM every 10 events
        """
        query = parse_query(text)
        same = [make_event(0, "quote", x=2), make_event(1, "quote", x=3)]
        opposite = [make_event(0, "quote", x=2),
                    make_event(1, "quote", x=-3)]
        assert pipeline(query).engine("sequential").run(same).complex_events
        assert not pipeline(query).engine("sequential") \
            .run(opposite).complex_events

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN (A) DEFINE A AS ((A.x > 1 OR A.x < 0) "
                        "WITHIN 4 events FROM every 4 events")


class TestParseErrors:
    def test_empty_pattern(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN () WITHIN 10 events FROM every 5 events")

    def test_unknown_identifier(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN (A) DEFINE A AS (A.x > unknownParam) "
                        "WITHIN 10 events FROM every 5 events")

    def test_time_window_needs_symbol_start(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN (A) WITHIN 10 seconds FROM every 5 events")

    def test_garbage(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN (A@) WITHIN 10 events FROM every 5 events")

    def test_truncated(self):
        with pytest.raises(QueryParseError):
            parse_query("PATTERN (A B")


class TestParsedQueryRuns:
    def test_a_bplus_c_detects(self):
        query = parse_query(Q2_STYLE, params={"lowerLimit": 40,
                                              "upperLimit": 60})
        stream = [quote(0, 30), quote(1, 50), quote(2, 55), quote(3, 70),
                  *[quote(i, 50) for i in range(4, 10)]]
        result = pipeline(query).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
        assert result.complex_events[0].constituent_seqs == (0, 1, 2, 3)

    def test_consumption_blocks_reuse(self):
        # windows every 2 events, both see the same A/B/C run; with
        # CONSUME the second window cannot reuse the constituents
        text = """
        PATTERN (A B+ C)
        DEFINE A AS (A.closePrice < 40),
               B AS (B.closePrice > 40 AND B.closePrice < 60),
               C AS (C.closePrice > 60)
        WITHIN 8 events FROM every 2 events
        CONSUME (A B+ C)
        """
        query = parse_query(text)
        stream = [quote(0, 30), quote(1, 50), quote(2, 70),
                  quote(3, 30), quote(4, 50), quote(5, 70),
                  quote(6, 50), quote(7, 50)]
        result = pipeline(query).engine("sequential").run(stream)
        seqs = [ce.constituent_seqs for ce in result.complex_events]
        # w0 consumes (0,1,2); w1 (starting at 2) can only build (3,4,5)
        assert (0, 1, 2) in seqs
        assert (3, 4, 5) in seqs
        assert len(seqs) == 2

    def test_each_selection(self):
        # EACH starts a match per initiator: two A's each pair with the B
        text = "PATTERN (A B) WITHIN 10 events FROM every 10 events"
        query = parse_query(text, selection=SelectionPolicy.EACH,
                            max_matches=None)
        stream = [make_event(0, "A"), make_event(1, "A"), make_event(2, "B")]
        result = pipeline(query).engine("sequential").run(stream)
        assert len(result.complex_events) == 2
