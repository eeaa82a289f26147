"""Unit tests for the evaluation-query UDF detectors (Q1, Q2, Q3)."""

import pytest

from repro.events import make_event
from repro.queries import make_q1, make_q2, make_q3
from repro.streaming.builder import pipeline


def quote(seq, symbol, open_price, close_price):
    return make_event(seq, "quote", symbol=symbol, openPrice=open_price,
                      closePrice=close_price,
                      change=close_price - open_price)


def rising(seq, symbol="S0001"):
    return quote(seq, symbol, 10.0, 11.0)


def falling(seq, symbol="S0001"):
    return quote(seq, symbol, 11.0, 10.0)


def flat(seq, symbol="S0001"):
    return quote(seq, symbol, 10.0, 10.0)


class TestQ1:
    def _query(self, q=3, ws=10):
        return make_q1(q=q, window_size=ws, leading_symbols=["L0000"])

    def test_detects_rising_run(self):
        stream = [rising(0, "L0000"), rising(1), rising(2), rising(3)] + \
            [flat(i) for i in range(4, 10)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
        assert result.complex_events[0].constituent_seqs == (0, 1, 2, 3)
        assert result.complex_events[0].attributes["direction"] == "rise"

    def test_falling_mle_needs_falling_res(self):
        stream = [falling(0, "L0000"), rising(1), falling(2), falling(3),
                  falling(4)] + [flat(i) for i in range(5, 10)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events[0].constituent_seqs == (0, 2, 3, 4)
        assert result.complex_events[0].attributes["direction"] == "fall"

    def test_window_opens_only_on_leading_symbol(self):
        stream = [rising(0, "S0005"), rising(1), rising(2), rising(3)] + \
            [flat(i) for i in range(4, 10)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.windows == 0
        assert result.complex_events == []

    def test_abandon_when_window_too_short(self):
        stream = [rising(0, "L0000"), rising(1)] + \
            [flat(i) for i in range(2, 12)]
        result = pipeline(self._query(q=5, ws=6)).engine("sequential") \
            .run(stream)
        assert result.complex_events == []
        assert result.groups_created == 1
        assert result.completion_probability == 0.0

    def test_consumption_blocks_anchor_reuse(self):
        # two leading rising quotes close together: the first window
        # consumes the second window's anchor as an RE
        stream = [rising(0, "L0000"), rising(1, "L0000"), rising(2),
                  rising(3)] + [flat(i) for i in range(4, 14)]
        result = pipeline(self._query(q=2, ws=8)).engine("sequential") \
            .run(stream)
        seqs = [ce.constituent_seqs for ce in result.complex_events]
        assert seqs[0] == (0, 1, 2)
        # anchor of w1 (event 1) was consumed -> w1 yields nothing
        assert len(seqs) == 1

    def test_no_consume_variant(self):
        query = make_q1(q=2, window_size=8, leading_symbols=["L0000"],
                        consume=False)
        stream = [rising(0, "L0000"), rising(1, "L0000"), rising(2),
                  rising(3)] + [flat(i) for i in range(4, 14)]
        result = pipeline(query).engine("sequential").run(stream)
        assert len(result.complex_events) == 2


class TestQ2:
    def _query(self, lower=40.0, upper=60.0, ws=40, slide=40):
        return make_q2(lower=lower, upper=upper, window_size=ws, slide=slide)

    def _price(self, seq, close):
        return quote(seq, "PW00", 50.0, close)

    def test_full_oscillation(self):
        closes = [30, 50, 70, 50, 30, 50, 70, 50, 30, 50, 70, 50, 30]
        stream = [self._price(i, c) for i, c in enumerate(closes)]
        stream += [self._price(i, 50) for i in range(len(closes), 40)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
        assert len(result.complex_events[0].constituents) == 13

    def test_kleene_absorbs_extra_between_events(self):
        closes = [30, 50, 55, 45, 70, 50, 30, 50, 70, 50, 30, 50, 70,
                  50, 30]
        stream = [self._price(i, c) for i, c in enumerate(closes)]
        stream += [self._price(i, 50) for i in range(len(closes), 40)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
        assert len(result.complex_events[0].constituents) == 15

    def test_on_limit_events_ignored(self):
        closes = [30, 40, 60, 50, 70]  # 40 and 60 sit exactly on limits
        stream = [self._price(i, c) for i, c in enumerate(closes)]
        stream += [self._price(i, 50) for i in range(len(closes), 40)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events == []
        assert result.groups_created == 1  # the 30 opened a match

    def test_incomplete_oscillation_abandons(self):
        closes = [30, 50, 70, 50, 30]
        stream = [self._price(i, c) for i, c in enumerate(closes)]
        stream += [self._price(i, 50) for i in range(len(closes), 40)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events == []
        assert result.completion_probability == 0.0

    def test_direct_jump_needs_between_event(self):
        # below -> above without touching the band cannot progress
        closes = [30, 70, 30, 70, 30, 70, 30]
        stream = [self._price(i, c) for i, c in enumerate(closes)]
        stream += [self._price(i, 50) for i in range(len(closes), 40)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events == []


class TestQ3:
    def _query(self, n=2, ws=12, slide=12):
        members = [f"S{i:04d}" for i in range(1, n + 1)]
        return make_q3("S0000", members, window_size=ws, slide=slide)

    def _sym(self, seq, symbol):
        return quote(seq, symbol, 10.0, 10.5)

    def test_set_in_any_order(self):
        stream = [self._sym(0, "S0000"), self._sym(1, "S0002"),
                  self._sym(2, "S0005"), self._sym(3, "S0001")] + \
            [self._sym(i, "S0009") for i in range(4, 12)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
        assert result.complex_events[0].constituent_seqs == (0, 1, 3)

    def test_anchor_required_first(self):
        stream = [self._sym(0, "S0001"), self._sym(1, "S0002"),
                  self._sym(2, "S0000")] + \
            [self._sym(i, "S0009") for i in range(3, 12)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events == []

    def test_duplicates_not_double_counted(self):
        stream = [self._sym(0, "S0000"), self._sym(1, "S0001"),
                  self._sym(2, "S0001")] + \
            [self._sym(i, "S0009") for i in range(3, 12)]
        result = pipeline(self._query()).engine("sequential").run(stream)
        assert result.complex_events == []

    def test_consumption_across_sliding_windows(self):
        query = self._query(n=1, ws=8, slide=4)
        stream = [self._sym(0, "S0000"), self._sym(1, "S0001"),
                  self._sym(2, "S0009"), self._sym(3, "S0009"),
                  self._sym(4, "S0000"), self._sym(5, "S0001"),
                  self._sym(6, "S0009"), self._sym(7, "S0009"),
                  self._sym(8, "S0009"), self._sym(9, "S0009"),
                  self._sym(10, "S0009"), self._sym(11, "S0009")]
        result = pipeline(query).engine("sequential").run(stream)
        seqs = [ce.constituent_seqs for ce in result.complex_events]
        # w0 consumes (0,1); w1 = [4..11] builds (4,5); w2 = [8..] nothing
        assert seqs == [(0, 1), (4, 5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_q3("S0000", ["S0000"], 10, 10)
        with pytest.raises(ValueError):
            make_q3("S0000", [], 10, 10)

    def test_delta_max(self):
        assert self._query(n=5).delta_max == 6
