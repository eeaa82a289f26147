"""Reproductions of the paper's worked examples.

Fig. 1: query QE over the stream A1 A2 B1 B2 B3.

* Fig. 1(a), consumption policy *none*: five complex events
  A1B1, A1B2, A2B1, A2B2, A2B3.
* Fig. 1(b), consumption policy *selected B*: three complex events
  A1B1, A1B2, A2B3 — "B1 and B2 are not re-used after being correlated
  with A1 in the first window w1".
"""

import pytest

from repro.events import make_event
from repro.queries import make_qe
from repro.streaming.builder import pipeline
from repro.spectre import SpectreConfig, SpectreEngine


@pytest.fixture
def figure1_stream():
    """A1 A2 B1 B2 B3 with timings such that w1 = [A1..B2] (1 minute)
    and w2 = [A2..B3], matching Fig. 1's window contents."""
    return [
        make_event(0, "A", timestamp=0.0, change=2.0),    # A1 opens w1
        make_event(1, "A", timestamp=20.0, change=4.0),   # A2 opens w2
        make_event(2, "B", timestamp=30.0, change=6.0),   # B1
        make_event(3, "B", timestamp=40.0, change=8.0),   # B2
        make_event(4, "B", timestamp=70.0, change=3.0),   # B3 (outside w1)
    ]


def names(result):
    return [ce.constituent_seqs for ce in result.complex_events]


class TestFigure1Sequential:
    def test_cp_none_five_events(self, figure1_stream):
        result = pipeline(make_qe("none")).engine("sequential") \
            .run(figure1_stream)
        assert names(result) == [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]

    def test_cp_selected_b_three_events(self, figure1_stream):
        result = pipeline(make_qe("selected-b")).engine("sequential") \
            .run(figure1_stream)
        assert names(result) == [(0, 2), (0, 3), (1, 4)]

    def test_factor_attribute(self, figure1_stream):
        result = pipeline(make_qe("selected-b")).engine("sequential") \
            .run(figure1_stream)
        # Factor = B:change / A:change; first event pairs A1 (2.0), B1 (6.0)
        assert result.complex_events[0].attributes["Factor"] == \
            pytest.approx(3.0)

    def test_cp_all_consumes_the_a_too(self, figure1_stream):
        # consuming A as well stops w1 after its first correlation only in
        # *other* windows; within w1 the anchor stays bound, so w1 still
        # emits both pairs, but w2's A2 is untouched and B3 remains
        result = pipeline(make_qe("all")).engine("sequential") \
            .run(figure1_stream)
        assert (1, 4) in names(result)


class TestFigure1Spectre:
    @pytest.mark.parametrize("cp", ["none", "selected-b", "all"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_equivalence(self, figure1_stream, cp, k):
        query = make_qe(cp)
        expected = pipeline(query).engine("sequential") \
            .run(figure1_stream).identities()
        result = SpectreEngine(query, SpectreConfig(k=k)).run(figure1_stream)
        assert result.identities() == expected


class TestSection21Example:
    def test_consumption_dependency_between_windows(self):
        """Sec. 2.3: consuming B1/B2 in w1 must remove them from w2."""
        stream = [
            make_event(0, "A", timestamp=0.0, change=1.0),
            make_event(1, "A", timestamp=1.0, change=1.0),
            make_event(2, "B", timestamp=2.0, change=1.0),
            make_event(3, "B", timestamp=3.0, change=1.0),
        ]
        result = pipeline(make_qe("selected-b")).engine("sequential") \
            .run(stream)
        # w1 takes both Bs; w2 gets nothing
        assert names(result) == [(0, 2), (0, 3)]
