"""End-to-end integration tests crossing module boundaries.

These exercise realistic full paths: CSV persistence → slack reordering →
query language → engines → operator graph, in combinations the unit
tests do not cover.
"""

import numpy as np
import pytest

from repro import (
    Operator,
    OperatorGraph,
    SpectreConfig,
    parse_query,
    pipeline,
)
from repro.datasets import (
    generate_nyse,
    leading_symbols,
    load_events_csv,
    save_events_csv,
)
from repro.events import Event, SlackSorter, validate_order
from repro.queries import make_q1


class TestCsvEngineRoundTrip:
    def test_persisted_stream_same_results(self, tmp_path):
        events = generate_nyse(1500, n_symbols=40, n_leading=2, seed=5)
        query = make_q1(q=6, window_size=200,
                        leading_symbols=leading_symbols(2))
        direct = pipeline(query).engine("sequential").run(events)

        path = tmp_path / "events.csv"
        save_events_csv(events, path)
        loaded = load_events_csv(path)
        restored = pipeline(query).engine("sequential").run(loaded)
        assert restored.identities() == direct.identities()


class TestOutOfOrderToSpectre:
    def test_shuffled_stream_recovers_exact_output(self):
        events = generate_nyse(800, n_symbols=30, n_leading=2, seed=9)
        query = make_q1(q=4, window_size=150,
                        leading_symbols=leading_symbols(2))
        expected = pipeline(query).engine("sequential") \
            .run(events).identities()

        # perturb arrival order within a bounded disorder window
        rng = np.random.default_rng(3)
        disordered = list(events)
        for index in range(0, len(disordered) - 3, 4):
            if rng.random() < 0.5:
                disordered[index], disordered[index + 2] = \
                    disordered[index + 2], disordered[index]
        assert not validate_order(disordered)

        max_lateness = max(
            abs(e.timestamp - events[i].timestamp)
            for i, e in enumerate(disordered))
        sorter = SlackSorter(slack=max_lateness + 1.0)
        restored = list(sorter.sort(disordered))
        assert validate_order(restored)
        assert sorter.late_events == 0

        result = pipeline(query).engine("spectre", k=4).run(restored)
        assert result.identities() == expected


class TestQueryLanguageToGraph:
    def test_parsed_query_in_operator_graph(self):
        text = """
        PATTERN (A B)
        WITHIN 10 events FROM every 5 events
        CONSUME ALL
        """
        stage1 = parse_query(text, name="stage1")
        stage2_text = """
        PATTERN (pairs pairs2)
        WITHIN 20 events FROM every 20 events
        """
        # stage 2 consumes two derived events in sequence; rename the
        # second symbol via type-based atoms
        from repro.patterns import Atom, make_query
        from repro.patterns.ast import sequence
        from repro.windows import WindowSpec
        stage2 = make_query(
            "stage2",
            sequence(Atom("P1", etype="pairs"), Atom("P2", etype="pairs")),
            WindowSpec.count_sliding(20, 20))

        graph = OperatorGraph()
        graph.add_source("input")
        graph.add_operator(Operator("pairs", stage1, engine="spectre",
                                    config=SpectreConfig(k=2)),
                           upstream=["input"])
        graph.add_operator(Operator("stage2", stage2, engine="sequential"),
                           upstream=["pairs"])

        stream = []
        for i in range(40):
            etype = "A" if i % 5 == 0 else ("B" if i % 5 == 1 else "X")
            stream.append(Event(seq=i, etype=etype, timestamp=float(i)))
        run = graph.run({"input": stream})
        assert len(run.of("pairs")) >= 2
        assert len(run.of("stage2")) >= 1


class TestAllEnginesAgreeOnParsedQuery:
    @pytest.mark.parametrize("k", [1, 4])
    def test_band_query(self, k):
        from repro.datasets import generate_price_walk
        text = """
        PATTERN (A B+ C)
        DEFINE A AS (A.closePrice < 40),
               B AS (B.closePrice > 40 AND B.closePrice < 60),
               C AS (C.closePrice > 60)
        WITHIN 150 events FROM every 50 events
        CONSUME (A B+ C)
        """
        query = parse_query(text, name="band")
        events = generate_price_walk(2000, step_scale=4.0, reversion=0.1,
                                     seed=31)
        sequential = pipeline(query).engine("sequential").run(events)
        spectre = pipeline(query).engine("spectre", k=k).run(events)
        assert spectre.identities() == sequential.identities()
