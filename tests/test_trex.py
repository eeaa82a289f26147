"""Tests for the T-REX baseline engine (Sec. 4.2.3 comparison)."""

import pytest

from repro.datasets import generate_nyse, generate_rand, leading_symbols
from repro.queries import make_q1, make_q3
from repro.streaming.builder import pipeline
from repro.trex import q1_ast_query, q3_ast_query
from repro.trex.automaton import compile_detector


class TestQ1Ast:
    @pytest.fixture(scope="class")
    def nyse(self):
        return generate_nyse(1200, n_symbols=40, n_leading=2, seed=19)

    def test_matches_udf_query_output(self, nyse):
        leaders = leading_symbols(2)
        udf_query = make_q1(q=6, window_size=200, leading_symbols=leaders)
        ast_query = q1_ast_query(q=6, window_size=200,
                                 leading_symbols=leaders)
        udf_result = pipeline(udf_query).engine("sequential").run(nyse)
        trex_result = pipeline(ast_query).engine("trex").run(nyse)
        udf_seqs = [ce.constituent_seqs for ce in udf_result.complex_events]
        trex_seqs = [ce.constituent_seqs for ce in trex_result.complex_events]
        assert udf_seqs == trex_seqs

    def test_wall_clock_measured(self, nyse):
        query = q1_ast_query(q=6, window_size=200,
                             leading_symbols=leading_symbols(2))
        result = pipeline(query).engine("trex").run(nyse)
        assert result.wall_seconds > 0
        assert result.events_per_second > 0
        assert result.input_events == len(nyse)


class TestQ3Ast:
    def test_matches_udf_query_output(self):
        rand = generate_rand(1500, n_symbols=30, seed=29)
        members = ["S0001", "S0002", "S0003"]
        udf_query = make_q3("S0000", members, window_size=150, slide=50)
        ast_query = q3_ast_query("S0000", members, window_size=150, slide=50)
        udf_seqs = [ce.constituent_seqs for ce in
                    pipeline(udf_query).engine("sequential")
                        .run(rand).complex_events]
        trex_seqs = [ce.constituent_seqs for ce in
                     pipeline(ast_query).engine("trex")
                         .run(rand).complex_events]
        assert udf_seqs == trex_seqs


class TestCompileDetector:
    def test_rejects_udf_queries(self):
        query = make_q1(q=3, window_size=100,
                        leading_symbols=leading_symbols(1))
        from repro.events import make_event
        with pytest.raises(TypeError):
            compile_detector(query, make_event(0, "quote"))

    def test_builds_nfa_for_ast_queries(self):
        query = q1_ast_query(q=3, window_size=100,
                             leading_symbols=["L0000"])
        from repro.events import make_event
        from repro.matching import NFADetector
        detector = compile_detector(query, make_event(0, "quote"))
        assert isinstance(detector, NFADetector)
