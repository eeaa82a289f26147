"""Tests for the operator graph (chained DCEP operators)."""

import pytest

from repro.events import make_event
from repro.graph import GraphError, Operator, OperatorGraph
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.spectre.elasticity import ElasticityPolicy
from repro.windows import WindowSpec


def ab_query(name="ab", window=8, slide=8, a="A", b="B",
             consumption=None):
    pattern = sequence(Atom("A", etype=a), Atom("B", etype=b))
    return make_query(name, pattern,
                      WindowSpec.count_sliding(window, slide),
                      consumption=consumption or ConsumptionPolicy.all())


def stream(*types):
    return [make_event(i, t) for i, t in enumerate(types)]


class TestOperator:
    def test_process_produces_derived_events(self):
        operator = Operator("pairs", ab_query(), engine="sequential")
        output = operator.process(stream("A", "B", "X", "X", "X", "X",
                                         "X", "X"))
        assert len(output) == 1
        derived = output[0]
        assert derived.etype == "pairs"
        assert derived.attributes["source_operator"] == "pairs"
        assert derived.attributes["constituent_seqs"] == (0, 1)

    def test_derived_timestamp_is_completion_time(self):
        operator = Operator("pairs", ab_query(), engine="sequential")
        events = [make_event(0, "A", timestamp=5.0),
                  make_event(1, "B", timestamp=9.0)] + \
            [make_event(i, "X", timestamp=10.0 + i) for i in range(2, 8)]
        output = operator.process(events)
        assert output[0].timestamp == 9.0

    def test_engines_agree(self):
        events = stream("A", "B", "X", "A", "B", "X", "X", "X",
                        "A", "X", "B", "X", "X", "X", "X", "X")
        outputs = {}
        for engine in ("sequential", "spectre"):
            operator = Operator("pairs", ab_query(), engine=engine)
            outputs[engine] = [e.attributes["constituent_seqs"]
                               for e in operator.process(events)]
        assert outputs["sequential"] == outputs["spectre"]

    def test_report(self):
        operator = Operator("pairs", ab_query(), engine="sequential")
        operator.process(stream("A", "B"))
        report = operator.last_report
        assert report.input_events == 2
        assert len(report.complex_events) == 1
        assert report.engine == "sequential"

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            Operator("x", ab_query(), engine="quantum")


class TestOperatorGraph:
    def _two_stage(self):
        """quotes -> pairs(A,B) -> meta(pairs, C)."""
        graph = OperatorGraph()
        graph.add_source("quotes")
        graph.add_operator(Operator("pairs", ab_query(),
                                    engine="sequential"),
                           upstream=["quotes"])
        meta_query = ab_query(name="meta", a="pairs", b="C", window=20,
                              slide=20)
        graph.add_operator(Operator("meta", meta_query,
                                    engine="sequential"),
                           upstream=["pairs", "extra"])
        return graph

    def test_two_stage_detection(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        graph.add_source("extra")
        graph.add_operator(Operator("pairs", ab_query(),
                                    engine="sequential"),
                           upstream=["quotes"])
        meta_query = ab_query(name="meta", a="pairs", b="C", window=20,
                              slide=20)
        graph.add_operator(Operator("meta", meta_query,
                                    engine="sequential"),
                           upstream=["pairs", "extra"])
        quotes = [make_event(0, "A", timestamp=0.0),
                  make_event(1, "B", timestamp=1.0)] + \
            [make_event(i, "X", timestamp=float(i)) for i in range(2, 8)]
        extra = [make_event(0, "C", timestamp=50.0)]
        run = graph.run({"quotes": quotes, "extra": extra})
        assert len(run.of("pairs")) == 1
        assert len(run.of("meta")) == 1  # pairs event then the C

    def test_merge_keeps_global_order(self):
        graph = OperatorGraph()
        graph.add_source("left")
        graph.add_source("right")
        graph.add_operator(Operator("pairs", ab_query(window=4, slide=4),
                                    engine="sequential"),
                           upstream=["left", "right"])
        left = [make_event(0, "A", timestamp=1.0)]
        right = [make_event(0, "B", timestamp=2.0)]
        run = graph.run({"left": left, "right": right})
        assert len(run.of("pairs")) == 1

    def test_unknown_upstream_rejected(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        with pytest.raises(GraphError):
            graph.add_operator(Operator("pairs", ab_query(),
                                        engine="sequential"),
                               upstream=["nope"])

    def test_duplicate_names_rejected(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        with pytest.raises(ValueError):
            graph.add_source("quotes")
        graph.add_operator(Operator("pairs", ab_query(),
                                    engine="sequential"),
                           upstream=["quotes"])
        with pytest.raises(ValueError):
            graph.add_operator(Operator("pairs", ab_query(),
                                        engine="sequential"),
                               upstream=["quotes"])

    def test_missing_source_events(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        with pytest.raises(GraphError):
            graph.run({})

    def test_unknown_source_events(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        with pytest.raises(GraphError):
            graph.run({"quotes": [], "mystery": []})

    def test_run_of_unknown_node(self):
        graph = OperatorGraph()
        graph.add_source("quotes")
        run = graph.run({"quotes": []})
        with pytest.raises(GraphError):
            run.of("nope")


def _ab_stream(n_pairs=24, noise=4):
    """Repeating A B X... blocks: one pair per window of 8."""
    events = []
    seq = 0
    for _ in range(n_pairs):
        for etype in ("A", "B") + ("X",) * noise + ("X", "X"):
            events.append(make_event(seq, etype, timestamp=float(seq)))
            seq += 1
    return events


def _signature(run, node):
    return [e.attributes["constituent_seqs"] for e in run.of(node)]


def _two_stage_graph(engine="spectre", config=None):
    """stream → pairs(A,B) → meta(pairs, pairs): stepwise inference."""
    graph = OperatorGraph()
    graph.add_source("stream")
    graph.add_operator(Operator("pairs", ab_query(), engine=engine,
                                config=config),
                       upstream=["stream"])
    meta_query = ab_query(name="meta", a="pairs", b="pairs", window=4,
                          slide=4)
    graph.add_operator(Operator("meta", meta_query, engine=engine,
                                config=config),
                       upstream=["pairs"])
    return graph


class TestGraphOnSpeculativeRuntime:
    """The tentpole contract: whole pipelines run on the layered
    speculative runtime and stay sequential-identical, complex events
    of one operator re-entering the next as events."""

    def test_two_stage_pipeline_matches_sequential(self):
        from repro.spectre import SpectreConfig
        events = _ab_stream()
        reference = _two_stage_graph("sequential").run({"stream": events})
        run = _two_stage_graph(
            "spectre", SpectreConfig(k=4)).run({"stream": events})
        assert _signature(run, "pairs") == _signature(reference, "pairs")
        assert _signature(run, "meta") == _signature(reference, "meta")
        assert len(run.of("meta")) > 0  # stage 2 really fired

    def test_run_level_engine_override(self):
        from repro.spectre import SpectreConfig
        events = _ab_stream()
        graph = _two_stage_graph("sequential")
        reference = graph.run({"stream": events})
        overridden = graph.run({"stream": events}, engine="spectre",
                               config=SpectreConfig(k=2))
        assert _signature(overridden, "meta") == \
            _signature(reference, "meta")
        assert graph.operators["pairs"].last_report.engine == "spectre"

    # ids as at the seed, when these two policies were engines of their own
    @pytest.mark.parametrize("policy", [
        {"elasticity": ElasticityPolicy(max_k=2, plateau_k=2)},
        {"emission_threshold": 0.9}],
        ids=["spectre-elastic", "spectre-approximate"])
    def test_variant_engines_in_graph(self, policy):
        from repro.spectre import SpectreConfig
        events = _ab_stream(n_pairs=12)
        reference = _two_stage_graph("sequential").run({"stream": events})
        run = _two_stage_graph(
            "spectre", SpectreConfig(k=2, **policy)).run({"stream": events})
        assert _signature(run, "meta") == _signature(reference, "meta")

    @pytest.mark.parametrize("scheduler", ["topk", "fifo", "roundrobin"])
    def test_pipeline_under_every_scheduler(self, scheduler):
        from repro.spectre import SpectreConfig
        events = _ab_stream(n_pairs=16)
        reference = _two_stage_graph("sequential").run({"stream": events})
        config = SpectreConfig(k=4, scheduler=scheduler)
        run = _two_stage_graph("spectre", config).run({"stream": events})
        assert _signature(run, "pairs") == _signature(reference, "pairs")
        assert _signature(run, "meta") == _signature(reference, "meta")

    def test_invalid_override_engine_rejected(self):
        graph = _two_stage_graph("sequential")
        with pytest.raises(ValueError):
            graph.run({"stream": _ab_stream(n_pairs=2)}, engine="quantum")
