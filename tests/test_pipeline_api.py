"""The fluent pipeline facade and the engine registry behind it.

``repro.pipeline(query).engine(...).out_of_order(...).sink(...)`` must
compose reordering, any engine and sinks without changing results; the
``ENGINES`` table of ``repro.streaming.builder`` is the one place engine
names live, read by the builder, the operator graph and the hub alike.
"""

import random

import pytest

from repro import Operator, SpectreConfig, StreamHub, pipeline
from repro.events import make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.sequential.engine import SequentialEngine
from repro.spectre.elasticity import ElasticityPolicy
from repro.spectre.engine import SpectreEngine
from repro.spectre.threaded import ThreadedSpectreEngine
from repro.streaming.builder import ENGINES, build_engine
from repro.streaming.session import drive
from repro.trex.engine import TRexEngine
from repro.windows import WindowSpec
from tests.helpers import ENGINE_CASES, build_case


def abc_query(window=10, slide=5):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                       Atom("C", etype="C"))
    return make_query("abc", pattern,
                      WindowSpec.count_sliding(window, slide),
                      consumption=ConsumptionPolicy.all())


def abc_stream(n=200, seed=41):
    rng = random.Random(seed)
    return [make_event(i, rng.choice("ABCX")) for i in range(n)]


class TestFluentBuilder:
    def test_run_matches_direct_engine(self):
        query, events = abc_query(), abc_stream()
        direct = SpectreEngine(query, SpectreConfig(k=4)).run(events)
        fluent = pipeline(query).engine("spectre", k=4).run(events)
        assert fluent.identities() == direct.identities()
        assert fluent.stats.windows_total == direct.stats.windows_total
        assert fluent.input_events == direct.input_events
        assert fluent.virtual_time == direct.virtual_time
        # SequentialResult is a plain dataclass: the whole result
        assert pipeline(query).engine("sequential").run(events) == \
            SequentialEngine(query).run(events)

    def test_builder_chains_and_is_reusable(self):
        query, events = abc_query(), abc_stream(80)
        builder = pipeline(query).engine("sequential")
        assert builder.run(events).identities() == \
            builder.run(events).identities()  # one engine per run

    def test_sinks_fire_per_validated_match(self):
        query, events = abc_query(6, 6), abc_stream(120)
        seen = []
        session = (pipeline(query).engine("spectre", k=2)
                   .sink(seen.append).open())
        returned = []
        for event in events:
            returned.extend(session.push(event))
        returned.extend(session.close())
        assert seen == returned
        assert seen  # workload produces matches

    def test_raising_sink_is_isolated_and_surfaces_on_flush(self):
        # a sink callback that raises must not corrupt or silently kill
        # the session: other sinks keep receiving matches, push never
        # raises, and the captured failures surface as one SinkError
        from repro.streaming import SinkError
        query, events = abc_query(6, 6), abc_stream(120)
        good, boom_calls = [], []

        def boom(match):
            boom_calls.append(match)
            raise ValueError("sink exploded")

        session = (pipeline(query).engine("spectre", k=2)
                   .sink(boom).sink(good.append).open())
        returned = []
        for event in events:
            returned.extend(session.push(event))  # no raise mid-stream
        assert session.sink_errors  # captured, inspectable
        with pytest.raises(SinkError) as info:
            session.flush()
        error = info.value
        assert good == returned + error.matches  # nothing starved
        assert boom_calls == good                # bad sink saw them all
        assert len(error.errors) == len(good)
        assert all(isinstance(exc, ValueError)
                   for _sink, _match, exc in error.errors)
        # the session itself is intact: flushed cleanly, closable
        assert session.is_flushed
        assert session.close() == []
        baseline = SequentialEngine(query).run(events)
        assert [ce.identity() for ce in good] == baseline.identities()

    def test_sink_errors_surface_on_close_when_flush_was_skipped(self):
        from repro.streaming import SinkError
        query = abc_query(50, 50)

        def boom(match):
            raise RuntimeError("down")

        session = pipeline(query).engine("sequential").sink(boom).open()
        for index, etype in enumerate("ABC"):
            session.push(make_event(index, etype))
        with pytest.raises(SinkError) as info:
            session.close()  # implicit flush delivers the only match
        assert len(info.value.errors) == 1
        assert len(info.value.matches) == 1  # the match is not lost
        assert session.is_closed

    def test_abort_never_raises_sink_errors(self):
        query = abc_query(6, 6)

        def boom(match):
            raise RuntimeError("down")

        session = pipeline(query).engine("sequential").sink(boom).open()
        for index in range(12):
            session.push(make_event(index, "ABC"[index % 3]))
        assert session.sink_errors
        session.abort()  # error path: must not raise on top
        assert session.is_closed

    def test_out_of_order_stage_repairs_shuffled_input(self):
        query = abc_query(8, 4)
        ordered = abc_stream(150, seed=5)
        # jitter arrival within a bounded horizon, keep timestamps intact
        rng = random.Random(9)
        shuffled = list(ordered)
        for i in range(0, len(shuffled) - 4, 4):
            window = shuffled[i:i + 4]
            rng.shuffle(window)
            shuffled[i:i + 4] = window
        expected = SequentialEngine(query).run(ordered)
        session = (pipeline(query).engine("spectre", k=2)
                   .out_of_order(slack=8).open())
        matches = []
        for event in shuffled:
            matches.extend(session.push(event))
        matches.extend(session.close())
        assert [ce.identity() for ce in matches] == expected.identities()
        assert session.late_events == 0

    def test_late_events_are_counted(self):
        query = abc_query(8, 4)
        session = (pipeline(query).engine("sequential")
                   .out_of_order(slack=1).open())
        session.push(make_event(5, "A", 50.0))
        session.push(make_event(6, "B", 60.0))  # releases up to 59
        session.push(make_event(0, "C", 1.0))   # hopelessly late
        assert session.late_events == 1
        session.close()

    def test_every_engine_alias_builds(self):
        query = abc_query()
        for name, cls in [
            ("sequential", SequentialEngine),
            ("trex", TRexEngine),
            ("spectre", SpectreEngine),
            ("threaded", ThreadedSpectreEngine),
        ]:
            assert type(build_engine(query, name, k=2)
                        if name not in ("sequential", "trex")
                        else build_engine(query, name)) is cls

    def test_builder_option_validation(self):
        query = abc_query()
        with pytest.raises(ValueError, match="unknown engine"):
            pipeline(query).engine("quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            build_engine(query, "quantum")
        with pytest.raises(ValueError, match="not both"):
            build_engine(query, "spectre", config=SpectreConfig(), k=2)
        # every option is a SpectreConfig field; there are no others
        for removed in ({"policy": ElasticityPolicy()}, {"workers": 2}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                build_engine(query, "spectre", **removed)

    def test_policy_fields_are_wired(self):
        policy = ElasticityPolicy(max_k=4, plateau_k=2)
        engine = build_engine(abc_query(), "spectre", k=2, elasticity=policy,
                              emission_threshold=0.42)
        assert type(engine) is SpectreEngine
        assert engine.config.elasticity is policy
        assert engine.config.emission_threshold == 0.42


class TestEngineRegistry:
    """``ENGINES`` is the one table of engine names: the builder, the
    operator graph and the hub accept exactly its keys, and every entry
    keeps the sequential identities on a consuming query."""

    @pytest.mark.parametrize("name", list(ENGINE_CASES))
    def test_every_entry_builds_opens_and_runs(self, name):
        """Every row, and the speculative row under each policy field."""
        query, events = abc_query(), abc_stream(150)
        expected = SequentialEngine(query).run(events).identities()
        assert expected  # the workload produces (consuming) matches
        engine_name, options = ENGINE_CASES[name]
        engine = build_case(query, name)
        assert type(engine) is ENGINES[engine_name].load()
        assert engine.run(events).identities() == expected
        with build_case(query, name).open() as session:
            streamed = drive(session, events)
        assert [ce.identity() for ce in streamed] == expected
        assert pipeline(query).engine(engine_name, **options) \
            .run(events).identities() == expected

    @pytest.mark.parametrize("name", list(ENGINE_CASES))
    def test_graph_and_hub_accept_the_same_names(self, name):
        query, events = abc_query(), abc_stream(150)
        expected = SequentialEngine(query).run(events).identities()
        engine_name, options = ENGINE_CASES[name]
        config = SpectreConfig(**options) if options else None
        operator = Operator("op", query, engine=engine_name, config=config)
        operator.process(events)
        assert [ce.identity() for ce in
                operator.last_report.complex_events] == expected
        with StreamHub() as hub:
            attachment = hub.attach(query, engine=engine_name, **options)
            hub.push_many(events)
        assert [ce.identity() for ce in attachment] == expected

    def test_unknown_name_is_one_error_listing_the_table(self):
        query = abc_query()
        for build in (lambda: build_engine(query, "quantum"),
                      lambda: pipeline(query).engine("quantum"),
                      lambda: Operator("op", query, engine="quantum"),
                      lambda: Operator("op", query).open(engine="quantum"),
                      lambda: StreamHub().attach(query, engine="quantum")):
            with pytest.raises(ValueError, match="unknown engine") as err:
                build()
            assert str(list(ENGINES)) in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("elasticity", ElasticityPolicy(max_k=4, plateau_k=2)),
        ("emission_threshold", 0.5)])
    def test_threaded_refuses_the_policy_fields(self, field, value):
        """The policies run in the virtual-time engine's splitter cycle
        only; the threaded runtime says so instead of ignoring them."""
        query = abc_query()
        for build in (
                lambda: build_engine(query, "threaded", k=2,
                                     **{field: value}),
                lambda: StreamHub().attach(query, engine="threaded", k=2,
                                           **{field: value})):
            with pytest.raises(ValueError, match="threaded engine"):
                build()

    @pytest.mark.parametrize("name", ["sharded", "elastic", "approximate"])
    @pytest.mark.parametrize("surface", ["build_engine", "pipeline",
                                         "operator", "hub"])
    def test_removed_engine_names_are_unknown(self, name, surface):
        """The three names folded into ``SpectreConfig`` (or deleted)
        are plain unknown names at every entry point."""
        query = abc_query()
        build = {
            "build_engine": lambda: build_engine(query, name),
            "pipeline": lambda: pipeline(query).engine(name),
            "operator": lambda: Operator("op", query, engine=name),
            "hub": lambda: StreamHub().attach(query, engine=name),
        }[surface]
        with pytest.raises(ValueError, match="unknown engine") as err:
            build()
        assert str(list(ENGINES)) in str(err.value)

    @pytest.mark.parametrize("name", ["spectre", "threaded"])
    @pytest.mark.parametrize("keyword, value", [
        ("policy", ElasticityPolicy()), ("workers", 2)])
    def test_engine_specific_keywords_are_refused_elsewhere(
            self, name, keyword, value):
        """The removed engine-specific keywords are no SpectreConfig
        field, so every speculative engine refuses them."""
        query = abc_query()
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_engine(query, name, k=2, **{keyword: value})
        with pytest.raises(TypeError, match="unexpected keyword"):
            StreamHub().attach(query, engine=name, k=2, **{keyword: value})
