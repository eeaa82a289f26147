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
from repro.spectre.approximate import ApproximateSpectreEngine
from repro.spectre.elasticity import ElasticityPolicy, ElasticSpectreEngine
from repro.spectre.engine import SpectreEngine
from repro.spectre.threaded import ThreadedSpectreEngine
from repro.runtime.sharding import ShardedSpectreEngine
from repro.streaming.builder import ENGINES, build_engine
from repro.streaming.session import drive
from repro.trex.engine import TRexEngine
from repro.windows import WindowSpec


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
            ("elastic", ElasticSpectreEngine),
            ("approximate", ApproximateSpectreEngine),
            ("sharded", ShardedSpectreEngine),
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
        with pytest.raises(ValueError, match="policy="):
            build_engine(query, "spectre", policy=ElasticityPolicy())
        with pytest.raises(ValueError, match="emission_threshold="):
            build_engine(query, "spectre", emission_threshold=0.5)
        with pytest.raises(ValueError, match="workers="):
            build_engine(query, "spectre", workers=2)
        with pytest.raises(ValueError, match="not both"):
            build_engine(query, "spectre", config=SpectreConfig(), k=2)

    def test_elastic_policy_defaults(self):
        query = abc_query()
        # with a budget: policy honours k (the CLI behavior)
        budgeted = build_engine(query, "elastic", k=4)
        assert budgeted.policy.max_k == 4
        # without options: the library default policy
        default = build_engine(query, "elastic")
        assert default.policy == ElasticityPolicy()

    def test_approximate_threshold_is_wired(self):
        engine = build_engine(abc_query(), "approximate", k=2,
                              emission_threshold=0.42)
        assert engine.emission_threshold == 0.42

    def test_sharded_workers_override(self):
        engine = build_engine(abc_query(), "sharded", k=2, workers=3)
        assert engine.workers == 3


class TestEngineRegistry:
    """``ENGINES`` is the one table of engine names: the builder, the
    operator graph and the hub accept exactly its keys, and every entry
    keeps the sequential identities on a consuming query."""

    @pytest.mark.parametrize("name", list(ENGINES))
    def test_every_entry_builds_opens_and_runs(self, name):
        query, events = abc_query(), abc_stream(150)
        expected = SequentialEngine(query).run(events).identities()
        assert expected  # the workload produces (consuming) matches
        engine = build_engine(query, name)
        assert type(engine) is ENGINES[name].load()
        assert engine.run(events).identities() == expected
        with build_engine(query, name).open() as session:
            streamed = drive(session, events)
        assert [ce.identity() for ce in streamed] == expected
        assert pipeline(query).engine(name).run(events).identities() == \
            expected

    @pytest.mark.parametrize("name", list(ENGINES))
    def test_graph_and_hub_accept_the_same_names(self, name):
        query, events = abc_query(), abc_stream(150)
        expected = SequentialEngine(query).run(events).identities()
        operator = Operator("op", query, engine=name)
        operator.process(events)
        assert [ce.identity() for ce in
                operator.last_report.complex_events] == expected
        with StreamHub() as hub:
            attachment = hub.attach(query, engine=name)
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

    @pytest.mark.parametrize("name", list(ENGINES))
    def test_engine_specific_keywords_are_refused_elsewhere(self, name):
        query = abc_query()
        values = {"policy": ElasticityPolicy(), "emission_threshold": 0.5,
                  "workers": 2}
        for keyword, value in values.items():
            if keyword == ENGINES[name].extra:
                build_engine(query, name, **{keyword: value})
                continue
            with pytest.raises(ValueError, match=f"{keyword}="):
                build_engine(query, name, **{keyword: value})
            with pytest.raises(ValueError, match=f"{keyword}="):
                StreamHub().attach(query, engine=name, **{keyword: value})
