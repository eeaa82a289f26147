"""Unit tests for the query→kernel compilation layer.

Covers: fused predicate codegen (including the missing-attribute
semantics), the query plan (kind codes, δ suffix sums, relevant-type
set, first-element check), the ingestion-time event classifier, the
splitter's front-scan close path, the batch ``push_many`` surface, and
the missing-attribute regression through ``pipeline()`` and the hub.
"""

import random

import pytest

from repro.events import make_event
from repro.hub import StreamHub
from repro.matching import NFADetector
from repro.matching.kernel import (
    KIND_ATOM,
    KIND_KLEENE,
    KIND_SET,
    EventClassifier,
    build_plan,
    classifier_for,
    compile_atom_matcher,
    compile_query,
    compile_spec_matcher,
)
from repro.patterns import (
    Atom,
    ConsumptionPolicy,
    KleenePlus,
    Negation,
    SetPattern,
    make_query,
)
from repro.patterns.ast import sequence
from repro.patterns.parser import parse_query
from repro.patterns.predicates import (
    all_of,
    any_of,
    attr_between,
    attr_compare,
    cross_compare,
    negate,
    self_compare,
    true_predicate,
)
from repro.queries import make_q1
from repro.streaming.builder import build_engine, pipeline
from repro.windows import Splitter, WindowSpec


def ev(seq, etype, **attrs):
    return make_event(seq, etype, **attrs)


PREDICATE_CASES = [
    ("attr_compare hit", attr_compare("v", ">", 5), ev(0, "A", v=9), True),
    ("attr_compare miss", attr_compare("v", ">", 5), ev(0, "A", v=3), False),
    ("attr_compare absent", attr_compare("v", ">", 5), ev(0, "A"), False),
    ("attr_compare null value", attr_compare("v", ">", 5),
     ev(0, "A", v=None), False),
    ("negate on null matches", negate(attr_compare("v", ">", 5)),
     ev(0, "A", v=None), True),
    ("attr_between null value", attr_between("v", 2, 8),
     ev(0, "A", v=None), False),
    ("self_compare null lhs", self_compare("a", "<", "b"),
     ev(0, "A", a=None, b=2), False),
    ("attr_between", attr_between("v", 2, 8), ev(0, "A", v=5), True),
    ("attr_between absent", attr_between("v", 2, 8), ev(0, "A"), False),
    ("self_compare", self_compare("a", "<", "b"), ev(0, "A", a=1, b=2), True),
    ("self_compare absent rhs", self_compare("a", "<", "b"),
     ev(0, "A", a=1), False),
    ("negate on absent matches", negate(attr_compare("v", ">", 5)),
     ev(0, "A"), True),
    ("any_of", any_of(attr_compare("v", ">", 8), attr_compare("v", "<", 2)),
     ev(0, "A", v=1), True),
    ("all_of", all_of(attr_compare("v", ">", 2), attr_compare("v", "<", 8)),
     ev(0, "A", v=5), True),
    ("true_predicate", true_predicate, ev(0, "A"), True),
]


class TestFusedKernels:
    @pytest.mark.parametrize("label,predicate,event,expected",
                             [(c[0], c[1], c[2], c[3])
                              for c in PREDICATE_CASES])
    def test_codegen_matches_interpreted(self, label, predicate, event,
                                         expected):
        atom = Atom("X", etype=None, predicate=predicate)
        fused = compile_atom_matcher(atom, compiled=True)
        assert fused(event, {}) is expected
        assert atom.matches(event, {}) is expected

    def test_etype_constant_folded(self):
        atom = Atom("X", etype="A", predicate=attr_compare("v", ">", 5))
        fused = compile_atom_matcher(atom, compiled=True)
        assert fused(ev(0, "A", v=9), {})
        assert not fused(ev(0, "B", v=9), {})

    def test_cross_compare_bound_event(self):
        atom = Atom("X", etype=None,
                    predicate=cross_compare("v", ">", "A", "v"))
        fused = compile_atom_matcher(atom, compiled=True)
        bound = ev(0, "A", v=5)
        assert fused(ev(1, "B", v=9), {"A": bound})
        assert not fused(ev(1, "B", v=3), {"A": bound})
        assert not fused(ev(1, "B", v=9), {})            # unbound ref
        assert not fused(ev(1, "B"), {"A": bound})       # own attr absent
        assert not fused(ev(1, "B", v=9), {"A": ev(0, "A")})  # theirs absent

    def test_cross_compare_kleene_uses_most_recent(self):
        atom = Atom("X", etype=None,
                    predicate=cross_compare("v", ">", "B", "v"))
        fused = compile_atom_matcher(atom, compiled=True)
        bound = [ev(0, "B", v=1), ev(1, "B", v=7)]
        assert not fused(ev(2, "C", v=5), {"B": bound})
        assert fused(ev(2, "C", v=9), {"B": bound})

    def test_opaque_lambda_falls_back_to_interpreted(self):
        atom = Atom("X", etype="A", predicate=lambda e, b: e.get("v") == 1)
        matcher = compile_atom_matcher(atom, compiled=True)
        assert matcher == atom.matches
        assert matcher(ev(0, "A", v=1), {})

    def test_kernel_source_attached(self):
        atom = Atom("X", etype="A", predicate=attr_compare("v", ">", 5))
        fused = compile_atom_matcher(atom, compiled=True)
        assert "def _kernel" in fused.__kernel_source__

    def test_parser_or_and_grouping(self):
        query = parse_query(
            "PATTERN (A B)\n"
            "DEFINE A AS (A.v > hi OR (A.v > lo AND A.w = 1)),\n"
            "       B AS (B.v >= A.v)\n"
            "WITHIN 10 events FROM every 5 events",
            params={"hi": 10, "lo": 5})
        matcher = query.plan.elements[0].matcher
        assert matcher(ev(0, "x", v=11), {})
        assert matcher(ev(0, "x", v=7, w=1), {})
        assert not matcher(ev(0, "x", v=7, w=2), {})
        assert not matcher(ev(0, "x"), {})  # missing attribute: non-match

    def test_unknown_spec_node_rejected(self):
        with pytest.raises(ValueError):
            compile_spec_matcher(("xor", ()), None)


class TestMissingAttributeRegression:
    """One event without a referenced attribute must not kill a session
    (it is a clean non-match) — through the parser, ``pipeline()`` and
    the multi-query hub, on both predicate paths."""

    TEXT = ("PATTERN (A B)\n"
            "DEFINE A AS (A.price > 10), B AS (B.price > A.price)\n"
            "WITHIN 6 events FROM every 3 events")

    def events(self):
        return [ev(0, "q", price=11), ev(1, "q"),  # <- no price attribute
                ev(2, "q", price=12), ev(3, "q", price=None),  # JSON null
                ev(4, "q", price=13), ev(5, "q", price=9)]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_interpreted_and_compiled_survive(self, compiled):
        query = parse_query(self.TEXT, compile=compiled)
        result = pipeline(query).engine("sequential").run(self.events())
        assert [tuple(e.seq for e in ce.constituents)
                for ce in result.complex_events] == [(0, 2)]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_streaming_push_survives(self, compiled):
        query = parse_query(self.TEXT, compile=compiled)
        session = pipeline(query).engine("spectre", k=2).open()
        matches = []
        for event in self.events():
            matches.extend(session.push(event))
        matches.extend(session.close())
        assert len(matches) == 1

    def test_hub_attachment_survives(self):
        with StreamHub() as hub:
            attachment = hub.attach(self.TEXT, name="bands")
            for event in self.events():
                hub.push(event)
        assert len(list(attachment)) == 1


class TestQueryPlan:
    def pattern(self):
        return sequence(
            Atom("A", etype="A"),
            Negation(Atom("N", etype="N")),
            KleenePlus(Atom("B", etype="B")),
            SetPattern((Atom("X", etype="X"), Atom("Y", etype="Y"))))

    def test_kind_codes_and_suffix(self):
        plan = build_plan(self.pattern(), compiled=True)
        assert [e.kind for e in plan.elements] == \
            [KIND_ATOM, KIND_KLEENE, KIND_SET]
        assert plan.suffix_mandatory == (3, 2, 0)
        assert plan.mandatory_total == 4
        assert len(plan.guards[1]) == 1  # N guards the Kleene position

    def test_relevant_types_include_guards(self):
        plan = build_plan(self.pattern(), compiled=True)
        assert plan.relevant_types == frozenset("ANBXY")

    def test_relevant_types_disabled_by_untyped_atom(self):
        plan = build_plan(sequence(
            Atom("A", etype="A"),
            Atom("B", etype=None, predicate=attr_compare("v", ">", 1))),
            compiled=True)
        assert plan.relevant_types is None

    def test_interpreted_plan_disables_prefilter(self):
        plan = build_plan(self.pattern(), compiled=False)
        assert plan.relevant_types is None
        assert not plan.compiled

    def test_first_accepts(self):
        plan = build_plan(self.pattern(), compiled=True)
        assert plan.first_accepts(ev(0, "A"))
        assert not plan.first_accepts(ev(0, "B"))
        set_first = build_plan(
            SetPattern((Atom("X", etype="X"), Atom("Y", etype="Y"))),
            compiled=True)
        assert set_first.first_accepts(ev(0, "Y"))

    def test_compile_query_returns_shared_plan(self):
        query = make_query("ab", sequence(Atom("A", etype="A"),
                                          Atom("B", etype="B")),
                           WindowSpec.count_sliding(6, 3))
        assert compile_query(query) is query.plan

    def test_compile_query_rejects_udf(self):
        with pytest.raises(ValueError):
            compile_query(make_q1(q=2, window_size=10,
                                  leading_symbols=["L0000"]))

    def test_detectors_share_the_query_plan(self):
        query = make_query("ab", sequence(Atom("A", etype="A"),
                                          Atom("B", etype="B")),
                           WindowSpec.count_sliding(6, 3))
        d1 = query.new_detector(ev(0, "A"))
        d2 = query.new_detector(ev(1, "A"))
        assert d1.plan is query.plan and d2.plan is query.plan


class TestEmptyFeedbackSingleton:
    def test_noop_events_share_one_empty_feedback(self):
        detector = NFADetector(sequence(Atom("A", etype="A"),
                                        Atom("B", etype="B")))
        first = detector.process(ev(0, "X"))
        second = detector.process(ev(1, "X"))
        assert first is second
        assert first.is_empty

    def test_prefiltered_type_returns_empty_without_detector_work(self):
        detector = NFADetector(sequence(Atom("A", etype="A"),
                                        Atom("B", etype="B")),
                               compile=True)
        assert detector.plan.relevant_types == frozenset("AB")
        assert detector.process(ev(0, "Z")).is_empty


class TestEventClassifier:
    def test_flags_and_trim(self):
        classifier = EventClassifier(frozenset("AB"))
        for i, etype in enumerate("AXBYA"):
            classifier.ingest(ev(i, etype))
        assert [classifier.relevant(i) for i in range(5)] == \
            [True, False, True, False, True]
        classifier.trim(3)
        assert classifier.retained == 2
        assert classifier.relevant(3) is False and classifier.relevant(4)
        with pytest.raises(IndexError):
            classifier.relevant(2)  # trimmed: loud, never a wrong flag

    def test_classifier_for(self):
        typed = make_query("ab", sequence(Atom("A", etype="A"),
                                          Atom("B", etype="B")),
                           WindowSpec.count_sliding(6, 3), compile=True)
        assert classifier_for(typed) is not None
        interpreted = make_query("ab", sequence(Atom("A", etype="A"),
                                                Atom("B", etype="B")),
                                 WindowSpec.count_sliding(6, 3),
                                 compile=False)
        assert classifier_for(interpreted) is None
        udf = make_q1(q=2, window_size=10, leading_symbols=["L0000"])
        assert classifier_for(udf) is None

    def test_splitter_feeds_classifier_and_trims_it(self):
        query = make_query("ab", sequence(Atom("A", etype="A"),
                                          Atom("B", etype="B")),
                           WindowSpec.count_sliding(4, 4),
                           consumption=ConsumptionPolicy.all(),
                           compile=True)
        session = build_engine(query, "sequential").open()
        for i in range(12):
            session.push(ev(i, "A" if i % 2 == 0 else "X"))
        splitter = session.splitter
        assert splitter.classifier is not None
        assert splitter.classifier.retained <= 8  # retired prefix dropped
        session.close()

    def test_prefilter_counted_in_sequential_result(self):
        query = make_query("ab", sequence(Atom("A", etype="A"),
                                          Atom("B", etype="B")),
                           WindowSpec.count_sliding(6, 3), compile=True)
        events = [ev(i, t) for i, t in enumerate("AXBXXAXB")]
        result = build_engine(query, "sequential").run(events)
        assert result.events_prefiltered > 0
        interpreted = make_query("ab", sequence(Atom("A", etype="A"),
                                                Atom("B", etype="B")),
                                 WindowSpec.count_sliding(6, 3),
                                 compile=False)
        baseline = build_engine(interpreted, "sequential").run(events)
        assert baseline.events_prefiltered == 0
        assert result.identities() == baseline.identities()


class TestSplitterFrontScan:
    def test_only_leading_expired_windows_close(self):
        splitter = Splitter(WindowSpec.count_sliding(4, 2))
        for i in range(10):
            splitter.ingest(ev(i, "A"))
        closed = splitter.drain_closed()
        assert [w.window_id for w in closed] == [0, 1, 2]
        assert all(w.is_closed for w in closed)
        assert len(splitter._open_windows) == 2  # started at 6 and 8
        splitter.finish()
        assert [w.window_id for w in splitter.drain_closed()] == [3, 4]

    def test_time_scope_front_scan(self):
        spec = WindowSpec.time_on(5.0, lambda event: True)
        splitter = Splitter(spec)
        for i in range(8):
            splitter.ingest(make_event(i, "A", timestamp=float(i)))
        # every event opens a window; windows strictly older than the
        # 5s scope have closed
        assert [w.window_id for w in splitter.drain_closed()] == [0, 1]
        assert len(splitter._open_windows) == 6


class TestPushMany:
    def query(self):
        return make_query(
            "abc", sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                            Atom("C", etype="C")),
            WindowSpec.count_sliding(12, 4),
            consumption=ConsumptionPolicy.all())

    def stream(self, n=300, seed=3):
        rng = random.Random(seed)
        return [ev(i, rng.choice("ABCX")) for i in range(n)]

    @pytest.mark.parametrize("name,options", [
        ("sequential", {}), ("trex", {}), ("spectre", {"k": 2})])
    def test_chunked_push_many_equals_push(self, name, options):
        events = self.stream()
        reference = build_engine(self.query(), name, **options).open()
        expected = [m for e in events for m in reference.push(e)]
        expected += reference.flush()
        reference.close()

        session = build_engine(self.query(), name, **options).open()
        got = []
        for offset in range(0, len(events), 50):
            got.extend(session.push_many(events[offset:offset + 50]))
        got.extend(session.flush())
        session.close()
        assert [m.identity() for m in got] == \
            [m.identity() for m in expected]
        assert session.events_pushed == len(events)

    def test_lazy_session_push_many_returns_nothing(self):
        session = build_engine(self.query(), "sequential").open(eager=False)
        assert session.push_many(self.stream(40)) == []
        assert len(session.flush()) > 0
        session.close()

    def test_pipeline_push_many_with_sorter_and_sink(self):
        events = self.stream()
        shuffled = events[:]
        # locally shuffle within slack distance
        shuffled[10], shuffled[11] = shuffled[11], shuffled[10]
        seen = []
        session = (pipeline(self.query()).engine("sequential")
                   .out_of_order(slack=5).sink(seen.append).open())
        session.push_many(shuffled)
        session.close()
        batch = pipeline(self.query()).engine("sequential").run(events)
        assert [m.identity() for m in seen] == batch.identities()

    def test_hub_push_many_matches_push(self):
        events = self.stream()
        one = StreamHub()
        a1 = one.attach(self.query(), engine="sequential")
        for event in events:
            one.push(event)
        one.close()
        two = StreamHub()
        a2 = two.attach(self.query(), engine="sequential")
        for offset in range(0, len(events), 64):
            two.push_many(events[offset:offset + 64])
        two.close()
        assert [m.identity() for m in a1.drain()] == \
            [m.identity() for m in a2.drain()]

    def test_hub_push_many_backpressure_is_lossless(self):
        from repro.hub import BackpressureError
        events = self.stream(400)
        hub = StreamHub(queue_size=2)
        attachment = hub.attach(self.query(), engine="sequential")
        with pytest.raises(BackpressureError):
            hub.push_many(events)
        drained = attachment.drain()
        assert len(drained) > 2  # over the bound, but nothing lost
        hub.close()

    def test_hub_push_many_keeps_raising_while_over_bound(self):
        """Like push(): a batch the sorter fully buffers (no release)
        must still re-raise while a queue is over its bound."""
        from repro.hub import BackpressureError
        hub = StreamHub(queue_size=1, slack=5.0)
        attachment = hub.attach(self.query(), engine="sequential")
        raised = False
        for event in self.stream(400):
            try:
                hub.push(event)
            except BackpressureError:
                raised = True
        assert raised and attachment._over_bound
        # timestamps equal to the last event: slack holds all of them,
        # the sorter releases nothing — the overrun must still signal
        tail = [make_event(400 + i, "X", timestamp=399.0)
                for i in range(3)]
        with pytest.raises(BackpressureError):
            hub.push_many(tail)
        attachment.drain()
        hub.abort()
