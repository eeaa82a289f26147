"""Property test: render → parse round-trip of the query notation."""

from hypothesis import given, settings, strategies as st

from repro.patterns import (
    Atom,
    ConsumptionPolicy,
    KleenePlus,
    Negation,
    Sequence,
    SetPattern,
    parse_query,
)
from repro.patterns.parser import render_query_text
from repro.windows.specs import WindowSpec

names = st.sampled_from([f"T{i}" for i in range(12)])


@st.composite
def type_patterns(draw):
    """Random type-based patterns with unique symbol names."""
    # worst case pops 5 elements x 3 set members = 15 symbols
    pool = draw(st.permutations([f"T{i}" for i in range(15)]))
    pool = list(pool)
    count = draw(st.integers(min_value=1, max_value=5))
    elements = []
    first = True
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["atom", "kleene", "set"] + ([] if first else ["negation"])))
        if kind == "set":
            size = draw(st.integers(min_value=1, max_value=3))
            members = tuple(Atom(pool.pop(), etype=None) for _ in range(size))
            members = tuple(Atom(m.name, etype=m.name) for m in members)
            elements.append(SetPattern(members))
        else:
            name = pool.pop()
            atom = Atom(name, etype=name)
            if kind == "atom":
                elements.append(atom)
            elif kind == "kleene":
                elements.append(KleenePlus(atom))
            else:
                elements.append(Negation(atom))
        first = False
    if all(isinstance(e, Negation) for e in elements):
        name = pool.pop()
        elements.append(Atom(name, etype=name))
    if isinstance(elements[-1], Negation):
        name = pool.pop()
        elements.append(Atom(name, etype=name))
    return Sequence(tuple(elements))


def _structure(sequence: Sequence):
    out = []
    for element in sequence.elements:
        if isinstance(element, Atom):
            out.append(("atom", element.name))
        elif isinstance(element, KleenePlus):
            out.append(("kleene", element.name))
        elif isinstance(element, Negation):
            out.append(("negation", element.name))
        else:
            out.append(("set", tuple(a.name for a in element.atoms)))
    return out


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(pattern=type_patterns(),
           size=st.integers(min_value=1, max_value=500),
           slide=st.integers(min_value=1, max_value=100),
           cp_kind=st.sampled_from(["none", "all", "selected"]))
    def test_render_parse_roundtrip(self, pattern, size, slide, cp_kind):
        if cp_kind == "none":
            consumption = ConsumptionPolicy.none()
        elif cp_kind == "all":
            consumption = ConsumptionPolicy.all()
        else:
            candidates = [e.name for e in pattern.elements
                          if not isinstance(e, (Negation, SetPattern))]
            if not candidates:
                consumption = ConsumptionPolicy.all()
            else:
                consumption = ConsumptionPolicy.selected(candidates[0])
        window = WindowSpec.count_sliding(size, slide)
        text = render_query_text(pattern, window, consumption)
        query = parse_query(text, name="roundtrip")

        # reparse the description (the parser stores it) to compare the
        # structure of what was built
        assert query.window.scope.size == size
        assert query.window.start.slide == slide
        assert query.consumption.is_all == consumption.is_all
        assert query.consumption.is_none == consumption.is_none
        if not consumption.is_all and not consumption.is_none:
            assert query.consumption.positions == consumption.positions
        # delta_max is structure-derived: must survive the round trip
        assert query.delta_max == pattern.mandatory_count()

    def test_rendering_rejects_predicate_atoms(self):
        import pytest
        pattern = Sequence((Atom("A", etype=None,
                                 predicate=lambda e, b: True),))
        with pytest.raises(ValueError):
            render_query_text(pattern, WindowSpec.count_sliding(10, 5))

    def test_rendering_rejects_time_windows(self):
        import pytest
        pattern = Sequence((Atom("A", etype="A"),))
        with pytest.raises(ValueError):
            render_query_text(pattern,
                              WindowSpec.time_on(5.0, lambda e: True))

    def test_rendered_text_parses_to_running_query(self):
        from repro.events import make_event
        from repro.streaming.builder import pipeline
        pattern = Sequence((Atom("A", etype="A"),
                            KleenePlus(Atom("B", etype="B")),
                            Atom("C", etype="C")))
        text = render_query_text(pattern, WindowSpec.count_sliding(10, 10),
                                 ConsumptionPolicy.all())
        query = parse_query(text)
        stream = [make_event(0, "A"), make_event(1, "B"),
                  make_event(2, "C")] + \
            [make_event(i, "X") for i in range(3, 10)]
        result = pipeline(query).engine("sequential").run(stream)
        assert len(result.complex_events) == 1
