"""Differential suite: compiled kernels ≡ interpreted predicates.

The ``compile=False`` escape hatch exists exactly for this: the same
query is built twice — fused generated kernels + type prefiltering vs
the interpreted predicate chains — and both are run over the same
stream on every engine in the registry (plus the two baselines).
Complex events, the resolved consumption ledger and the window/group
counters must be identical.

Streams deliberately include noise types (prefilter exercise) and
events missing the predicate attribute (the missing-attribute-is-a-
non-match semantics must agree between both paths).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import make_event
from repro.patterns import (
    Atom,
    ConsumptionPolicy,
    KleenePlus,
    Negation,
    SelectionPolicy,
    SetPattern,
    make_query,
)
from repro.patterns.ast import sequence
from repro.patterns.predicates import (
    all_of,
    any_of,
    attr_compare,
    cross_compare,
    negate,
)
from repro.windows import WindowSpec
from tests.helpers import ENGINE_CASES, build_case

ALL_ENGINES = list(ENGINE_CASES)


def typed_atom(name, etype, mode, threshold, other=None):
    """A typed atom with a structured predicate selected by ``mode``."""
    if mode == 0:
        predicate = attr_compare("v", ">", threshold)
    elif mode == 1:
        predicate = negate(attr_compare("v", ">", threshold))
    elif mode == 2 and other is not None:
        predicate = cross_compare("v", ">=", other, "v")
    elif mode == 3:
        predicate = any_of(attr_compare("v", "<", threshold),
                           attr_compare("v", ">", 2 * threshold))
    else:
        predicate = all_of()
    return Atom(name, etype=etype, predicate=predicate)


def build_query(spec, compiled):
    """One deterministic query family parameterized by a Hypothesis
    draw: A (¬N)? B|B+ (C | SET(C D)) with structured predicates."""
    (a_mode, b_mode, c_mode, threshold, kleene, use_set, use_negation,
     selection, consume, window, slide) = spec
    elements = [typed_atom("A", "A", a_mode, threshold)]
    if use_negation:
        elements.append(Negation(Atom("N", etype="N")))
    b_atom = typed_atom("B", "B", b_mode, threshold, other="A")
    elements.append(KleenePlus(b_atom) if kleene else b_atom)
    if use_set:
        elements.append(SetPattern((
            typed_atom("C", "C", c_mode, threshold, other="B"),
            Atom("D", etype="D"))))
    else:
        elements.append(typed_atom("C", "C", c_mode, threshold, other="B"))
    consumption = {
        0: ConsumptionPolicy.none(),
        1: ConsumptionPolicy.all(),
        2: ConsumptionPolicy.selected("A", "C"),
    }[consume]
    return make_query(
        "parity", sequence(*elements), WindowSpec.count_sliding(window, slide),
        selection=selection, consumption=consumption,
        max_matches=None if selection is SelectionPolicy.EACH else 1,
        compile=compiled)


def build_stream(n, seed):
    rng = random.Random(seed)
    events = []
    for i in range(n):
        etype = rng.choice("AABBCCDNXYZ")
        roll = rng.random()
        if roll < 0.08:
            events.append(make_event(i, etype))  # no "v": missing attr
        elif roll < 0.14:
            events.append(make_event(i, etype, v=None))  # JSON null
        else:
            events.append(make_event(i, etype, v=rng.randint(0, 20)))
    return events


query_specs = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),  # modes
    st.integers(3, 12),                                       # threshold
    st.booleans(), st.booleans(), st.booleans(),              # kleene/set/neg
    st.sampled_from([SelectionPolicy.FIRST, SelectionPolicy.LAST,
                     SelectionPolicy.EACH]),
    st.integers(0, 2),                                        # consumption
    st.sampled_from([8, 12, 16]), st.sampled_from([3, 4, 8]))  # window/slide


def assert_parity(name, spec, events):
    compiled_engine = build_case(build_query(spec, True), name)
    interpreted_engine = build_case(build_query(spec, False), name)
    compiled_session = compiled_engine.open()
    interpreted_session = interpreted_engine.open()
    compiled_matches, interpreted_matches = [], []
    for event in events:
        compiled_matches.extend(compiled_session.push(event))
        interpreted_matches.extend(interpreted_session.push(event))
    compiled_matches.extend(compiled_session.flush())
    interpreted_matches.extend(interpreted_session.flush())
    assert [m.identity() for m in compiled_matches] == \
        [m.identity() for m in interpreted_matches]
    assert compiled_session.consumed_seqs() == \
        interpreted_session.consumed_seqs()
    compiled_result = compiled_session.result()
    interpreted_result = interpreted_session.result()
    for counter in ("windows", "groups_created", "groups_completed"):
        left = getattr(compiled_result, counter, None)
        right = getattr(interpreted_result, counter, None)
        assert left == right, counter
    compiled_session.close()
    interpreted_session.close()


class TestCompiledKernelParity:
    """Hypothesis-driven differential parity, engine by engine."""

    @pytest.mark.parametrize("name", ALL_ENGINES)
    @settings(max_examples=10, deadline=None)
    @given(spec=query_specs, seed=st.integers(0, 10_000),
           n=st.integers(60, 160))
    def test_engine_parity(self, name, spec, seed, n):
        assert_parity(name, spec, build_stream(n, seed))


class TestDeterministicRegressions:
    """Pinned draws covering the constructs the issue names explicitly:
    consumption, negation guards, SetPattern and LAST selection."""

    CASES = [
        # consumption + kleene
        (0, 0, 0, 5, True, False, False, SelectionPolicy.FIRST, 1, 12, 4),
        # negation guard active mid-pattern
        (4, 4, 4, 5, False, False, True, SelectionPolicy.FIRST, 1, 12, 4),
        # SetPattern with cross-binding member
        (0, 2, 2, 6, False, True, False, SelectionPolicy.FIRST, 2, 16, 8),
        # LAST selection with rebinds
        (4, 2, 0, 6, False, False, False, SelectionPolicy.LAST, 0, 12, 3),
        # EACH selection, unbounded matches, consume-all
        (3, 4, 3, 8, True, False, False, SelectionPolicy.EACH, 1, 12, 4),
    ]

    @pytest.mark.parametrize("name", ALL_ENGINES)
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_pinned_cases(self, name, case):
        assert_parity(name, self.CASES[case], build_stream(200, seed=case))
