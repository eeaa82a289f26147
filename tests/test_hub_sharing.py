"""Differential tests for the hub's cross-query optimizer.

The optimizer (type-indexed routing, kernel interning, shared NFA
prefix evaluation — :mod:`repro.hub.optimizer`) must be invisible:
per attachment, a sharing hub emits exactly what the same query
produces alone through ``pipeline()``, and exactly what a ``share=
False`` hub produces under any attach/detach schedule.  Hypothesis
drives randomized query families (common prefixes, disjoint and
overlapping relevant types, CONSUME queries that must opt out) over
randomized streams, on both the compiled and the interpreted predicate
paths.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.events.event import Event
from repro.hub import RoutingIndex, StreamHub, share_enabled
from repro.patterns.parser import parse_query
from repro.streaming.builder import pipeline

# -- query family -----------------------------------------------------------
#
# Band queries share DEFINE bodies drawn from small pools, so random
# pairs share NFA prefixes of length 0, 1, 2 or 3 (identical queries);
# typed queries bind by event type, giving disjoint/overlapping
# relevant-type sets.  CONSUME variants must fall off the shared path.

A_DEFS = ("(A.price < 0.3)", "(A.price < 0.7)")
B_DEFS = ("(B.price > 0.2)", "(B.price < 0.9)")
C_CUTS = ("0.25", "0.5", "0.75")
WINDOWS = ((4, 2), (6, 3), (10, 5))  # (WITHIN, FROM every) in events
N_TYPES = 4  # event-type alphabet t0..t3


def _make_query(index, spec, compiled):
    kind, payload = spec
    if kind == "band":
        a, b, c, (within, every), consume = payload
        text = ("PATTERN (A B+ C)\n"
                "DEFINE\n"
                f"    A AS {A_DEFS[a]},\n"
                f"    B AS {B_DEFS[b]},\n"
                f"    C AS (C.price >= {C_CUTS[c]})\n"
                f"WITHIN {within} events FROM every {every} events\n")
        if consume:
            text += "CONSUME (A B+ C)\n"
    elif kind == "typed-count":
        first, second, (within, every) = payload
        text = (f"PATTERN (t{first} t{second}+)\n"
                f"WITHIN {within} events FROM every {every} events\n")
    else:  # typed-time: OnPredicate + TimeScope → routing-index path
        first, second, duration = payload
        text = (f"PATTERN (t{first} t{second}+)\n"
                f"WITHIN {duration} seconds FROM t{first}\n")
    return parse_query(text, name=f"q{index}", compile=compiled)


_band_specs = st.tuples(
    st.integers(0, len(A_DEFS) - 1), st.integers(0, len(B_DEFS) - 1),
    st.integers(0, len(C_CUTS) - 1), st.sampled_from(WINDOWS),
    st.booleans())
_type_pairs = st.tuples(
    st.integers(0, N_TYPES - 1),
    st.integers(0, N_TYPES - 1)).filter(lambda pair: pair[0] != pair[1])
_typed_count_specs = st.tuples(_type_pairs, st.sampled_from(WINDOWS)) \
    .map(lambda drawn: (*drawn[0], drawn[1]))
_typed_time_specs = st.tuples(_type_pairs, st.sampled_from((3, 5, 9))) \
    .map(lambda drawn: (*drawn[0], drawn[1]))

query_specs = st.one_of(
    st.tuples(st.just("band"), _band_specs),
    st.tuples(st.just("typed-count"), _typed_count_specs),
    st.tuples(st.just("typed-time"), _typed_time_specs))

event_rows = st.lists(
    st.tuples(st.integers(0, N_TYPES - 1), st.integers(0, 99)),
    max_size=120)


def _build_events(rows):
    return [Event(seq=index, etype=f"t{etype}", timestamp=float(index),
                  attributes={"price": price / 100})
            for index, (etype, price) in enumerate(rows)]


def _run_alone(query, events):
    session = pipeline(query).engine("sequential").open()
    matches = []
    for event in events:
        matches.extend(session.push(event))
    matches.extend(session.flush())
    session.close()
    return [ce.identity() for ce in matches]


def _run_hub(queries, events, share, chunk=0):
    collectors = [[] for _ in queries]
    hub = StreamHub(share=share)
    for query, collector in zip(queries, collectors):
        hub.attach(query, engine="sequential", sink=collector.append)
    if chunk:
        for start in range(0, len(events), chunk):
            hub.push_many(events[start:start + chunk])
    else:
        for event in events:
            hub.push(event)
    hub.close()
    return [[ce.identity() for ce in collector]
            for collector in collectors], hub


def _assert_routing_consistent(hub):
    """The incrementally maintained index must equal a from-scratch
    rebuild over the live attachments, after every attach/detach."""
    entries = [(a.name, a._routed_types) for a in hub.attachments]
    assert hub._routing.snapshot() == \
        RoutingIndex.rebuild(entries).snapshot()


# -- hub ≡ independent runs -------------------------------------------------


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(query_specs, min_size=1, max_size=4),
       rows=event_rows, compiled=st.booleans())
def test_hub_matches_independent_runs(specs, rows, compiled):
    queries = [_make_query(i, spec, compiled)
               for i, spec in enumerate(specs)]
    events = _build_events(rows)
    expected = [_run_alone(query, events) for query in queries]
    shared, hub = _run_hub(queries, events, share=True)
    assert shared == expected
    _assert_routing_consistent(hub)
    unshared, _hub = _run_hub(queries, events, share=False)
    assert unshared == expected


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(query_specs, min_size=1, max_size=3),
       rows=event_rows, chunk=st.integers(1, 40))
def test_push_many_chunks_match_per_event_push(specs, rows, chunk):
    queries = [_make_query(i, spec, True) for i, spec in enumerate(specs)]
    events = _build_events(rows)
    expected = [_run_alone(query, events) for query in queries]
    chunked, hub = _run_hub(queries, events, share=True, chunk=chunk)
    assert chunked == expected
    # every released event is either offered or skipped by the index
    for stats in hub.stats().attachments:
        assert stats.events_offered + stats.events_skipped_by_index == \
            len(events)


# -- dynamic attach/detach: share=True ≡ share=False ------------------------


_BAND = ("band", (0, 0, 0, (4, 2), False))
_schedule_ops = st.one_of(
    st.tuples(st.just("push"), st.integers(1, 30)),
    st.tuples(st.just("attach"), query_specs),
    st.tuples(st.just("detach"), st.integers(0, 7)))  # index mod alive


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=event_rows,
       initial=st.lists(query_specs, min_size=1, max_size=2),
       ops=st.lists(_schedule_ops, max_size=6))
# a routed time window closed by an event of a foreign type: its match
# must surface on that push, not at the detach flush (ROADMAP item 0)
@example(rows=[(1, 0), (0, 0), (0, 0), (2, 0), (0, 0)],
         initial=[_BAND, ("typed-time", (1, 2, 3))],
         ops=[("push", 5), ("detach", 1)])
def test_attach_detach_schedule_share_on_off_equivalence(rows, initial, ops):
    events = _build_events(rows)
    hubs = (StreamHub(share=True), StreamHub(share=False))
    collected: dict[str, tuple[list, list]] = {}
    alive: list[tuple[str, tuple]] = []
    counter = 0
    position = 0

    def attach(spec):
        nonlocal counter
        name = f"q{counter}"
        query = _make_query(counter, spec, True)
        counter += 1
        sinks = ([], [])
        for hub, sink in zip(hubs, sinks):
            hub.attach(query, engine="sequential", name=name,
                       sink=sink.append)
            _assert_routing_consistent(hub)
        collected[name] = sinks
        alive.append((name, tuple(a for a in
                                  (h.attachments[-1] for h in hubs))))

    for spec in initial:
        attach(spec)
    for op, arg in ops:
        if op == "push":
            for event in events[position:position + arg]:
                for hub in hubs:
                    hub.push(event)
            position += arg
        elif op == "attach":
            attach(arg)
        elif alive:
            _name, (shared_att, plain_att) = alive.pop(arg % len(alive))
            drained_shared = shared_att.detach(drain=True)
            drained_plain = plain_att.detach(drain=True)
            assert [ce.identity() for ce in drained_shared] == \
                [ce.identity() for ce in drained_plain]
            for hub in hubs:
                _assert_routing_consistent(hub)
    for event in events[position:]:
        for hub in hubs:
            hub.push(event)
    for hub in hubs:
        hub.close()
    for name, (shared_sink, plain_sink) in collected.items():
        assert [ce.identity() for ce in shared_sink] == \
            [ce.identity() for ce in plain_sink], name


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_routed_time_window_emits_on_the_closing_push(chunk):
    """Per push, not just in total: ``hub.push*`` return values and the
    ``detach(drain=True)`` lists are equal with the optimizer on and
    off when an event of a foreign type closes a routed time window."""
    events = _build_events([(1, 0), (0, 0), (0, 0), (2, 0), (0, 0)])
    seen = []
    for share in (True, False):
        hub = StreamHub(share=share)
        attachments = [
            hub.attach(_make_query(index, spec, True), engine="sequential",
                       sink=lambda ce: None)
            for index, spec in enumerate((_BAND, ("typed-time", (1, 2, 3))))]
        per_push = [hub.push_many(events[start:start + chunk])
                    for start in range(0, len(events), chunk)]
        drained = [[ce.identity() for ce in attachment.detach(drain=True)]
                   for attachment in attachments]
        stats = hub.stats().attachments[1]
        assert stats.events_offered + stats.events_skipped_by_index == \
            len(events)
        # the fix keeps the routing win (one chunk = all on admission)
        assert (stats.events_skipped_by_index > 0) == (share and chunk < 5)
        seen.append((per_push, drained))
    assert seen[0] == seen[1]
    assert sum(seen[0][0]) == 1 and seen[0][1] == [[], []]


# -- the routing index in isolation -----------------------------------------


_index_types = st.none() | st.frozensets(
    st.sampled_from(["t0", "t1", "t2"]), max_size=3)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.booleans(), st.integers(0, 5), _index_types),
    max_size=25))
def test_routing_index_incremental_equals_rebuild(ops):
    index = RoutingIndex()
    entries: dict[str, object] = {}
    for is_add, name_index, types in ops:
        name = f"a{name_index}"
        if is_add and name not in entries:
            index.add(name, types)
            entries[name] = types
        elif not is_add and name in entries:
            index.remove(name)
            del entries[name]
        assert index.snapshot() == \
            RoutingIndex.rebuild(entries.items()).snapshot()


# -- deterministic spot checks ----------------------------------------------


def _band(index, cut, consume=False, compiled=True):
    return _make_query(index, ("band", (0, 0, cut, (10, 5), consume)),
                       compiled)


def test_common_prefix_family_actually_shares():
    events = _build_events([(i % N_TYPES, (37 * i) % 100)
                            for i in range(400)])
    queries = [_band(i, cut) for i, cut in enumerate((0, 1, 2))]
    expected = [_run_alone(query, events) for query in queries]
    got, hub = _run_hub(queries, events, share=True)
    assert got == expected
    sharing = hub.stats().sharing
    assert sharing.enabled
    assert sharing.shared_attachments == 3
    assert sharing.groups == 1
    assert sharing.windows_shared > 0
    assert sharing.prefix_events_saved > 0


def test_consume_queries_opt_out_of_sharing():
    events = _build_events([(i % N_TYPES, (53 * i) % 100)
                            for i in range(200)])
    queries = [_band(0, 0, consume=True), _band(1, 1, consume=True)]
    expected = [_run_alone(query, events) for query in queries]
    got, hub = _run_hub(queries, events, share=True)
    assert got == expected
    assert hub.stats().sharing.shared_attachments == 0


def test_typed_time_queries_ride_the_routing_index():
    events = _build_events([(i % N_TYPES, (11 * i) % 100)
                            for i in range(300)])
    queries = [_make_query(i, ("typed-time", (i, (i + 1) % N_TYPES, 5)),
                           True) for i in range(3)]
    expected = [_run_alone(query, events) for query in queries]
    got, hub = _run_hub(queries, events, share=True)
    assert got == expected
    for stats in hub.stats().attachments:
        assert stats.events_skipped_by_index > 0
        assert stats.events_offered + stats.events_skipped_by_index == \
            len(events)


def test_repro_share_env_is_the_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_SHARE", "0")
    assert not share_enabled(None)
    assert share_enabled(True)  # explicit override beats the env
    events = _build_events([(i % N_TYPES, (29 * i) % 100)
                            for i in range(150)])
    queries = [_band(i, cut) for i, cut in enumerate((0, 2))]
    expected = [_run_alone(query, events) for query in queries]
    got, hub = _run_hub(queries, events, share=None)
    assert got == expected
    sharing = hub.stats().sharing
    assert not sharing.enabled
    assert sharing.shared_attachments == 0
    monkeypatch.setenv("REPRO_SHARE", "1")
    assert share_enabled(None)
