"""Property-based parity: interception must never change results.

The acceptance contract of the middleware refactor — a hub or pipeline
wrapped in a *non-transforming* chain (no-op middleware, whose chains
are not even built, and a metrics-only chain, which observes every
hook) emits exactly the matches of the bare run, across:

* the sharing optimizer on and off (``share=`` — the REPRO_SHARE axis),
* compiled and interpreted predicate kernels (``parse_query(compile=)``
  — the REPRO_COMPILE axis),
* per-event ``push`` and chunked ``push_many`` ingestion,
* sink delivery and queue (drain) delivery.

And for the chains that *do* transform — every shipped ingest policy —
``push(e)`` is ``push_many([e])``: however the stream is cut into
batches, the matches are those of the bare layer over what the policy
let through.
"""

import asyncio
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    MetricsMiddleware,
    Middleware,
    RateLimitMiddleware,
    StreamHub,
    TraceMiddleware,
    ValidationMiddleware,
    pipeline,
)
from repro.durability.manager import DurabilityManager
from repro.durability.middleware import DurabilityMiddleware
from repro.durability.recorder import RunLog, load_run
from repro.durability.wal import iter_records
from repro.events import make_event
from repro.events.wire import unpack_event
from repro.hub.aio import AsyncStreamHub
from repro.patterns import parse_query
from repro.resilience import ChaosConfig, ChaosMiddleware

N_TYPES = 3
WINDOWS = ((6, 3), (8, 4), (5, 5))


def make_typed_query(index, first, second, window, compiled):
    within, every = window
    text = (f"PATTERN (t{first} t{second}+)\n"
            f"WITHIN {within} events FROM every {every} events\n")
    return parse_query(text, name=f"q{index}", compile=compiled)


_type_pairs = st.tuples(
    st.integers(0, N_TYPES - 1),
    st.integers(0, N_TYPES - 1)).filter(lambda pair: pair[0] != pair[1])
query_specs = st.tuples(_type_pairs, st.sampled_from(WINDOWS)) \
    .map(lambda drawn: (*drawn[0], drawn[1]))
event_rows = st.lists(
    st.tuples(st.integers(0, N_TYPES - 1), st.integers(0, 99)),
    max_size=100)


def build_events(rows):
    return [make_event(index, f"t{etype}", timestamp=float(index),
                       price=price / 100)
            for index, (etype, price) in enumerate(rows)]


def run_hub(specs, events, *, share, compiled, chunk, middleware):
    """Drive one hub; return per-attachment constituent-seq outputs."""
    queries = [make_typed_query(i, first, second, window, compiled)
               for i, (first, second, window) in enumerate(specs)]
    collectors = [[] for _ in queries]
    hub = StreamHub(share=share, middleware=middleware)
    for query, collector in zip(queries, collectors):
        hub.attach(query, engine="sequential", sink=collector.append)
    if chunk:
        for start in range(0, len(events), chunk):
            hub.push_many(events[start:start + chunk])
    else:
        for event in events:
            hub.push(event)
    hub.close()
    return [[ce.constituent_seqs for ce in collector]
            for collector in collectors]


class TestHubChainParity:
    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(query_specs, min_size=1, max_size=3),
           rows=event_rows,
           share=st.booleans(),
           compiled=st.booleans(),
           chunk=st.sampled_from((0, 7)))
    def test_noop_and_metrics_chains_change_nothing(
            self, specs, rows, share, compiled, chunk):
        events = build_events(rows)
        bare = run_hub(specs, events, share=share, compiled=compiled,
                       chunk=chunk, middleware=None)
        noop = run_hub(specs, events, share=share, compiled=compiled,
                       chunk=chunk, middleware=[Middleware()])
        metrics = run_hub(specs, events, share=share, compiled=compiled,
                          chunk=chunk, middleware=[MetricsMiddleware()])
        assert bare == noop == metrics

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(query_specs, min_size=1, max_size=2),
           rows=event_rows,
           share=st.booleans())
    def test_observing_attachment_middleware_changes_nothing(
            self, specs, rows, share):
        """Per-attachment trace/metrics hooks (delivery-side only) keep
        sharing AND keep outputs; they are pure observers."""
        events = build_events(rows)
        queries = [make_typed_query(i, first, second, window, None)
                   for i, (first, second, window) in enumerate(specs)]

        def drive(attach_middleware):
            collectors = [[] for _ in queries]
            hub = StreamHub(share=share)
            for query, collector in zip(queries, collectors):
                hub.attach(query, engine="sequential",
                           sink=collector.append,
                           middleware=attach_middleware())
            for event in events:
                hub.push(event)
            hub.close()
            return [[ce.constituent_seqs for ce in collector]
                    for collector in collectors]

        assert drive(lambda: None) \
            == drive(lambda: [TraceMiddleware(capacity=4),
                              MetricsMiddleware()])


class TestPipelineChainParity:
    @settings(max_examples=15, deadline=None)
    @given(rows=event_rows,
           compiled=st.booleans(),
           engine=st.sampled_from(("sequential", "spectre")))
    def test_use_of_observers_changes_nothing(self, rows, compiled,
                                              engine):
        spec = (0, 1, (6, 3))
        events = build_events(rows)
        options = {} if engine == "sequential" else {"k": 2}

        def drive(wrap):
            builder = pipeline(make_typed_query(0, *spec, compiled)) \
                .engine(engine, **options)
            if wrap:
                builder = builder.use(MetricsMiddleware()) \
                    .use(TraceMiddleware(capacity=8))
            session = builder.open()
            matches = []
            for event in events:
                matches.extend(session.push(event))
            matches.extend(session.flush())
            session.close()
            return [ce.identity() for ce in matches]

        assert drive(False) == drive(True)

    @settings(max_examples=10, deadline=None)
    @given(rows=event_rows, chunk=st.integers(1, 9))
    def test_push_many_through_chain_matches_per_event(self, rows,
                                                       chunk):
        events = build_events(rows)

        def drive(chunked):
            session = pipeline(make_typed_query(0, 0, 1, (6, 3), None)) \
                .engine("sequential").use(MetricsMiddleware()).open()
            matches = []
            if chunked:
                for start in range(0, len(events), chunk):
                    matches.extend(
                        session.push_many(events[start:start + chunk]))
            else:
                for event in events:
                    matches.extend(session.push(event))
            matches.extend(session.flush())
            session.close()
            return [ce.identity() for ce in matches]

        assert drive(False) == drive(True)


class TestSinkIsolationParity:
    """Sink isolation is served by the middleware chain now; the
    observable contract must equal the old bespoke path's."""

    @settings(max_examples=10, deadline=None)
    @given(rows=event_rows, share=st.booleans())
    def test_raising_sink_never_starves_the_healthy_one(self, rows,
                                                        share):
        from repro.middleware.sinks import SinkError

        events = build_events(rows)
        healthy_alone = []
        hub = StreamHub(share=share)
        hub.attach(make_typed_query(0, 0, 1, (6, 3), None),
                   engine="sequential", sink=healthy_alone.append)
        for event in events:
            hub.push(event)
        hub.close()

        healthy = []

        def bad(ce):
            raise RuntimeError("boom")

        hub = StreamHub(share=share)
        attachment = hub.attach(make_typed_query(0, 0, 1, (6, 3), None),
                                engine="sequential",
                                sink=(bad, healthy.append))
        for event in events:
            hub.push(event)
        raised = False
        try:
            hub.close()
        except SinkError as error:
            raised = True
            assert len(error.errors) == len(healthy)
        assert [ce.constituent_seqs for ce in healthy] \
            == [ce.constituent_seqs for ce in healthy_alone]
        assert raised == bool(healthy)
        assert attachment.stats().sink_errors == len(healthy)


# -- push(e) is push_many([e]) under every shipped ingest policy -------------

class Tap(Middleware):
    """Innermost observer: the stream the policy outside it let through."""

    def __init__(self):
        self.events = []

    def on_push_many(self, context, call_next):
        self.events.extend(context.events)
        return call_next(context)


def drive(layer, query, plan, middleware=(), durability=None):
    """Run ``plan`` — ``(operation, argument)`` pairs — against one
    layer holding ``query``; return the delivered match identities."""
    got = []
    if layer == "session":
        builder = pipeline(query).engine("sequential").sink(got.append)
        for mw in middleware:
            builder = builder.use(mw)
        with builder.open() as session:
            for operation, argument in plan:
                getattr(session, operation)(argument)
    elif layer == "hub":
        with StreamHub(middleware=middleware) as hub:
            hub.attach(query, engine="sequential", sink=got.append)
            for operation, argument in plan:
                getattr(hub, operation)(argument)
    else:
        async def main():
            async with AsyncStreamHub(middleware=list(middleware),
                                      durability=durability) as hub:
                hub.attach(query, engine="sequential", sink=got.append)
                for operation, argument in plan:
                    await getattr(hub, operation)(argument)
        asyncio.run(main())
    return [ce.identity() for ce in got]


LAYERS = ("session", "hub", "async")


def tapped(make_policy, counters):
    """A policy kept in memory: an innermost :class:`Tap` sees its
    output, ``counters(policy)`` are its chunking-independent totals."""
    def install(layer, directory):
        policy, tap = make_policy(), Tap()
        return ({"middleware": [policy, tap]},
                lambda: (tap.events, counters(policy)))
    return install


def journalled(layer, directory):
    """Durability: the policy's output is what the log holds.  A run
    log at session and hub scope; under the asyncio facade the
    manager's WAL, where the middleware rides the inner sync hub."""
    if layer == "async":
        manager = DurabilityManager(directory)

        def logged():
            manager.close(checkpoint=False)
            return [record for _, record in iter_records(directory)]
        installed = {"durability": manager}
    else:
        log = RunLog(directory / "run.wal", config={})

        def logged():
            log.close()
            return load_run(log.path)[1]
        installed = {"middleware": [DurabilityMiddleware(log)]}

    def observe():
        events = [unpack_event(row) for record in logged()
                  if record["t"] == "push" for row in record["events"]]
        return events, len(events)
    return installed, observe


PRICE = {"types": {"price": float}}
CHAOS = ChaosConfig(seed=3, drop_rate=0.1, dup_rate=0.1, delay_rate=0.2,
                    max_held=2)
#: name -> (install(layer, directory) -> (layer kwargs, observe), layers)
INGEST_POLICIES = {
    "validation-null": (tapped(
        lambda: ValidationMiddleware(**PRICE),
        lambda mw: (mw.events_nulled, mw.attributes_nulled)), LAYERS),
    "validation-reject": (tapped(
        lambda: ValidationMiddleware(**PRICE, policy="reject"),
        lambda mw: mw.events_rejected), LAYERS),
    "ratelimit": (tapped(
        lambda: RateLimitMiddleware(1.0, burst=20, clock=lambda: 0.0),
        lambda mw: (mw.shed_total, dict(mw.shed_by_key))), LAYERS),
    # hub-scoped by contract: a session has nowhere to re-inject the
    # events still held at flush.  max_held is hit, so only *when* a
    # held event re-enters may move with the chunking
    "chaos": (tapped(
        lambda: ChaosMiddleware(CHAOS),
        lambda mw: ([mw.counters[key] for key in (
            "events_seen", "events_dropped", "events_duplicated")],
            mw.counters["events_released"] - mw.counters["events_delayed"],
            mw.held)), ("hub", "async")),
    "metrics": (tapped(
        MetricsMiddleware,
        lambda mw: mw.snapshot()["repro_events_pushed_total"]), LAYERS),
    "durability": (journalled, LAYERS),
}
chunk_sizes = st.one_of(
    st.just([1]), st.just([10 ** 6]),
    st.lists(st.integers(1, 12), min_size=1, max_size=8))


class TestPushIsTheOneElementBatch:
    @pytest.mark.parametrize("policy", sorted(INGEST_POLICIES))
    @settings(max_examples=10, deadline=None)
    @given(rows=event_rows, sizes=chunk_sizes)
    def test_matches_and_counters_do_not_depend_on_chunking(
            self, policy, rows, sizes):
        # every fifth price is malformed, so validation has work to do
        events = [make_event(index, f"t{etype}", timestamp=float(index),
                             price="?" if price % 5 == 0 else price / 100)
                  for index, (etype, price) in enumerate(rows)]
        query = make_typed_query(0, 0, 1, (6, 3), None)
        chunks, start = [], 0
        while start < len(events):
            size = sizes[len(chunks) % len(sizes)]
            chunks.append(events[start:start + size])
            start += size
        plans = ([("push", event) for event in events],
                 [("push_many", [event]) for event in events],
                 [("push_many", chunk) for chunk in chunks])
        install, layers = INGEST_POLICIES[policy]
        for layer in layers:
            runs = []
            for plan in plans:
                with tempfile.TemporaryDirectory() as directory:
                    installed, observe = install(layer, Path(directory))
                    matches = drive(layer, query, plan, **installed)
                    passed, counters = observe()
                # the bare layer over what the policy let through
                assert matches == drive(layer, query,
                                        [("push_many", passed)])
                runs.append((matches, [e.seq for e in passed], counters))
            single, singleton_batch, chunked = runs
            assert single == singleton_batch
            assert chunked[2] == single[2]
            assert sorted(chunked[1]) == sorted(single[1])
