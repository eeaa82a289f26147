"""Unit tests for the interception middleware layer.

Covers the chain mechanics (ordering, short-circuit, transform,
restrict, the allocation-free no-op guard), the four production
middlewares, sink isolation re-expressed as middleware, the hub's
lifecycle hooks (attach/detach interception, sharing disqualification),
the asyncio facade's async chains, and the uniform ``to_dict()`` stats
surface.
"""

import asyncio
import json
import random

import pytest

from repro import (
    MetricsMiddleware,
    Middleware,
    MiddlewareContext,
    MiddlewareStack,
    RateLimitExceeded,
    RateLimitMiddleware,
    StreamHub,
    TraceMiddleware,
    ValidationError,
    ValidationMiddleware,
    pipeline,
)
from repro.events import make_event
from repro.hub.aio import AsyncStreamHub
from repro.middleware.base import HOOKS, restrict
from repro.middleware.sinks import SinkDispatchMiddleware, SinkError
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.windows import WindowSpec

TYPED_QUERY = ("PATTERN (t0 t1+)\n"
               "WITHIN 6 events FROM every 3 events\n")


def abc_query(window=6, slide=2, name="abc"):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                       Atom("C", etype="C"))
    return make_query(name, pattern,
                      WindowSpec.count_sliding(window, slide),
                      consumption=ConsumptionPolicy.all())


def abc_stream(n=60, seed=3):
    rng = random.Random(seed)
    return [make_event(i, rng.choice("ABCX")) for i in range(n)]


def typed_stream(n=40):
    return [make_event(i, f"t{i % 2}", timestamp=float(i),
                       price=0.5) for i in range(n)]


class Recorder(Middleware):
    """Observes every hook, recording (tag, hook) entry/exit order."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def _wrap(self, context, call_next):
        self.log.append((self.tag, context.hook, "enter"))
        result = call_next(context)
        self.log.append((self.tag, context.hook, "exit"))
        return result

    on_push_many = on_flush = _wrap
    on_attach = on_detach = on_match = on_error = _wrap


class TestChainMechanics:
    def test_noop_chain_is_not_built(self):
        stack = MiddlewareStack([Middleware()])
        assert len(HOOKS) == 6
        for hook in HOOKS:
            assert stack.chain(hook, lambda ctx: ctx) is None
            assert stack.async_chain(hook, lambda ctx: ctx) is None

    def test_partial_override_builds_only_that_chain(self):
        class MatchOnly(Middleware):
            def on_match(self, context, call_next):
                return call_next(context)

        stack = MiddlewareStack([MatchOnly()])
        assert stack.chain("on_push_many", lambda ctx: ctx) is None
        assert stack.chain("on_match", lambda ctx: ctx) is not None
        assert stack.hooked("on_match")
        assert not stack.hooked("on_push_many")

    def test_onion_ordering_first_installed_outermost(self):
        log = []
        stack = MiddlewareStack([Recorder("outer", log),
                                 Recorder("inner", log)])
        chain = stack.chain("on_push_many", lambda ctx: log.append("core"))
        chain(MiddlewareContext("on_push_many"))
        assert log == [("outer", "on_push_many", "enter"),
                       ("inner", "on_push_many", "enter"),
                       "core",
                       ("inner", "on_push_many", "exit"),
                       ("outer", "on_push_many", "exit")]

    def test_short_circuit_skips_terminal_and_inner_hooks(self):
        log = []

        class Shed(Middleware):
            def on_push_many(self, context, call_next):
                return None  # never calls call_next

        stack = MiddlewareStack([Shed(), Recorder("inner", log)])
        chain = stack.chain("on_push_many", lambda ctx: log.append("core"))
        assert chain(MiddlewareContext("on_push_many")) is None
        assert log == []

    def test_transform_reaches_terminal(self):
        class Double(Middleware):
            def on_push_many(self, context, call_next):
                context.events = [event * 2 for event in context.events]
                return call_next(context)

        stack = MiddlewareStack([Double()])
        chain = stack.chain("on_push_many", lambda ctx: ctx.events)
        ctx = MiddlewareContext("on_push_many", events=[21])
        assert chain(ctx) == [42]

    def test_single_event_hook_is_refused_loudly(self):
        """``on_push`` is gone; a class still defining it would never
        be called, so installing one is an error, not a no-op."""
        class Legacy(Middleware):
            def on_push(self, context, call_next):
                return call_next(context)

        for install in (lambda: MiddlewareStack([Legacy()]),
                        lambda: restrict(Legacy(), ("on_match",)),
                        lambda: StreamHub(middleware=[Legacy()]),
                        lambda: pipeline(abc_query()).use(Legacy()).open()):
            with pytest.raises(TypeError, match=r"Legacy defines on_push.*"
                               r"implement on_push_many.*1-element batch"):
                install()
        assert not hasattr(MiddlewareContext(), "event")

    def test_restrict_exposes_only_named_hooks(self):
        log = []
        restricted = restrict(Recorder("r", log), ("on_match",))
        stack = MiddlewareStack([restricted])
        assert stack.chain("on_push_many", lambda ctx: None) is None
        chain = stack.chain("on_match", lambda ctx: ctx.match)
        chain(MiddlewareContext("on_match", match="m"))
        assert [entry[1] for entry in log] == ["on_match", "on_match"]

    def test_async_chain_mixes_sync_and_async_hooks(self):
        log = []

        class AsyncHook(Middleware):
            async def on_push_many(self, context, call_next):
                log.append("async-enter")
                result = await call_next(context)
                log.append("async-exit")
                return result

        class SyncHook(Middleware):
            def on_push_many(self, context, call_next):
                log.append("sync-enter")
                return call_next(context)

        async def terminal(ctx):
            log.append("core")
            return "ok"

        chain = MiddlewareStack([AsyncHook(), SyncHook()]) \
            .async_chain("on_push_many", terminal)

        assert asyncio.run(chain(MiddlewareContext("on_push_many"))) == "ok"
        assert log == ["async-enter", "sync-enter", "core", "async-exit"]


class TestPipelineMiddleware:
    def test_noop_middleware_keeps_hot_path_chains_unbuilt(self):
        session = pipeline(abc_query()).engine("sequential") \
            .use(Middleware()).open()
        assert session._chain_push_many is None
        assert session._chain_flush is None
        session.close()

    def test_use_wraps_parity_with_bare(self):
        events = abc_stream()
        bare = pipeline(abc_query()).engine("sequential").open()
        wrapped = pipeline(abc_query()).engine("sequential") \
            .use(MetricsMiddleware()).use(TraceMiddleware()).open()
        out_bare, out_wrapped = [], []
        for event in events:
            out_bare.extend(bare.push(event))
            out_wrapped.extend(wrapped.push(event))
        out_bare.extend(bare.flush())
        out_wrapped.extend(wrapped.flush())
        assert [ce.identity() for ce in out_bare] \
            == [ce.identity() for ce in out_wrapped]
        bare.close(), wrapped.close()

    def test_push_shed_short_circuits_the_core(self):
        class DropX(Middleware):
            def on_push_many(self, context, call_next):
                context.events = [e for e in context.events
                                  if e.etype != "X"]
                return call_next(context) if context.events else None

        events = abc_stream()
        filtered = [e for e in events if e.etype != "X"]
        shed = pipeline(abc_query()).engine("sequential").use(DropX()).open()
        bare = pipeline(abc_query()).engine("sequential").open()
        out_shed, out_bare = [], []
        for event in events:
            out_shed.extend(shed.push(event))
        for event in filtered:
            out_bare.extend(bare.push(event))
        out_shed.extend(shed.flush())
        out_bare.extend(bare.flush())
        assert shed.events_pushed == len(filtered)
        assert [ce.identity() for ce in out_shed] \
            == [ce.identity() for ce in out_bare]
        shed.close(), bare.close()

    def test_push_many_trim_via_context(self):
        class KeepHalf(Middleware):
            def on_push_many(self, context, call_next):
                context.events = context.events[:len(context.events) // 2]
                return call_next(context)

        session = pipeline(abc_query()).engine("sequential") \
            .use(KeepHalf()).open()
        session.push_many(abc_stream(20))
        assert session.events_pushed == 10
        session.close()

    def test_match_suppression_hides_from_sinks_and_caller(self):
        sunk = []

        class SuppressAll(Middleware):
            def on_match(self, context, call_next):
                return None

        session = pipeline(abc_query()).engine("sequential") \
            .use(SuppressAll()).sink(sunk.append).open()
        matches = []
        for event in abc_stream():
            matches.extend(session.push(event))
        matches.extend(session.flush())
        assert matches == [] and sunk == []
        assert session.matches_emitted == 0
        session.close()

    def test_match_hook_ordering_user_before_sinks(self):
        order = []

        class Before(Middleware):
            def on_match(self, context, call_next):
                order.append("hook")
                return call_next(context)

        session = pipeline(abc_query()).engine("sequential") \
            .use(Before()).sink(lambda ce: order.append("sink")).open()
        for event in abc_stream():
            session.push(event)
        session.flush()
        assert order and order[0] == "hook"
        assert order.count("hook") == order.count("sink")
        assert all(order[i] == "hook" for i in range(0, len(order), 2))
        session.close()


class TestSinkIsolationThroughChain:
    def test_raising_sink_isolated_and_aggregated(self):
        good = []

        def bad(ce):
            raise RuntimeError("boom")

        session = pipeline(abc_query()).engine("sequential") \
            .sink(bad).sink(good.append).open()
        assert isinstance(session._chain_match and True, bool)
        matches = []
        for event in abc_stream():
            matches.extend(session.push(event))
        assert good == matches  # the healthy sink saw everything
        assert len(session.sink_errors) == len(matches)
        with pytest.raises(SinkError) as excinfo:
            session.flush()
        assert excinfo.value.errors
        session.close()

    def test_on_error_hook_observes_failures(self):
        seen = []

        class Watch(Middleware):
            def on_error(self, context, call_next):
                seen.append((context.sink, context.error))
                return call_next(context)

        def bad(ce):
            raise ValueError("nope")

        session = pipeline(abc_query()).engine("sequential") \
            .use(Watch()).sink(bad).open()
        total = 0
        for event in abc_stream():
            total += len(session.push(event))
        assert len(seen) == total and total > 0
        session.abort()

    def test_on_error_swallow_suppresses_sink_error(self):
        class Swallow(Middleware):
            def on_error(self, context, call_next):
                return None  # never records the failure

        def bad(ce):
            raise ValueError("nope")

        session = pipeline(abc_query()).engine("sequential") \
            .use(Swallow()).sink(bad).open()
        for event in abc_stream():
            session.push(event)
        session.flush()  # must NOT raise
        assert session.sink_errors == []
        session.close()

    def test_sink_dispatch_is_the_match_chain(self):
        got = []
        session = pipeline(abc_query()).engine("sequential") \
            .sink(got.append).open()
        # sink delivery is middleware now: registering a sink builds the
        # on_match chain (SinkDispatchMiddleware innermost), and without
        # sinks or hooks there is no chain at all
        assert session._chain_match is not None
        matches = []
        for event in abc_stream():
            matches.extend(session.push(event))
        matches.extend(session.flush())
        assert got == matches and matches
        session.close()

        bare = pipeline(abc_query()).engine("sequential").open()
        assert bare._chain_match is None
        bare.close()


class TestProductionMiddlewares:
    def test_rate_limit_shed_deterministic_clock(self):
        clock = [0.0]
        limiter = RateLimitMiddleware(2.0, burst=2,
                                      clock=lambda: clock[0])
        session = pipeline(abc_query()).engine("sequential") \
            .use(limiter).open()
        events = abc_stream(20)
        for event in events[:10]:
            session.push(event)
        assert session.events_pushed == 2  # burst only, clock frozen
        assert limiter.shed_total == 8
        clock[0] = 1.0  # one second later: 2 more tokens
        for event in events[10:]:
            session.push(event)
        assert session.events_pushed == 4
        session.abort()

    def test_rate_limit_raise_policy(self):
        limiter = RateLimitMiddleware(1.0, burst=1, policy="raise",
                                      clock=lambda: 0.0)
        session = pipeline(abc_query()).engine("sequential") \
            .use(limiter).open()
        session.push(make_event(0, "A"))
        with pytest.raises(RateLimitExceeded):
            session.push(make_event(1, "B"))
        session.abort()

    def test_rate_limit_buckets_per_attachment(self):
        limiter = RateLimitMiddleware(1.0, burst=1, clock=lambda: 0.0)
        hub = StreamHub()
        hub.attach(abc_query(name="q1"), engine="sequential", name="q1",
                   middleware=[limiter])
        hub.attach(abc_query(name="q2"), engine="sequential", name="q2",
                   middleware=[limiter])
        for event in abc_stream(5):
            hub.push(event)
        assert set(limiter.shed_by_key) == {"q1", "q2"}
        assert limiter.shed_by_key["q1"] == 4
        hub.abort()

    def test_rate_limit_custom_key_function(self):
        # the serving runtime's keying: one shared limiter, buckets by
        # a caller-chosen context field (client id in ctx.name) instead
        # of the attachment/hub default
        limiter = RateLimitMiddleware(1.0, burst=1, clock=lambda: 0.0,
                                      key=lambda ctx: ctx.name or "anon")
        stack = MiddlewareStack([limiter])
        admitted = []
        chain = stack.chain(
            "on_push_many",
            lambda ctx: admitted.append(len(ctx.events)) or
            len(ctx.events))
        for client in ("c1", "c2", "c1"):
            ctx = MiddlewareContext(
                "on_push_many", name=client,
                events=[make_event(i, "A") for i in range(3)])
            chain(ctx)
        # each client spends its own bucket: c1's first batch admits
        # the burst, c2 still has a fresh bucket, c1's second batch is
        # fully shed (short-circuits before the terminal)
        assert admitted == [1, 1]
        assert limiter.shed_by_key == {"c1": 5, "c2": 2}

    def test_rate_limit_custom_key_leaves_default_keying_alone(self):
        limiter = RateLimitMiddleware(1.0, burst=1, clock=lambda: 0.0)
        hub = StreamHub()
        hub.attach(abc_query(name="q1"), engine="sequential", name="q1",
                   middleware=[limiter])
        hub.push(make_event(0, "A"))
        hub.push(make_event(1, "B"))
        assert set(limiter.shed_by_key) == {"q1"}  # attachment-keyed
        hub.abort()

    def test_validation_null_feeds_sql_null_path(self):
        # predicate price < 1 is false against a nulled attribute, so
        # nulled events can never anchor a match
        from repro.patterns.predicates import attr_compare
        pattern = sequence(Atom("A", etype="A",
                                predicate=attr_compare("price", "<", 1.0)))
        query = make_query("p", pattern, WindowSpec.count_sliding(2, 1))
        validator = ValidationMiddleware(required=("price",),
                                         types={"price": float})
        session = pipeline(query).engine("sequential") \
            .use(validator).open()
        ok = make_event(0, "A", price=0.5)
        missing = make_event(1, "A")
        wrong = make_event(2, "A", price="not-a-float")
        matches = []
        for event in (ok, missing, wrong):
            matches.extend(session.push(event))
        matches.extend(session.flush())
        assert [ce.constituent_seqs for ce in matches] == [(0,)]
        assert validator.events_nulled == 2
        assert validator.attributes_nulled == 2
        session.close()

    def test_validation_reject_and_raise(self):
        rejecter = ValidationMiddleware(required=("price",),
                                        policy="reject")
        session = pipeline(abc_query()).engine("sequential") \
            .use(rejecter).open()
        session.push(make_event(0, "A"))
        assert session.events_pushed == 0 and rejecter.events_rejected == 1
        session.abort()

        raiser = ValidationMiddleware(required=("price",), policy="raise")
        session = pipeline(abc_query()).engine("sequential") \
            .use(raiser).open()
        with pytest.raises(ValidationError):
            session.push(make_event(0, "A"))
        session.abort()

    def test_validation_etype_allowlist_is_fatal_under_null(self):
        validator = ValidationMiddleware(etypes=("A", "B", "C"))
        session = pipeline(abc_query()).engine("sequential") \
            .use(validator).open()
        session.push(make_event(0, "X"))
        session.push(make_event(1, "A"))
        assert session.events_pushed == 1
        assert validator.events_rejected == 1
        session.abort()

    def test_metrics_counters_and_exposition(self):
        metrics = MetricsMiddleware()
        session = pipeline(abc_query()).engine("sequential") \
            .use(metrics).open()
        matches = []
        for event in abc_stream():
            matches.extend(session.push(event))
        matches.extend(session.flush())
        snap = metrics.snapshot()
        assert snap["repro_events_pushed_total"]["scope=session"] == 60.0
        assert snap["repro_matches_total"]["scope=session"] \
            == float(len(matches))
        assert snap["repro_flushes_total"]["scope=session"] == 1.0
        # a single push is a 1-event batch: counted, and it moves the
        # watermark gauge like any other batch
        assert snap["repro_push_batches_total"]["scope=session"] == 60.0
        assert "scope=session" in snap["repro_watermark"]
        text = metrics.render()
        assert "# TYPE repro_events_pushed_total counter" in text
        assert 'repro_matches_total{scope="session"}' in text
        session.close()

    def test_metrics_observe_stats_flattens_nested_to_dict(self):
        metrics = MetricsMiddleware()
        hub = StreamHub()
        hub.attach(abc_query(), engine="sequential", name="abc")
        for event in abc_stream(30):
            hub.push(event)
        hub.flush()
        metrics.observe_stats(hub.stats())
        snap = metrics.snapshot()
        assert snap["repro_stats_events_pushed"][""] == 30.0
        assert "scope=abc" in snap["repro_stats_attachments_matches_emitted"]
        hub.close()

    def test_trace_ring_buffer_bounded(self):
        trace = TraceMiddleware(capacity=5)
        session = pipeline(abc_query()).engine("sequential") \
            .use(trace).open()
        for event in abc_stream(20):
            session.push(event)
        records = trace.records
        assert len(records) == 5
        assert all(r["hook"] in ("on_push_many", "on_match")
                   for r in records)
        assert records[-1]["n"] > 5  # counter keeps running past the ring
        for record in records:  # one record shape, single pushes too
            if record["hook"] == "on_push_many":
                assert record["count"] == 1
                assert record["first_seq"] == record["last_seq"]
        trace.clear()
        assert trace.records == []
        session.abort()

    def test_trace_records_are_json_safe(self):
        trace = TraceMiddleware(capacity=16)
        hub = StreamHub(middleware=[trace])
        attachment = hub.attach(abc_query(), engine="sequential")
        for event in abc_stream(30):
            hub.push(event)
        attachment.detach()
        hub.close()
        hooks = {r["hook"] for r in trace.records}
        assert "on_attach" in {r["hook"] for r in trace.records} \
            or len(trace.records) == 16  # attach may have rolled off
        assert "on_detach" in hooks or "on_push_many" in hooks
        json.dumps(trace.records)  # must not raise


class TestHubMiddleware:
    def test_hub_noop_chain_guard(self):
        hub = StreamHub(middleware=[Middleware()])
        assert hub._chain_push_many is None
        assert hub._chain_flush is None
        hub.close()

    def test_hub_level_metrics_sees_every_attachment(self):
        metrics = MetricsMiddleware()
        hub = StreamHub(middleware=[metrics])
        a = hub.attach(abc_query(name="q1"), engine="sequential",
                       name="q1")
        b = hub.attach(abc_query(name="q2"), engine="sequential",
                       name="q2")
        for event in abc_stream():
            hub.push(event)
        hub.flush()
        snap = metrics.snapshot()
        assert snap["repro_events_pushed_total"]["scope=hub"] == 60.0
        assert snap["repro_matches_total"]["scope=q1"] \
            == float(a.matches_emitted)
        assert snap["repro_matches_total"]["scope=q2"] \
            == float(b.matches_emitted)
        assert snap["repro_attachments_attached_total"] \
            == {"scope=q1": 1.0, "scope=q2": 1.0}
        hub.close()

    def test_ingestion_hooked_attachment_middleware_disqualifies_sharing(
            self):
        from repro.patterns import parse_query
        # compile=True explicitly: sharing needs a compiled plan, and
        # this test must hold under the REPRO_COMPILE=0 escape hatch.
        q1 = parse_query(TYPED_QUERY, name="q1", compile=True)
        q2 = parse_query(TYPED_QUERY, name="q2", compile=True)
        q3 = parse_query(TYPED_QUERY, name="q3", compile=True)

        class Ingest(Middleware):
            def on_push_many(self, context, call_next):
                return call_next(context)

        class MatchOnly(Middleware):
            def on_match(self, context, call_next):
                return call_next(context)

        hub = StreamHub(share=True)
        plain = hub.attach(q1, engine="sequential", name="q1")
        hooked = hub.attach(q2, engine="sequential", name="q2",
                            middleware=[Ingest()])
        matchy = hub.attach(q3, engine="sequential", name="q3",
                            middleware=[MatchOnly()])
        for event in typed_stream():
            hub.push(event)
        hub.flush()
        assert plain.stats().shared
        assert not hooked.stats().shared  # private session, same output
        assert matchy.stats().shared  # delivery hooks keep sharing
        outputs = [[ce.constituent_seqs for ce in a.drain()]
                   for a in (plain, hooked, matchy)]
        assert outputs[0] == outputs[1] == outputs[2] and outputs[0]
        hub.close()

    def test_on_attach_can_rename_and_refuse(self):
        class Prefix(Middleware):
            def on_attach(self, context, call_next):
                context.name = f"tenant1.{context.name}"
                return call_next(context)

        hub = StreamHub(middleware=[Prefix()])
        attachment = hub.attach(abc_query(), engine="sequential",
                                name="abc")
        assert attachment.name == "tenant1.abc"
        hub.close()

        class Refuse(Middleware):
            def on_attach(self, context, call_next):
                raise PermissionError("quota exceeded")

        hub = StreamHub(middleware=[Refuse()])
        with pytest.raises(PermissionError):
            hub.attach(abc_query(), engine="sequential")
        assert hub.attachments == ()
        hub.close()

    def test_on_detach_intercepts_final_flush(self):
        log = []
        hub = StreamHub(middleware=[Recorder("hub", log)])
        attachment = hub.attach(abc_query(), engine="sequential")
        for event in abc_stream(30):
            hub.push(event)
        attachment.detach()
        assert ("hub", "on_detach", "enter") in log
        hub.close()

    def test_detach_is_idempotent(self):
        """Regression: a second detach is a no-op returning [] — with
        and without an on_detach chain installed."""
        for middleware in (None, [TraceMiddleware()]):
            hub = StreamHub(middleware=middleware)
            attachment = hub.attach(abc_query(), engine="sequential")
            for event in abc_stream(30):
                hub.push(event)
            first = attachment.detach()
            assert attachment.state == "detached"
            assert attachment.detach() == []
            assert attachment.detach(drain=False) == []
            assert attachment.state == "detached"
            if middleware:
                detaches = [r for r in middleware[0].records
                            if r["hook"] == "on_detach"]
                assert len(detaches) == 1  # chain ran exactly once
            # the final-flush matches stayed queued (no sink), after
            # whatever the stream already queued
            drained = attachment.drain()
            assert drained[len(drained) - len(first):] == first
            hub.close()

    def test_duplicate_name_still_rejected_under_middleware(self):
        hub = StreamHub(middleware=[TraceMiddleware()])
        hub.attach(abc_query(name="q"), engine="sequential", name="q")
        with pytest.raises(ValueError, match="already in use"):
            hub.attach(abc_query(name="q2"), engine="sequential",
                       name="q")
        hub.close()


class TestAsyncMiddleware:
    def run(self, coro):
        return asyncio.run(coro)

    def test_async_hooks_awaited_on_hub_path(self):
        log = []

        class AsyncAudit(Middleware):
            async def on_push_many(self, context, call_next):
                log.append("push")
                return await call_next(context)

            async def on_flush(self, context, call_next):
                log.append("flush")
                return await call_next(context)

        async def main():
            async with AsyncStreamHub(middleware=[AsyncAudit()]) as hub:
                attachment = hub.attach(abc_query(), engine="sequential")
                for event in abc_stream(60):
                    await hub.push(event)
                got = []

                async def consume():
                    async for match in attachment:
                        got.append(match)

                task = asyncio.create_task(consume())
                await hub.flush()
                await task
                return got

        got = self.run(main())
        assert log.count("push") == 60 and log.count("flush") == 1
        assert got  # matches flowed through the intercepted path

    def test_attach_context_carries_a_parsed_query(self):
        """Regression: query *text* is parsed before the ``on_attach``
        chain, as on the sync hub — a hook reading ``context.query.name``
        (``TraceMiddleware`` does) used to get the raw string."""
        trace = TraceMiddleware()

        async def main():
            async with AsyncStreamHub(middleware=[trace]) as hub:
                attachment = hub.attach(
                    "PATTERN (A B) WITHIN 6 events FROM every 3 events",
                    engine="sequential", name="q")
                with pytest.raises(ValueError, match="params="):
                    hub.attach(abc_query(), engine="sequential",
                               params={"limit": 1})
                return attachment.query.name

        assert self.run(main()) == "q"
        (record,) = [r for r in trace.records if r["hook"] == "on_attach"]
        assert record["query"] == record["scope"] == "q"

    def test_async_match_suppression_and_metrics(self):
        metrics = MetricsMiddleware()

        class SuppressAll(Middleware):
            async def on_match(self, context, call_next):
                return None

        async def main():
            sunk = []
            async with AsyncStreamHub(middleware=[metrics]) as hub:
                suppressed = hub.attach(
                    abc_query(name="q1"), engine="sequential", name="q1",
                    sink=sunk.append, middleware=[SuppressAll()])
                plain_got = []
                plain = hub.attach(abc_query(name="q2"),
                                   engine="sequential", name="q2",
                                   sink=plain_got.append)
                for event in abc_stream(40):
                    await hub.push(event)
                await hub.flush()
                assert suppressed.matches_emitted == plain.matches_emitted
                return sunk, plain_got

        sunk, plain_got = self.run(main())
        assert sunk == [] and plain_got
        snap = metrics.snapshot()
        assert snap["repro_matches_total"]["scope=q2"] \
            == float(len(plain_got))

    def test_async_sink_error_through_chain(self):
        seen = []

        class Watch(Middleware):
            async def on_error(self, context, call_next):
                seen.append(context.error)
                return await call_next(context)

        async def main():
            hub = AsyncStreamHub(middleware=[Watch()])

            async def bad(ce):
                raise RuntimeError("async boom")

            hub.attach(abc_query(), engine="sequential", sink=bad)
            for event in abc_stream(40):
                await hub.push(event)
            with pytest.raises(SinkError):
                await hub.flush()
            await hub.close()

        self.run(main())
        assert seen and all(isinstance(e, RuntimeError) for e in seen)

    def test_async_detach_idempotent_through_chain(self):
        trace = TraceMiddleware()

        async def main():
            async with AsyncStreamHub(middleware=[trace]) as hub:
                attachment = hub.attach(abc_query(), engine="sequential")
                for event in abc_stream(30):
                    await hub.push(event)
                first = await attachment.detach()
                assert await attachment.detach() == []
                return first

        self.run(main())
        detaches = [r for r in trace.records if r["hook"] == "on_detach"]
        assert len(detaches) == 1


class TestStatsToDict:
    def test_run_stats_to_dict(self):
        from repro import SpectreConfig, SpectreEngine
        result = SpectreEngine(abc_query(), SpectreConfig(k=2)) \
            .run(abc_stream(40))
        d = result.stats.to_dict()
        json.dumps(d)
        assert d["windows_total"] == result.stats.windows_total
        assert 0.0 <= d["completion_probability"] <= 1.0
        assert d["window_latency_count"] \
            == len(result.stats.window_latencies)

    def test_hub_stats_to_dict_nested_and_json_safe(self):
        hub = StreamHub()
        hub.attach(abc_query(), engine="spectre", name="abc", k=2)
        for event in abc_stream(40):
            hub.push(event)
        hub.flush()
        d = hub.stats().to_dict()
        json.dumps(d)
        assert d["events_pushed"] == 40
        (attachment,) = d["attachments"]
        assert attachment["name"] == "abc"
        assert attachment["run_stats"]["windows_total"] >= 0
        assert d["sharing"]["enabled"] in (True, False)
        hub.close()

    def test_fresh_hub_stats_watermark_is_json_null(self):
        hub = StreamHub()
        d = hub.stats().to_dict()
        assert d["watermark"] is None  # -inf clamped for strict JSON
        assert "Infinity" not in json.dumps(d)
        hub.close()

    def test_sharing_stats_to_dict(self):
        from repro.hub.optimizer import SharingStats
        stats = SharingStats(enabled=True, groups=1,
                             shared_attachments=2, windows_shared=3,
                             prefix_events_saved=4, memo_hits=5,
                             memo_misses=6)
        assert stats.to_dict()["prefix_events_saved"] == 4
        json.dumps(stats.to_dict())
