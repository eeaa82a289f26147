"""Push-based Session API: parity with batch runs on every engine,
incremental emission, bounded buffering, and lifecycle edge cases.

The acceptance contract of the streaming redesign: for every engine in
the builder's ``ENGINES`` table (the sequential and T-REX baselines
included),
``Session.push``-driven execution produces complex events, consumption
ledger and match counts identical to batch ``run()``, with matches
emitted incrementally and the retired stream prefix garbage-collected.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.runtime.sharding import plan_shards
from repro.sequential.engine import SequentialEngine
from repro.streaming import (
    Engine,
    Session,
    SessionClosedError,
    SessionStateError,
)
from repro.streaming.builder import ENGINES, build_engine
from repro.windows import WindowSpec
from repro.windows.specs import EverySlide, TimeScope

# every speculative engine in the registry, by its builder alias, plus
# the two baselines — the whole public engine surface
FACTORY_ALIASES = ["spectre", "threaded", "elastic", "approximate",
                   "sharded"]
ALL_ENGINES = ["sequential", "trex"] + FACTORY_ALIASES

BUILD_OPTIONS = {
    "sequential": {},
    "trex": {},
    "spectre": {"k": 3},
    "threaded": {"k": 2},
    "elastic": {"k": 4},
    "approximate": {"k": 2},
    "sharded": {"k": 2, "workers": 1},
}


def abc_query(window: int, slide: int,
              consumption=None):
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"),
                       Atom("C", etype="C"))
    return make_query(
        "abc", pattern, WindowSpec.count_sliding(window, slide),
        consumption=consumption or ConsumptionPolicy.all())


def abc_stream(n: int, seed: int = 7):
    rng = random.Random(seed)
    return [make_event(i, rng.choice("ABCX")) for i in range(n)]


def make_engine(name: str, query):
    return build_engine(query, name, **BUILD_OPTIONS[name])


def drive_eager(session: Session, events):
    """Push all events; return (all matches, matches before last push)."""
    matches, before_final = [], 0
    for index, event in enumerate(events):
        out = session.push(event)
        if out and index < len(events) - 1:
            before_final += len(out)
        matches.extend(out)
    matches.extend(session.flush())
    return matches, before_final


class TestFactoryRegistryCoverage:
    def test_every_factory_engine_is_exercised(self):
        """The lists above must cover the ENGINES table exactly."""
        assert set(ALL_ENGINES) == set(BUILD_OPTIONS) == set(ENGINES)
        assert set(FACTORY_ALIASES) == {
            name for name, spec in ENGINES.items() if spec.takes_config}

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_engines_satisfy_the_protocol(self, name):
        engine = make_engine(name, abc_query(10, 5))
        assert isinstance(engine, Engine)


class TestSessionBatchParity:
    """Eager push-driven output == batch run(), engine by engine."""

    @pytest.fixture(scope="class")
    def events(self):
        return abc_stream(240, seed=13)

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_overlapping_windows(self, name, events):
        query = abc_query(12, 4)
        batch = make_engine(name, query).run(events)
        session = make_engine(name, query).open()
        matches, _ = drive_eager(session, events)
        assert [ce.identity() for ce in matches] == batch.identities()
        assert session.matches_emitted == len(batch.complex_events)
        result = session.result()
        assert result.identities() == batch.identities()
        session.close()

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_consumption_ledger_identical(self, name, events):
        query = abc_query(12, 4)
        batch_session = make_engine(name, query).open(eager=False)
        for event in events:
            batch_session.push(event)
        batch_session.flush()
        eager = make_engine(name, query).open()
        drive_eager(eager, events)
        assert eager.consumed_seqs() == batch_session.consumed_seqs()
        assert eager.consumed_seqs()  # the workload does consume

    @pytest.mark.parametrize("name", FACTORY_ALIASES)
    def test_stats_window_counters_identical(self, name, events):
        query = abc_query(12, 4)
        batch = make_engine(name, query).run(events)
        session = make_engine(name, query).open()
        drive_eager(session, events)
        stats = session.result().stats
        assert stats.windows_total == batch.stats.windows_total
        assert stats.windows_emitted == batch.stats.windows_emitted
        assert session.result().input_events == batch.input_events

    def test_sequential_stats_fully_identical(self, events):
        query = abc_query(12, 4)
        batch = SequentialEngine(query).run(events)
        session = SequentialEngine(query).open()
        drive_eager(session, events)
        result = session.result()
        assert result.windows == batch.windows
        assert result.groups_created == batch.groups_created
        assert result.groups_completed == batch.groups_completed
        assert result.events_fed == batch.events_fed
        assert result.events_skipped_consumed == batch.events_skipped_consumed


class TestIncrementalEmission:
    """Acceptance: at least one match is returned from a push() call
    *before* the final event, for every registry engine."""

    @pytest.mark.parametrize("name", FACTORY_ALIASES)
    def test_matches_surface_mid_stream(self, name):
        # tumbling windows: every window closes (and for the sharded
        # engine, seals a shard) long before the stream ends
        query = abc_query(6, 6)
        events = [make_event(i, "ABCX"[i % 4]) for i in range(160)]
        session = make_engine(name, query).open()
        matches, before_final = drive_eager(session, events)
        session.close()
        assert before_final > 0
        batch = make_engine(name, query).run(events)
        assert [ce.identity() for ce in matches] == batch.identities()

    def test_lazy_sessions_defer_everything_to_flush(self):
        query = abc_query(6, 6)
        events = [make_event(i, "ABCX"[i % 4]) for i in range(60)]
        session = make_engine("spectre", query).open(eager=False)
        assert all(session.push(event) == [] for event in events)
        final = session.flush()
        assert final
        assert [ce.identity() for ce in final] == \
            SequentialEngine(query).run(events).identities()


class TestBoundedBuffering:
    """Acceptance: the retired stream prefix is dropped on a long
    tumbling-window stream."""

    @pytest.mark.parametrize("name",
                             ["sequential", "trex", "spectre", "sharded"])
    def test_stream_prefix_is_trimmed(self, name):
        query = abc_query(10, 10)
        session = make_engine(name, query).open()
        n = 3000
        for i in range(n):
            session.push(make_event(i, "ABCX"[i % 4]))
        splitter = session.splitter
        assert splitter.stream.offset > n - 50, \
            "retired prefix was not dropped"
        assert splitter.stream.retained <= 50
        assert len(splitter.windows) <= 5  # emitted windows retired
        assert len(splitter.stream) == n  # positions stay global
        session.close()

    def test_order_still_enforced_after_full_trim(self):
        # regression: GC trimming the entire retained buffer (no live
        # window) must not disable the stream's global-order check — a
        # session has to reject exactly what batch run() rejects
        from repro.events import StreamOrderError
        query = abc_query(2, 3)  # gap between windows: buffer empties
        session = make_engine("sequential", query).open()
        for i in range(3):
            session.push(make_event(i, "A", float(10 + i)))
        assert session.splitter.stream.retained == 0
        with pytest.raises(StreamOrderError):
            session.push(make_event(3, "A", 5.0))

    def test_batch_mode_keeps_everything(self):
        query = abc_query(10, 10)
        session = make_engine("spectre", query).open(eager=False)
        for i in range(500):
            session.push(make_event(i, "ABCX"[i % 4]))
        session.flush()
        assert session.splitter.stream.offset == 0
        assert session.splitter.stream.retained == 500


class TestLifecycleEdges:
    def events(self, n=120):
        return abc_stream(n, seed=29)

    @pytest.mark.parametrize("name", ["sequential", "spectre", "sharded"])
    def test_mid_stream_flush_equals_batch_over_prefix(self, name):
        events = self.events()
        half = events[:60]
        session = make_engine(name, abc_query(8, 4)).open()
        matches = []
        for event in half:
            matches.extend(session.push(event))
        matches.extend(session.flush())
        batch = make_engine(name, abc_query(8, 4)).run(half)
        assert [ce.identity() for ce in matches] == batch.identities()

    def test_push_after_flush_raises(self):
        session = make_engine("spectre", abc_query(8, 4)).open()
        session.push(make_event(0, "A"))
        session.flush()
        with pytest.raises(SessionStateError):
            session.push(make_event(1, "B"))
        with pytest.raises(SessionStateError):
            session.flush()

    def test_double_close_is_idempotent(self):
        events = [make_event(i, "ABCX"[i % 4]) for i in range(40)]
        session = make_engine("spectre", abc_query(6, 6)).open()
        trailing = []
        for event in events:
            trailing.extend(session.push(event))
        first_close = session.close()
        trailing.extend(first_close)
        assert session.is_closed
        assert session.close() == []  # second close: no-op
        batch = make_engine("spectre", abc_query(6, 6)).run(events)
        assert [ce.identity() for ce in trailing] == batch.identities()
        with pytest.raises(SessionStateError):
            session.push(make_event(99, "A"))

    def test_closed_session_misuse_raises_dedicated_error(self):
        # closed ≠ merely flushed: middleware needs to tell a clean
        # end-of-stream apart from use of a dead handle
        session = make_engine("spectre", abc_query(8, 4)).open()
        session.push(make_event(0, "A"))
        session.close()
        with pytest.raises(SessionClosedError, match="closed"):
            session.push(make_event(1, "B"))
        with pytest.raises(SessionClosedError, match="1 events pushed"):
            session.flush()
        # the subclass keeps SessionStateError handlers working
        assert issubclass(SessionClosedError, SessionStateError)

    def test_aborted_session_misuse_names_the_abort(self):
        session = make_engine("sequential", abc_query(8, 4)).open()
        session.push(make_event(0, "A"))
        session.abort()
        assert session.state == "aborted"
        with pytest.raises(SessionClosedError, match="aborted"):
            session.push(make_event(1, "B"))

    def test_flushed_session_misuse_stays_a_state_error(self):
        session = make_engine("sequential", abc_query(8, 4)).open()
        session.flush()
        assert session.state == "flushed"
        with pytest.raises(SessionStateError) as info:
            session.push(make_event(0, "A"))
        assert not isinstance(info.value, SessionClosedError)

    def test_close_without_flush_returns_trailing_matches(self):
        # the last window only closes at end-of-stream; close() must
        # surface its matches via the implicit flush
        session = make_engine("sequential", abc_query(50, 50)).open()
        for i, etype in enumerate("ABC"):
            session.push(make_event(i, etype))
        final = session.close()
        assert len(final) == 1

    def test_context_manager_aborts_on_error(self):
        query = abc_query(8, 4)
        with pytest.raises(RuntimeError, match="boom"):
            with make_engine("spectre", query).open() as session:
                session.push(make_event(0, "A"))
                raise RuntimeError("boom")
        assert session.is_closed
        assert not session.is_flushed  # abort skipped the implicit flush

    def test_engine_is_single_use(self):
        engine = make_engine("spectre", abc_query(8, 4))
        engine.run(self.events(20))
        with pytest.raises(RuntimeError, match="already driven"):
            engine.open()

    def test_threaded_session_workers_survive_between_pushes(self):
        query = abc_query(6, 6)
        engine = make_engine("threaded", query)
        events = [make_event(i, "ABCX"[i % 4]) for i in range(80)]
        with engine.open() as session:
            for event in events[:40]:
                session.push(event)
            workers = list(session._workers)
            assert workers and all(w.is_alive() for w in workers)
            for event in events[40:]:
                session.push(event)
            session.flush()
        assert all(not w.is_alive() for w in workers)


# -- randomized parity -------------------------------------------------------

event_types = st.sampled_from(["A", "B", "C", "X"])
streams = st.lists(event_types, min_size=0, max_size=80).map(
    lambda types: [make_event(i, t) for i, t in enumerate(types)])


class TestRandomizedSessionParity:
    """Hypothesis: session == batch for random streams, windows and
    engines — complex events, consumption ledger, stats counters."""

    @settings(max_examples=12, deadline=None)
    @given(stream=streams,
           window=st.integers(min_value=2, max_value=16),
           slide=st.integers(min_value=1, max_value=10),
           name=st.sampled_from(ALL_ENGINES),
           consume_all=st.booleans())
    def test_eager_session_equals_batch(self, stream, window, slide, name,
                                        consume_all):
        consumption = ConsumptionPolicy.all() if consume_all else \
            ConsumptionPolicy.selected("B")
        query = abc_query(window, slide, consumption)
        batch_engine = make_engine(name, query)
        batch = batch_engine.run(stream)
        session = make_engine(name, query).open()
        matches, _ = drive_eager(session, stream)
        assert [ce.identity() for ce in matches] == batch.identities()
        result = session.result()
        assert len(result.complex_events) == len(batch.complex_events)
        if name not in ("sequential", "trex"):
            assert result.stats.windows_total == batch.stats.windows_total
            assert result.stats.windows_emitted == \
                batch.stats.windows_emitted
        session.close()

    @settings(max_examples=12, deadline=None)
    @given(stream=streams,
           cut=st.integers(min_value=0, max_value=80),
           name=st.sampled_from(["sequential", "spectre", "sharded"]))
    def test_mid_stream_flush_parity(self, stream, cut, name):
        prefix = stream[:cut]
        query = abc_query(9, 3)
        session = make_engine(name, query).open()
        matches = []
        for event in prefix:
            matches.extend(session.push(event))
        matches.extend(session.flush())
        batch = make_engine(name, query).run(prefix)
        assert [ce.identity() for ce in matches] == batch.identities()
        session.close()

    @settings(max_examples=8, deadline=None)
    @given(stream=streams, workers=st.sampled_from([1, 2]))
    def test_sharded_streaming_matches_forked_batch(self, stream, workers):
        query = abc_query(5, 5)  # tumbling: every window its own shard
        batch = build_engine(query, "sharded", k=2,
                             workers=workers).run(stream)
        session = build_engine(query, "sharded", k=2,
                               workers=workers).open()
        matches, _ = drive_eager(session, stream)
        assert [ce.identity() for ce in matches] == batch.identities()
        result = session.result()
        assert result.stats.windows_total == batch.stats.windows_total
        assert result.virtual_time == batch.virtual_time


# -- batch-first ingestion: push_many ≡ push ≡ run ---------------------------

WINDOW_SPECS = {
    "slide/count": WindowSpec.count_sliding(6, 3),
    "slide/time": WindowSpec(start=EverySlide(3), scope=TimeScope(5.0)),
    "predicate/count": WindowSpec.count_on(6, lambda e: e.etype == "A"),
    "predicate/time": WindowSpec.time_on(5.0, lambda e: e.etype == "A"),
}


def spec_query(spec_name: str, classified: bool):
    """A B C under one of the four start × scope combinations.  An
    untyped atom disables the plan's type prefilter, so the splitter
    runs without a classifier."""
    middle = Atom("B", etype="B") if classified else \
        Atom("B", predicate=lambda event, bindings: event.etype == "B")
    pattern = sequence(Atom("A", etype="A"), middle, Atom("C", etype="C"))
    return make_query("abc", pattern, WINDOW_SPECS[spec_name],
                      consumption=ConsumptionPolicy.all())


def chunked(events, sizes):
    """Cut ``events`` into consecutive chunks, cycling through ``sizes``."""
    chunks, start, index = [], 0, 0
    while start < len(events):
        size = sizes[index % len(sizes)]
        chunks.append(events[start:start + size])
        start += size
        index += 1
    return chunks


class TestBatchIngestParity:
    """``push`` is the 1-element case of ``push_many``: any chunking of
    a feed gives the per-event session's matches and ledger, and — for
    lazy sessions, which only ingest on push — bit-identical results."""

    @settings(max_examples=30, deadline=None)
    @given(stream=streams,
           sizes=st.lists(st.integers(1, 17), min_size=1, max_size=5),
           spec_name=st.sampled_from(sorted(WINDOW_SPECS)),
           classified=st.booleans(),
           name=st.sampled_from(["sequential", "spectre", "trex"]))
    def test_any_chunking_equals_per_event_push_and_run(
            self, stream, sizes, spec_name, classified, name):
        query = spec_query(spec_name, classified)
        batch = make_engine(name, query).run(stream)

        per_event = make_engine(name, query).open(eager=True, gc=True)
        expected = [m for event in stream for m in per_event.push(event)]
        expected += per_event.flush()

        session = make_engine(name, query).open(eager=True, gc=True)
        matches = []
        for chunk in chunked(stream, sizes):
            matches += session.push_many(chunk)
            # GC ran between batches: nothing below the oldest live
            # window is retained
            splitter = session.splitter
            assert splitter.stream.offset == splitter.min_live_start()
        matches += session.flush()

        identities = [ce.identity() for ce in matches]
        assert identities == [ce.identity() for ce in expected]
        assert identities == batch.identities()
        assert session.consumed_seqs() == per_event.consumed_seqs()
        assert session.events_pushed == per_event.events_pushed
        assert session.watermark == per_event.watermark

    @settings(max_examples=20, deadline=None)
    @given(stream=streams,
           sizes=st.lists(st.integers(1, 17), min_size=1, max_size=5),
           spec_name=st.sampled_from(sorted(WINDOW_SPECS)),
           classified=st.booleans())
    def test_lazy_spectre_is_bit_identical(self, stream, sizes, spec_name,
                                           classified):
        query = spec_query(spec_name, classified)
        batch = make_engine("spectre", query).run(stream)

        per_event = make_engine("spectre", query).open(eager=False)
        for event in stream:
            per_event.push(event)
        per_event.flush()

        session = make_engine("spectre", query).open(eager=False)
        for chunk in chunked(stream, sizes):
            session.push_many(chunk)
        session.flush()

        for result in (per_event.result(), session.result()):
            assert result.identities() == batch.identities()
            assert result.stats.to_dict() == batch.stats.to_dict()
            assert result.stats.window_latencies == \
                batch.stats.window_latencies
            assert result.virtual_time == batch.virtual_time
            assert result.input_events == batch.input_events

    @settings(max_examples=30, deadline=None)
    @given(stream=streams,
           sizes=st.lists(st.integers(1, 17), min_size=1, max_size=5),
           spec=st.sampled_from([
               WindowSpec.count_sliding(4, 4),
               WindowSpec(start=EverySlide(4), scope=TimeScope(2.0)),
               WindowSpec.count_on(3, lambda e: e.etype == "A"),
               WindowSpec.time_on(2.0, lambda e: e.etype == "A")]))
    def test_sharded_cuts_do_not_depend_on_chunking(self, stream, sizes,
                                                    spec):
        """The eager sharded session replays a batch's closes and opens
        in stream order, so it seals the static plan's shards however
        the feed is chunked."""
        pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"))
        query = make_query("ab", pattern, spec,
                           consumption=ConsumptionPolicy.all())
        per_event = make_engine("sharded", query).open()
        expected = [m for event in stream for m in per_event.push(event)]
        expected += per_event.flush()

        session = make_engine("sharded", query).open()
        matches = []
        for chunk in chunked(stream, sizes):
            matches += session.push_many(chunk)
        matches += session.flush()

        assert session.shards == per_event.shards
        assert session.shards == list(plan_shards(spec, stream).shards)
        assert [ce.identity() for ce in matches] == \
            [ce.identity() for ce in expected]
