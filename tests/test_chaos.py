"""Chaos suite: seeded fault injection at every layer boundary, with
parity oracles asserting the core invariants survive — the effective
(post-fault) stream is deterministic and recomputable, sink failures
stay isolated, transient WAL write failures are absorbed by the retry
path, durable recovery over a chaos run replays exactly what the
faulted hub ingested, and injected connection resets never cost a
durable subscriber a match (exactly-once by cursor)."""

import asyncio
import hashlib

import pytest

from repro.datasets import generate_nyse
from repro.hub import StreamHub
from repro.middleware.sinks import SinkError
from repro.patterns.parser import parse_query
from repro.durability import DurableHub
from repro.durability.manager import DurabilityManager
from repro.resilience import (
    ChaosConfig,
    ChaosError,
    ChaosMiddleware,
    ConnectionChaos,
    FlakyWalWriter,
    effective_stream,
)
from repro.server import ServerConfig
from repro.server.client import ServerClient
from repro.server.runner import ServeRuntime

BAND_TEXT = """PATTERN (A B)
DEFINE
    A AS (A.closePrice > lowerLimit AND A.closePrice < upperLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit)
WITHIN 40 events FROM every 20 events"""

PARAMS = {"lowerLimit": 49.95, "upperLimit": 50.3}
EVENTS = generate_nyse(900, n_symbols=12, n_leading=8, seed=47)


def band_query(name="band"):
    return parse_query(BAND_TEXT, name=name, params=PARAMS)


def run_bare(events):
    """Fault-free reference: seqs of every match on ``events``."""
    matches = []
    hub = StreamHub()
    hub.attach(band_query(), engine="sequential", name="band",
               sink=lambda ce: matches.append(list(ce.constituent_seqs)))
    hub.push_many(events)
    hub.close()
    return matches


# -- configuration ----------------------------------------------------------

class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(sink_error_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(drop_rate=0.5, dup_rate=0.4, delay_rate=0.2)
        with pytest.raises(ValueError):
            ChaosConfig(max_held=-1)

    def test_defaults_are_all_off(self):
        cfg = ChaosConfig(seed=7)
        stream = effective_stream(cfg, EVENTS)
        assert stream == list(EVENTS)


# -- effective stream oracle ------------------------------------------------

class TestEffectiveStream:
    CFG = ChaosConfig(seed=11, drop_rate=0.05, dup_rate=0.05,
                      delay_rate=0.05)

    def test_deterministic_per_seed(self):
        one = effective_stream(self.CFG, EVENTS)
        two = effective_stream(self.CFG, EVENTS)
        assert one == two
        other = effective_stream(
            ChaosConfig(seed=12, drop_rate=0.05, dup_rate=0.05,
                        delay_rate=0.05), EVENTS)
        assert one != other, "different seed must perturb differently"

    def test_seeded_stream_is_pinned(self):
        """The seeded post-fault stream is a contract (every chaos
        parity oracle is built from it), and per-event ``push`` is its
        1-element chunking — with ``max_held`` small enough to be hit."""
        cfg = ChaosConfig(seed=11, drop_rate=0.05, dup_rate=0.05,
                          delay_rate=0.3, max_held=4)

        def seqs(events, chunk):
            return [e.seq for e in effective_stream(cfg, events,
                                                    chunk=chunk)]

        def digest(chunk):
            return hashlib.sha256(
                repr(seqs(EVENTS, chunk)).encode()).hexdigest()[:16]

        per_push = [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 11, 12, 12, 13, 14, 16,
            17, 18, 19, 20, 22, 23, 23, 24, 25, 27, 28, 29, 30, 31, 32, 33,
            34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 43, 44, 45, 46, 47, 48,
            49, 51, 52, 53, 54, 55, 56, 56, 57, 58, 59, 60, 60, 61, 62, 63,
            64, 65, 66, 67, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78,
            79]
        assert seqs(EVENTS[:80], None) == per_push
        assert seqs(EVENTS[:80], 1) == per_push
        assert seqs(EVENTS[:80], 64) == [
            0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 10, 12, 12, 13, 14, 16, 17, 18,
            19, 22, 23, 23, 25, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
            38, 39, 40, 41, 42, 43, 43, 44, 45, 46, 47, 48, 49, 51, 52, 53,
            54, 55, 56, 56, 57, 58, 59, 60, 60, 61, 62, 63, 6, 11, 20, 24,
            67, 67, 68, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 64, 65, 66,
            69]
        assert digest(None) == digest(1) == "bef4812c4b466a44"
        assert digest(64) == "56e96b381d50ff92"

    def test_chunked_is_same_multiset(self):
        # per-event and chunked ingestion release held (delayed) events
        # at different boundaries: order differs, content must not
        per_event = effective_stream(self.CFG, EVENTS)
        chunked = effective_stream(self.CFG, EVENTS, chunk=64)
        assert sorted(e.seq for e in per_event) == \
            sorted(e.seq for e in chunked)

    def test_counters_account_for_every_event(self):
        middleware = ChaosMiddleware(self.CFG)
        hub = StreamHub(middleware=[middleware])
        for event in EVENTS:
            hub.push(event)
        hub.close()
        counters = middleware.counters
        assert counters["events_seen"] == len(EVENTS)
        assert counters["events_dropped"] > 0
        assert counters["events_duplicated"] > 0
        assert counters["events_delayed"] > 0
        assert counters["events_released"] == counters["events_delayed"]
        assert middleware.held == 0, "flush must release every held event"
        ingested = (counters["events_seen"] - counters["events_dropped"]
                    + counters["events_duplicated"])
        assert hub.events_pushed == ingested


class TestHubChaosParity:
    """A hub behind ChaosMiddleware matches a bare hub fed the
    recomputed effective stream — the oracle for every chaos test."""

    CFG = ChaosConfig(seed=29, drop_rate=0.08, dup_rate=0.04,
                      delay_rate=0.06, max_held=5)

    def _run_chaos_hub(self, push):
        matches = []
        hub = StreamHub(middleware=[ChaosMiddleware(self.CFG)])
        hub.attach(band_query(), engine="sequential", name="band",
                   sink=lambda ce: matches.append(
                       list(ce.constituent_seqs)))
        push(hub)
        hub.close()
        return matches

    def test_per_event_parity(self):
        def push(hub):
            for event in EVENTS:
                hub.push(event)
        delivered = self._run_chaos_hub(push)
        oracle = run_bare(effective_stream(self.CFG, EVENTS))
        assert delivered == oracle

    def test_chunked_parity(self):
        def push(hub):
            for start in range(0, len(EVENTS), 64):
                hub.push_many(EVENTS[start:start + 64])
        delivered = self._run_chaos_hub(push)
        oracle = run_bare(effective_stream(self.CFG, EVENTS, chunk=64))
        assert delivered == oracle


# -- sink faults ------------------------------------------------------------

class TestFlakySink:
    def test_injected_sink_errors_stay_isolated(self):
        cfg = ChaosConfig(seed=5, sink_error_rate=0.3)
        chaos = ChaosMiddleware(cfg)
        delivered = []
        hub = StreamHub(middleware=[chaos])
        hub.attach(band_query(), engine="sequential", name="band",
                   sink=chaos.wrap_sink(
                       lambda ce: delivered.append(
                           list(ce.constituent_seqs))))
        hub.push_many(EVENTS)  # never raises: sink errors are captured
        with pytest.raises(SinkError) as info:
            hub.flush()
        hub.close()
        errors = info.value.errors
        assert errors and all(isinstance(err, ChaosError)
                              for _sink, _match, err in errors)
        assert len(errors) == chaos.counters["sink_errors_injected"]
        # no match is lost to the error path: delivered + failed
        # deliveries account for the whole fault-free reference
        assert len(delivered) + len(errors) == len(run_bare(EVENTS))
        assert delivered, "most deliveries should still succeed"


# -- WAL write faults -------------------------------------------------------

class _FakeWriter:
    records_written = 0
    bytes_written = 0

    def __init__(self):
        self.appended = []

    def append(self, record):
        self.appended.append(record)
        return len(self.appended)

    def close(self):
        pass


class TestFlakyWalWriter:
    def test_max_failures_bounds_injection(self):
        inner = _FakeWriter()
        writer = FlakyWalWriter(inner, rate=1.0, seed=1, max_failures=2)
        for _ in range(2):
            with pytest.raises(OSError):
                writer.append({"t": "x"})
        assert writer.append({"t": "x"}) == 1  # budget spent: delegates
        assert writer.failures_injected == 2
        assert len(inner.appended) == 1

    def test_manager_retry_absorbs_transient_failures(self, tmp_path):
        cfg = ChaosConfig(seed=17, wal_fail_rate=0.15)
        chaos = ChaosMiddleware(cfg)
        manager = DurabilityManager(tmp_path, checkpoint_every=300,
                                    fsync="never", wal_write_retries=6)
        manager.wal_writer_wrapper = chaos.wrap_wal_writer
        hub = manager.start(middleware=[chaos])
        manager.set_durable(True)
        hub.attach(band_query(), engine="sequential", name="band")
        for event in EVENTS[:300]:
            hub.push(event)
            manager.maybe_checkpoint()
        hub.close()
        manager.close(checkpoint=True)
        assert manager.wal_write_failures > 0, "no faults injected"
        assert chaos.counters["wal_failures_injected"] == \
            manager.wal_write_failures
        # the WAL is intact despite the turbulence: recovery works
        recovered = DurabilityManager(tmp_path, fsync="never")
        recovered.start()
        assert recovered.cursor("band") > 0

    def test_retry_exhaustion_propagates(self, tmp_path):
        manager = DurabilityManager(tmp_path, fsync="never",
                                    wal_write_retries=2)
        manager.wal_writer_wrapper = lambda writer: FlakyWalWriter(
            writer, rate=1.0, seed=0)
        with pytest.raises(OSError, match="injected WAL write failure"):
            manager.start()  # the segment's meta record cannot land


# -- durable chaos parity ---------------------------------------------------

class TestDurableChaosParity:
    def test_wal_journals_post_fault_stream_and_recovers(self, tmp_path):
        """Chaos outside durability: the WAL must journal the *post*
        -fault stream, so recovery and read_emits replay exactly what
        the faulted hub ingested — exactly-once on the match log."""
        cfg = ChaosConfig(seed=41, drop_rate=0.06, dup_rate=0.04,
                          delay_rate=0.05, wal_fail_rate=0.05)
        chaos = ChaosMiddleware(cfg)
        live = []
        manager = DurabilityManager(tmp_path, checkpoint_every=250,
                                    fsync="never", wal_write_retries=6)
        manager.wal_writer_wrapper = chaos.wrap_wal_writer
        hub = manager.start(middleware=[chaos])
        manager.set_durable(True)
        hub.attach(band_query(), engine="sequential", name="band",
                   sink=lambda ce: live.append(list(ce.constituent_seqs)))
        for event in EVENTS:
            hub.push(event)
            manager.maybe_checkpoint()
        hub.close()
        manager.close(checkpoint=True)

        oracle = run_bare(effective_stream(cfg, EVENTS))
        assert live == oracle

        recovered = DurabilityManager(tmp_path, fsync="never")
        recovered.start()
        assert recovered.recovery_report.recovered
        assert recovered.cursor("band") == len(oracle)
        emits = list(recovered.read_emits("band"))
        assert [cursor for cursor, _wire in emits] == \
            list(range(1, len(oracle) + 1))
        assert [wire["seqs"] for _cursor, wire in emits] == oracle


# -- connection resets ------------------------------------------------------

class TestConnectionChaos:
    def test_every_nth_frame_resets(self):
        chaos = ConnectionChaos(seed=0, reset_after=5)
        decisions = [chaos.should_reset() for _ in range(12)]
        assert [i for i, hit in enumerate(decisions, start=1) if hit] \
            == [5, 10]
        assert chaos.connections_reset == 2

    def test_reset_rate_is_seeded(self):
        one = ConnectionChaos(seed=9, reset_rate=0.3)
        two = ConnectionChaos(seed=9, reset_rate=0.3)
        da = [one.should_reset() for _ in range(50)]
        db = [two.should_reset() for _ in range(50)]
        assert da == db
        assert any(da) and not all(da)


# -- server-level chaos -----------------------------------------------------

async def start_runtime(chaos, *, wal=None, port=0):
    config = ServerConfig(engine="sequential", chaos=chaos,
                          wal_dir=None if wal is None else str(wal),
                          checkpoint_every=200)
    runtime = ServeRuntime(config, tcp=("127.0.0.1", port), quiet=True)
    await runtime.start()
    return runtime


def test_server_event_faults_surface_in_stats_and_metrics():
    async def scenario():
        runtime = await start_runtime(
            ChaosConfig(seed=3, drop_rate=0.1, dup_rate=0.1))
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                await client.push_many(EVENTS[:400])
                await client.flush()
            stats = runtime.core.server_stats()
            chaos = stats["chaos"]
            assert chaos["events_seen"] == 400
            assert chaos["events_dropped"] > 0
            assert chaos["events_duplicated"] > 0
            metrics = runtime.core.render_metrics()
            assert "chaos_events_dropped" in metrics
            assert "resilience_connections_reset" in metrics
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())


def test_connection_resets_never_cost_a_durable_subscriber(tmp_path):
    """Inject a reset every Nth frame while a pusher streams NYSE in
    batches (retrying on at-least-once semantics) and a durable tail
    rides its auto-reconnect.  The tail's cursor stream must be
    contiguous and its matches exactly the WAL's emit log."""

    async def scenario():
        runtime = await start_runtime(
            ChaosConfig(seed=9, reset_after=17), wal=tmp_path)
        port = runtime.tcp.port
        from repro.resilience import Backoff
        tail = await ServerClient.connect(
            "127.0.0.1", port,
            reconnect=Backoff(initial=0.05, max_delay=0.2, seed=2))
        frames = []
        retries = 0
        pusher = None

        async def with_retry(op):
            # a reset drops the socket *after* the request was handled:
            # the retry re-sends it, so ingestion is at-least-once (the
            # oracle below is therefore the WAL, not the bare stream)
            nonlocal pusher, retries
            while True:
                try:
                    if pusher is None:
                        pusher = await ServerClient.connect(
                            "127.0.0.1", port)
                        await pusher.hello()
                    return await op(pusher)
                except (ConnectionError, OSError,
                        asyncio.IncompleteReadError):
                    retries += 1
                    try:
                        await pusher.close()
                    except (ConnectionError, OSError):
                        pass
                    pusher = None

        try:
            await tail.hello()
            await tail.subscribe_durable(BAND_TEXT, name="band",
                                         params=PARAMS)
            for start in range(0, len(EVENTS), 40):
                batch = EVENTS[start:start + 40]
                await with_retry(lambda p: p.push_many(batch))
            await with_retry(lambda p: p.flush())
            if pusher is not None:
                await pusher.close()

            while True:
                frame = await tail.next_frame(timeout=5.0)
                assert frame is not None, "durable stream went silent"
                if frame.get("type") == "match":
                    frames.append(frame)
                elif frame.get("type") == "watermark" and \
                        frame.get("final"):
                    break
        finally:
            await tail.close()
            await runtime.shutdown("test-teardown")

        assert runtime.core.connections_reset_total >= 1, \
            "chaos never fired — reset_after too high for this traffic"
        assert retries >= 1, "pusher never observed a reset"

        cursors = [frame["cursor"] for frame in frames]
        assert cursors == list(range(1, len(cursors) + 1)), "cursor gap"
        emits = list(runtime.core.durability.read_emits("durable/band"))
        assert [frame["match"]["seqs"] for frame in frames] == \
            [wire["seqs"] for _cursor, wire in emits]
        # exactly one engine attachment serves the durable name — the
        # reconnects resumed it, they did not leak copies
        inner = runtime.core.durability.hub
        assert sum(1 for att in inner.attachments
                   if att.name == "durable/band") == 1

    asyncio.run(scenario())
