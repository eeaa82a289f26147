"""Durable subscriptions on the serving runtime: cursors, disconnect
survival, WAL-resume, and restart-over-the-same-WAL — including a real
SIGKILL of a ``python -m repro serve`` subprocess mid-push with a
client resuming from its last cursor after the restart."""

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import generate_nyse, save_events_csv
from repro.durability.wal import iter_records
from repro.hub import StreamHub
from repro.middleware import Middleware
from repro.patterns.parser import parse_query
from repro.server import ServerConfig
from repro.server.client import ServerClient, ServerError
from repro.server.runner import ServeRuntime

BAND_TEXT = """PATTERN (A B)
DEFINE
    A AS (A.closePrice > lowerLimit AND A.closePrice < upperLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit)
WITHIN 40 events FROM every 20 events"""

PARAMS = {"lowerLimit": 49.95, "upperLimit": 50.3}
EVENTS = generate_nyse(900, n_symbols=12, n_leading=8, seed=47)


def reference_seqs(events=EVENTS):
    matches = []
    hub = StreamHub()
    hub.attach(parse_query(BAND_TEXT, name="band", params=PARAMS),
               engine="sequential", name="band",
               sink=lambda ce: matches.append(list(ce.constituent_seqs)))
    hub.push_many(events)
    hub.close()
    return matches


async def start_runtime(wal):
    config = ServerConfig(engine="sequential", wal_dir=str(wal),
                          checkpoint_every=200)
    runtime = ServeRuntime(config, tcp=("127.0.0.1", 0), quiet=True)
    await runtime.start()
    runtime.install_signal_handlers()
    return runtime


async def drain_matches(client, timeout=0.5):
    frames = []
    while True:
        frame = await client.next_frame(timeout=timeout)
        if frame is None:
            break
        if frame.get("type") == "match":
            frames.append(frame)
        elif frame.get("type") == "watermark" and frame.get("final"):
            break
    return frames


def test_durable_cursorered_delivery_and_wal_replay(tmp_path):
    """Cursors are contiguous from 1; a second consumer with
    resume_from=0 receives the full WAL-replayed history identically."""

    async def scenario():
        runtime = await start_runtime(tmp_path)
        port = runtime.tcp.port
        try:
            async with await ServerClient.connect("127.0.0.1",
                                                  port) as client:
                await client.hello()
                ack = await client.subscribe_durable(
                    BAND_TEXT, name="band", params=PARAMS)
                assert ack["durable"] is True and ack["cursor"] == 0
                await client.push_many(EVENTS[:500])
                first = await drain_matches(client)
            assert first, "expected live matches"
            cursors = [frame["cursor"] for frame in first]
            assert cursors == list(range(1, len(cursors) + 1))

            # the disconnect above did NOT detach: replay the history
            async with await ServerClient.connect("127.0.0.1",
                                                  port) as client:
                await client.hello()
                ack = await client.subscribe_durable(
                    BAND_TEXT, name="band", params=PARAMS, resume_from=0)
                assert ack["cursor"] == cursors[-1]
                replayed = await drain_matches(client)
            assert [f["cursor"] for f in replayed] == cursors
            assert [f["match"]["seqs"] for f in replayed] == \
                [f["match"]["seqs"] for f in first]
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())


def test_durable_survives_restart_and_resumes_gapless(tmp_path):
    """Graceful restart over the same WAL: matches that accumulated
    with no consumer connected are delivered exactly once on resume."""

    async def phase_one():
        runtime = await start_runtime(tmp_path)
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                await client.subscribe_durable(BAND_TEXT, name="band",
                                               params=PARAMS)
                await client.push_many(EVENTS[:500])
                frames = await drain_matches(client)
            # push more with NO consumer: matches land in the WAL only
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                await client.push_many(EVENTS[500:])
                await client.flush()
        finally:
            await runtime.shutdown("restart")
        return [frame["cursor"] for frame in frames], \
            [frame["match"]["seqs"] for frame in frames]

    async def phase_two(last_cursor):
        runtime = await start_runtime(tmp_path)
        try:
            core = runtime.core
            assert core.durability.recovery_report.recovered
            # restored parked: visible on the facade before any consumer
            assert [(a.name, a.durable, a.parked)
                    for a in core.hub.attachments] == \
                [("durable/band", True, True)]
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                ack = await client.subscribe_durable(
                    BAND_TEXT, name="band", params=PARAMS,
                    resume_from=last_cursor)
                frames = await drain_matches(client)
        finally:
            await runtime.shutdown("test-teardown")
        return [frame["cursor"] for frame in frames], \
            [frame["match"]["seqs"] for frame in frames]

    cursors1, seqs1 = asyncio.run(phase_one())
    assert cursors1 and cursors1 == list(range(1, len(cursors1) + 1))
    cursors2, seqs2 = asyncio.run(phase_two(cursors1[-1]))
    assert cursors2 == list(range(cursors1[-1] + 1,
                                  cursors1[-1] + 1 + len(cursors2)))
    assert seqs1 + seqs2 == reference_seqs()


def test_durable_requires_wal_and_name(tmp_path):
    async def scenario():
        config = ServerConfig(engine="sequential")  # no WAL
        runtime = ServeRuntime(config, tcp=("127.0.0.1", 0), quiet=True)
        await runtime.start()
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                with pytest.raises(ServerError, match="WAL"):
                    await client.subscribe_durable(BAND_TEXT, name="x")
        finally:
            await runtime.shutdown("test-teardown")

        runtime = await start_runtime(tmp_path)
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                with pytest.raises(ServerError, match="name"):
                    await client.subscribe(BAND_TEXT, durable=True)
                # one durable attachment allows only one live consumer
                await client.subscribe_durable(BAND_TEXT, name="band",
                                               params=PARAMS)
                async with await ServerClient.connect(
                        "127.0.0.1", runtime.tcp.port) as second:
                    await second.hello()
                    with pytest.raises(ServerError, match="consumer"):
                        await second.subscribe_durable(
                            BAND_TEXT, name="band", params=PARAMS)
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())


def test_refused_durable_subscribe_leaves_no_durable_latch(tmp_path):
    """A durable subscribe whose query does not parse must not make the
    *next* attachment (a plain one) restorable."""

    async def scenario():
        runtime = await start_runtime(tmp_path)
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                with pytest.raises(ServerError, match="subscribe failed"):
                    await client.subscribe_durable("PATTERN (", name="x")
                await client.subscribe(BAND_TEXT, name="plain",
                                       params=PARAMS)
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())
    attached = {record["name"]: record["durable"]
                for _segment, record in iter_records(tmp_path)
                if record["t"] == "attach"}
    assert attached == {"c1/plain": False}


def test_durable_unsubscribe_detaches_for_real(tmp_path):
    async def scenario():
        runtime = await start_runtime(tmp_path)
        try:
            core = runtime.core
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                await client.subscribe_durable(BAND_TEXT, name="band",
                                               params=PARAMS)
                await client.push_many(EVENTS[:100])
                ack = await client.unsubscribe("band")
                assert ack["op"] == "unsubscribe"
            assert core.server_stats()["durable_subscriptions"] == 0
            assert core.hub.attachments == ()
            assert core.hub.stats().attachments_live == 0
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())


@pytest.mark.parametrize("durable", [False, True])
def test_small_queue_backpressures_every_subscription_kind(tmp_path,
                                                           durable):
    """One ``push_many`` whose matches overflow an 8-slot attachment
    queue five times over: a durable subscription with a connected
    consumer backpressures exactly like a plain one — every match, in
    oracle order, the durable cursors contiguous from 1."""

    async def scenario():
        config = ServerConfig(engine="sequential", wal_dir=str(tmp_path),
                              queue_size=8)
        runtime = ServeRuntime(config, tcp=("127.0.0.1", 0), quiet=True)
        await runtime.start()
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello()
                await client.subscribe(BAND_TEXT, name="band",
                                       params=PARAMS, durable=durable)
                await client.push_many(EVENTS)
                await client.flush()
                return await drain_matches(client, timeout=5.0)
        finally:
            await runtime.shutdown("test-teardown")

    frames = asyncio.run(scenario())
    expected = reference_seqs()
    assert len(expected) > 5 * 8
    assert [frame["match"]["seqs"] for frame in frames] == expected
    assert [frame.get("cursor") for frame in frames] == [
        index + 1 if durable else None for index in range(len(expected))]


class RecordingMiddleware(Middleware):
    def __init__(self):
        self.attached = []
        self.matched = []

    def on_attach(self, context, call_next):
        self.attached.append(context.name)
        return call_next(context)

    def on_match(self, context, call_next):
        self.matched.append((context.attachment.name, context.cursor))
        return call_next(context)


def test_durable_subscriptions_ride_the_interception_chain(tmp_path):
    """Durable subscriptions attach through the same chain as plain
    ones: the metrics middleware counts their matches, user middleware
    sees their attach and every match, the parked attachment stays
    visible on the facade, and the auth refusal is the middleware's."""
    recording = RecordingMiddleware()

    async def scenario():
        config = ServerConfig(engine="sequential", wal_dir=str(tmp_path),
                              auth_token="s3", middleware=(recording,))
        runtime = ServeRuntime(config, tcp=("127.0.0.1", 0), quiet=True)
        await runtime.start()
        core = runtime.core
        try:
            async with await ServerClient.connect(
                    "127.0.0.1", runtime.tcp.port) as client:
                await client.hello(token="s3")
                await client.subscribe_durable(BAND_TEXT, name="band",
                                               params=PARAMS)
                await client.push_many(EVENTS)
                await client.flush()
                frames = await drain_matches(client, timeout=5.0)
            total = len(reference_seqs())
            assert len(frames) == total
            assert recording.attached == ["durable/band"]
            assert recording.matched == [
                ("durable/band", cursor) for cursor in range(1, total + 1)]
            assert f'repro_matches_total{{scope="durable/band"}} {total}' \
                in core.render_metrics()
            # the consumer is gone, the attachment is not
            for _ in range(100):
                if core.hub.attachments[0].parked:
                    break
                await asyncio.sleep(0.01)
            assert [(a.name, a.durable, a.parked)
                    for a in core.hub.attachments] == \
                [("durable/band", True, True)]

            # a session that was greeted without authenticating (no
            # wire path produces one: this is the "whatever code path
            # tries" case) can neither create nor adopt a durable name
            session = core.connect("test", "tcp")
            session.greeted = True
            for name in ("other", "band"):
                alive = await core.handle_frame(
                    session, {"type": "subscribe", "query": BAND_TEXT,
                              "params": PARAMS, "name": name,
                              "durable": True})
                assert not alive
                assert session.outbox.get_nowait()["code"] == \
                    "unauthorized"
            assert core.auth.refused_total == 2
            assert [(a.name, a.parked) for a in core.hub.attachments] \
                == [("durable/band", True)]
            await core.disconnect(session)
        finally:
            await runtime.shutdown("test-teardown")

    asyncio.run(scenario())


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkill_serve_subprocess_then_resume(tmp_path):
    """The CI smoke, as a test: SIGKILL ``repro serve --wal`` mid-push,
    restart it over the same WAL, resume from the last seen cursor, and
    check the combined delivery against the uninterrupted reference."""
    wal = tmp_path / "wal"
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent
                              / "src"))

    def spawn():
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", "127.0.0.1:0", "--engine", "sequential",
             "--wal", str(wal), "--checkpoint-every", "150"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        for _ in range(50):
            line = proc.stdout.readline()
            match = re.search(r"serving tcp on 127\.0\.0\.1:(\d+)", line)
            if match:
                return proc, int(match.group(1))
        raise AssertionError("server did not report its port")

    async def consume(port, resume_from=None, push=None, flush=False):
        async with await ServerClient.connect("127.0.0.1",
                                              port) as client:
            await client.hello()
            await client.subscribe_durable(BAND_TEXT, name="band",
                                           params=PARAMS,
                                           resume_from=resume_from)
            if push is not None:
                await client.push_many(push)
            if flush:
                await client.flush()
            frames = await drain_matches(client, timeout=1.0)
        return [(f["cursor"], f["match"]["seqs"]) for f in frames]

    proc, port = spawn()
    try:
        first = asyncio.run(consume(port, push=EVENTS[:600]))
        time.sleep(0.2)  # batch fsync: give the WAL a moment on disk
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    assert first
    last_cursor = first[-1][0]
    proc2, port2 = spawn()
    try:
        second = asyncio.run(consume(
            port2, resume_from=last_cursor, push=EVENTS[600:],
            flush=True))
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=10)

    cursors = [c for c, _s in first] + [c for c, _s in second]
    assert cursors == list(range(1, len(cursors) + 1)), "cursor gap"
    delivered = [s for _c, s in first] + [s for _c, s in second]
    assert delivered == reference_seqs()
