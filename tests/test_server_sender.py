"""The coalescing sender: one transport write per wake-up, frame order
and every outbox rule unchanged.

``Connection._sender`` drains what the outbox already holds into one
``send_encoded`` call.  Unit tests drive it over a recording transport
(stalled or failing on demand); end-to-end tests run real TCP and
WebSocket servers and check what a client sees — same frames, same
order, one WebSocket text frame per protocol frame — while counting the
writes underneath.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import pipeline
from repro.events import make_event
from repro.patterns.parser import parse_query
from repro.server import (
    ServerClient,
    ServerConfig,
    ServerCore,
    TCPServer,
    WSServer,
)
from repro.server import ws as wslib
from repro.server.core import _CLOSE, Connection
from repro.server.protocol import decode_frame, encode_frame
from repro.server.tcp import TCPConnection
from repro.server.ws import WSConnection

AB_TEXT = "PATTERN (A B)\nWITHIN 4 events FROM every 2 events\n"


class RecordingConnection(Connection):
    """A transport that records each write (as its decoded frames), can
    stall inside a write and can fail one."""

    transport = "fake"

    def __init__(self, core, stalled=False, fail_on=None):
        super().__init__(core, "peer")
        self.writes: list[list[dict]] = []
        self.gate = asyncio.Event()
        if not stalled:
            self.gate.set()
        self.fail_on = fail_on          # index of the write that fails
        self.attempts = 0
        self.closed = False

    async def send_encoded(self, payloads):
        attempt, self.attempts = self.attempts, self.attempts + 1
        await self.gate.wait()
        if attempt == self.fail_on:
            raise ConnectionResetError("peer went away")
        self.writes.append([decode_frame(p) for p in payloads])

    async def close_transport(self):
        self.closed = True


def start_sender(config=None, **transport):
    core = ServerCore(config or ServerConfig(engine="sequential"))
    connection = RecordingConnection(core, **transport)
    session = core.connect("peer", "fake")
    session.connection = connection
    task = asyncio.ensure_future(connection._sender(session))
    return core, connection, session, task


def frames_out(core):
    return core._counter_frames_out.values.get((), 0.0)


def match(cursor):
    return {"type": "match", "subscription": "q", "cursor": cursor}


class TestSenderUnit:
    def test_one_write_per_wake_up_in_queue_order(self):
        async def scenario():
            core, conn, session, task = start_sender()
            for cursor in range(5):
                await session.send(match(cursor))
            await session.send({"type": "ack", "op": "push_many"})
            await session.end_outbox()
            await asyncio.wait_for(task, 1.0)
            assert len(conn.writes) == 1
            assert [f.get("cursor") for f in conn.writes[0]] == \
                [0, 1, 2, 3, 4, None]
            assert frames_out(core) == 6      # frames, not writes
            assert session.frames_out == 6
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_frames_queued_during_a_write_go_out_in_the_next(self):
        async def scenario():
            core, conn, session, task = start_sender(stalled=True)
            await session.send(match(0))
            await asyncio.sleep(0)            # sender picks it up, stalls
            for cursor in (1, 2, 3):
                await session.send(match(cursor))
            conn.gate.set()
            await session.end_outbox()
            await asyncio.wait_for(task, 1.0)
            assert [[f["cursor"] for f in w] for w in conn.writes] == \
                [[0], [1, 2, 3]]
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_what_precedes_a_close_met_mid_drain_is_flushed(self):
        async def scenario():
            core, conn, session, task = start_sender()
            session.outbox.put_nowait(match(0))
            session.outbox.put_nowait(match(1))
            session.outbox.put_nowait(_CLOSE)
            session.outbox.put_nowait(match(2))   # after the sentinel
            await asyncio.wait_for(task, 1.0)
            assert [[f["cursor"] for f in w] for w in conn.writes] == \
                [[0, 1]]
            assert frames_out(core) == 2
            assert session.outbox.qsize() == 1    # never consumed
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_a_write_is_bounded_by_max_frame_bytes(self):
        async def scenario():
            one = len(encode_frame(match(0)))
            core, conn, session, task = start_sender(
                ServerConfig(engine="sequential", max_frame=3 * one))
            for cursor in range(8):
                await session.send(match(cursor))
            await session.end_outbox()
            await asyncio.wait_for(task, 1.0)
            assert [[f["cursor"] for f in w] for w in conn.writes] == \
                [[0, 1, 2], [3, 4, 5], [6, 7]]
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_keeps_consuming_after_a_failed_write(self):
        async def scenario():
            core, conn, session, task = start_sender(
                ServerConfig(engine="sequential", send_queue=2),
                fail_on=0)
            await session.send(match(0))
            await asyncio.sleep(0.01)             # the write fails
            # a dead socket must never leave a producer suspended on
            # the (tiny) outbox: every later frame is consumed, dropped
            for cursor in range(1, 10):
                await asyncio.wait_for(session.send(match(cursor)), 1.0)
            await session.end_outbox()
            await asyncio.wait_for(task, 1.0)
            assert conn.writes == [] and conn.attempts == 1
            assert frames_out(core) == 0
            assert session.outbox.empty()
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_drop_oldest_against_a_stalled_socket(self):
        async def scenario():
            core, conn, session, task = start_sender(
                ServerConfig(engine="sequential", send_queue=4,
                             slow_consumer="drop_oldest"), stalled=True)
            await session.send(match(0))
            await asyncio.sleep(0)                # in flight, stalled
            for cursor in range(1, 11):
                await session.send(match(cursor))
            assert session.frames_dropped == 6
            assert core.frames_dropped_total == 6
            conn.gate.set()
            await session.end_outbox()
            await asyncio.wait_for(task, 1.0)
            assert [[f["cursor"] for f in w] for w in conn.writes] == \
                [[0], [7, 8, 9, 10]]
            assert frames_out(core) == 5
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_disconnect_against_a_stalled_socket(self):
        async def scenario():
            core, conn, session, task = start_sender(
                ServerConfig(engine="sequential", send_queue=2,
                             slow_consumer="disconnect"), stalled=True)
            await session.send(match(0))
            await asyncio.sleep(0)                # in flight, stalled
            for cursor in (1, 2, 3):              # the third finds it full
                await session.send(match(cursor))
            assert core.slow_disconnects == 1
            await asyncio.sleep(0.05)             # the async reap
            assert session.closed and conn.closed
            conn.gate.set()
            await asyncio.wait_for(task, 1.0)
            sent = [f for w in conn.writes for f in w]
            assert sent[0]["cursor"] == 0
            assert {"type": "goodbye", "reason": "slow_consumer"} in sent
            await core.shutdown("test-teardown")

        asyncio.run(scenario())


class FakeWriter:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.drains = 0

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        self.drains += 1


class TestTransports:
    def test_tcp_joins_lines_into_one_write(self):
        async def scenario():
            core = ServerCore(ServerConfig(engine="sequential"))
            writer = FakeWriter()
            conn = TCPConnection(core, None, writer, "tcp:test")
            payloads = [encode_frame(match(c)) for c in range(3)]
            await conn.send_encoded(payloads)
            assert writer.chunks == [b"".join(payloads)]
            assert writer.drains == 1
            assert [decode_frame(line)["cursor"]
                    for line in writer.chunks[0].splitlines()] == [0, 1, 2]
            await core.shutdown("test-teardown")

        asyncio.run(scenario())

    def test_ws_keeps_one_text_frame_per_protocol_frame(self):
        async def scenario():
            core = ServerCore(ServerConfig(engine="sequential"))
            writer = FakeWriter()
            conn = WSConnection(core, None, writer, "ws:test")
            big = {"type": "match", "pad": "x" * 70000}   # 8-byte length
            payloads = [encode_frame(f)
                        for f in (match(0), big, match(2))]
            await conn.send_encoded(payloads)
            assert len(writer.chunks) == 1 and writer.drains == 1
            reader = asyncio.StreamReader()
            reader.feed_data(writer.chunks[0])
            reader.feed_eof()
            got = []
            for _ in payloads:
                fin, opcode, payload = await wslib.read_ws_frame(
                    reader, require_mask=False)
                assert fin and opcode == wslib.OP_TEXT
                assert not payload.endswith(b"\n")
                got.append(decode_frame(payload))
            assert got == [match(0), big, match(2)]
            assert await reader.read() == b""
            await core.shutdown("test-teardown")

        asyncio.run(scenario())


@pytest.mark.parametrize("transport", ["tcp", "ws"])
def test_served_frames_keep_their_order_and_count(transport, monkeypatch):
    """A match-dense chunk leaves in fewer writes than frames, and the
    subscriber still sees every frame, in order, one message each;
    ``server_frames_out_total`` counts frames."""
    events = [make_event(i, "AB"[i % 2]) for i in range(200)]
    expected = [list(ce.constituent_seqs) for ce in pipeline(
        parse_query(AB_TEXT, name="alone")).engine("sequential")
        .run(events).complex_events]
    assert len(expected) > 50

    writes = []
    for cls in (TCPConnection, WSConnection):
        original = cls.send_encoded

        async def counting(self, payloads, _original=original):
            writes.append(len(payloads))
            await _original(self, payloads)

        monkeypatch.setattr(cls, "send_encoded", counting)

    async def scenario():
        core = ServerCore(ServerConfig(engine="sequential"))
        server = (TCPServer if transport == "tcp" else WSServer)(
            core, "127.0.0.1", 0)
        await server.start()
        try:
            client = await ServerClient.connect(
                "127.0.0.1", server.port, transport=transport)
            await client.hello()
            await client.subscribe(AB_TEXT, name="ab", watermarks=True)
            await client.push_many(events)
            await client.flush()
            got, received = [], 3 + 1     # hello/subscribe/push_many/flush acks
            async for frame in client.frames():
                received += 1
                if frame["type"] == "match":
                    got.append(frame["match"]["seqs"])
                elif frame["type"] == "watermark" and frame.get("final"):
                    break
            assert got == expected
            assert sum(writes) == received
            assert core._counter_frames_out.values[()] == received
            assert len(writes) < received, "nothing was coalesced"
            await client.close()
        finally:
            await server.stop()
            await core.shutdown("test-teardown")

    asyncio.run(scenario())
