"""Recovery half of the resilience layer: the deterministic Backoff
schedule and ServerClient's reconnect-and-resume — including the
acceptance scenario: SIGKILL a ``repro serve --wal`` subprocess while a
reconnecting ServerClient tails a durable subscription, restart the server,
and the client resumes gaplessly with no manual ``--resume-from``."""

import asyncio
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import generate_nyse
from repro.hub import StreamHub
from repro.patterns.parser import parse_query
from repro.resilience import Backoff
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


def reference_seqs(events=EVENTS):
    matches = []
    hub = StreamHub()
    hub.attach(parse_query(BAND_TEXT, name="band", params=PARAMS),
               engine="sequential", name="band",
               sink=lambda ce: matches.append(list(ce.constituent_seqs)))
    hub.push_many(events)
    hub.close()
    return matches


# -- Backoff ---------------------------------------------------------------

def test_backoff_schedule_grows_and_caps():
    backoff = Backoff(initial=0.1, multiplier=2.0, max_delay=1.0,
                      jitter=0.0)
    delays = [backoff.next_delay() for _ in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


def test_backoff_jitter_is_bounded_and_seeded():
    a = Backoff(initial=1.0, multiplier=1.0, max_delay=1.0,
                jitter=0.25, seed=42)
    b = Backoff(initial=1.0, multiplier=1.0, max_delay=1.0,
                jitter=0.25, seed=42)
    da = [a.next_delay() for _ in range(20)]
    db = [b.next_delay() for _ in range(20)]
    assert da == db, "same seed must give the same jittered schedule"
    assert all(0.75 <= d <= 1.25 for d in da)
    assert len(set(da)) > 1, "jitter should actually perturb"


def test_backoff_budget_and_reset():
    backoff = Backoff(initial=0.1, max_retries=3, jitter=0.0)
    assert len(list(backoff.delays())) == 3
    with pytest.raises(StopIteration):
        backoff.next_delay()
    backoff.reset()
    assert backoff.next_delay() == 0.1


def test_backoff_validation():
    with pytest.raises(ValueError):
        Backoff(initial=0.0)
    with pytest.raises(ValueError):
        Backoff(multiplier=0.5)
    with pytest.raises(ValueError):
        Backoff(jitter=1.0)


# -- ServerClient(reconnect=Backoff) ---------------------------------------

async def start_runtime(wal, port=0):
    config = ServerConfig(engine="sequential", wal_dir=str(wal),
                          checkpoint_every=200)
    runtime = ServeRuntime(config, tcp=("127.0.0.1", port), quiet=True)
    await runtime.start()
    return runtime


def test_reconnecting_client_resumes_across_graceful_restart(tmp_path):
    """In-process restart on the same port + WAL: the wrapper consumes
    its buffered tail, reconnects once, resumes from its own cursor
    (no replayed duplicates), and the stream stays contiguous."""

    async def scenario():
        runtime = await start_runtime(tmp_path)
        port = runtime.tcp.port
        client = await ServerClient.connect(
            "127.0.0.1", port,
            reconnect=Backoff(initial=0.05, max_delay=0.3, seed=1))
        cursors = []
        try:
            await client.hello()
            await client.subscribe_durable(BAND_TEXT, name="band",
                                           params=PARAMS)
            async with await ServerClient.connect("127.0.0.1",
                                                  port) as pusher:
                await pusher.hello()
                await pusher.push_many(EVENTS)
                await pusher.flush()
            # consume only the first few matches, then restart the
            # server under the client
            while len(cursors) < 10:
                frame = await client.next_frame(timeout=2.0)
                assert frame is not None, "expected live matches"
                if frame.get("type") == "match":
                    cursors.append(frame["cursor"])

            await runtime.shutdown("restart")
            runtime = await start_runtime(tmp_path, port=port)
            assert runtime.core.durability.recovery_report.recovered

            # the rest arrives from the old connection's buffer and,
            # after the reconnect, the WAL replay adds nothing new —
            # exactly-once by cursor either way
            while True:
                frame = await client.next_frame(timeout=1.0)
                if frame is None:
                    break
                if frame.get("type") == "match":
                    cursors.append(frame["cursor"])
        finally:
            await client.close()
            await runtime.shutdown("test-teardown")

        assert client.reconnects == 1
        assert cursors == list(range(1, len(cursors) + 1)), "cursor gap"
        assert len(cursors) == len(reference_seqs())

    asyncio.run(scenario())


def test_reconnecting_client_gives_up_after_budget(tmp_path):
    async def scenario():
        runtime = await start_runtime(tmp_path)
        port = runtime.tcp.port
        client = await ServerClient.connect(
            "127.0.0.1", port,
            reconnect=Backoff(initial=0.01, max_delay=0.02, max_retries=3,
                              jitter=0.0))
        await client.hello()
        await client.subscribe_durable(BAND_TEXT, name="band",
                                       params=PARAMS)
        await runtime.shutdown("gone-for-good")
        # the server never comes back: the retry budget runs out
        while True:
            frame = await client.next_frame(timeout=1.0)
            if frame is None:
                break
        assert client.gave_up and client.ended
        assert client.reconnects == 0
        await client.close()

    asyncio.run(scenario())


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkill_restart_reconnecting_client_is_gapless(tmp_path):
    """The tentpole acceptance scenario: no manual resume_from anywhere
    — the wrapper's tracked cursor is the only resume state."""
    wal = tmp_path / "wal"
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent
                              / "src"))

    def spawn(port=0):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", f"127.0.0.1:{port}", "--engine", "sequential",
             "--wal", str(wal), "--checkpoint-every", "150"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        for _ in range(50):
            line = proc.stdout.readline()
            match = re.search(r"serving tcp on 127\.0\.0\.1:(\d+)", line)
            if match:
                return proc, int(match.group(1))
        raise AssertionError("server did not report its port")

    proc, port = spawn()
    frames = []

    async def scenario():
        client = await ServerClient.connect(
            "127.0.0.1", port,
            reconnect=Backoff(initial=0.1, max_delay=0.5, seed=3))

        async def drain(timeout):
            while True:
                frame = await client.next_frame(timeout=timeout)
                if frame is None:
                    return False
                if frame.get("type") == "match":
                    frames.append(frame)
                elif frame.get("type") == "watermark" and \
                        frame.get("final"):
                    return True

        try:
            await client.hello()
            await client.subscribe_durable(BAND_TEXT, name="band",
                                           params=PARAMS)
            await client.push_many(EVENTS[:600])
            await drain(timeout=1.0)
            assert frames, "no matches before the kill"
            await asyncio.sleep(0.2)  # batch fsync: WAL onto disk
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()

            proc2, _ = spawn(port=port)
            try:
                # trigger the reconnect first (the lazy reconnect lives
                # in next_frame) so the durable queue is registered
                # before the final flush decides who gets the sentinel
                await drain(timeout=0.5)
                assert client.reconnects >= 1
                # push the rest through a fresh connection; the tail
                # client resumes by itself
                async with await ServerClient.connect(
                        "127.0.0.1", port) as pusher:
                    await pusher.hello()
                    await pusher.push_many(EVENTS[600:])
                    await pusher.flush()
                assert await drain(timeout=5.0), "no final watermark"
            finally:
                proc2.send_signal(signal.SIGTERM)
                proc2.wait(timeout=10)
        finally:
            await client.close()
        assert client.reconnects >= 1

    try:
        asyncio.run(scenario())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    cursors = [frame["cursor"] for frame in frames]
    assert cursors == list(range(1, len(cursors) + 1)), "cursor gap"
    delivered = [frame["match"]["seqs"] for frame in frames]
    assert delivered == reference_seqs()
