"""The serving runtime, end to end.

In-process servers on ephemeral ports: authentication, subscribe/push/
flush parity against alone ``pipeline()`` runs, the acceptance
scenario (two concurrent WebSocket subscribers with different queries
plus one TCP pusher, each receiving exactly its alone-run matches),
per-client rate limiting with an injectable clock, request/error
semantics, graceful drain with zero match loss, ``max_clients``
refusal, and the HTTP observability endpoints.  Plus one subprocess
test driving ``python -m repro serve`` + ``python -m repro client``
through real pipes and SIGTERM.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro import pipeline
from repro.datasets import save_events_csv
from repro.events import make_event
from repro.middleware import RateLimitMiddleware
from repro.patterns.parser import parse_query
from repro.server import (
    HTTPServer,
    ServerClient,
    ServerConfig,
    ServerCore,
    ServerError,
    TCPServer,
    WSServer,
)

ABC_TEXT = "PATTERN (A B C)\nWITHIN 8 events FROM every 4 events\n"
AB_TEXT = "PATTERN (A B)\nWITHIN 6 events FROM every 3 events\n"


def run_async(coro):
    return asyncio.run(coro)


def typed_stream(n, cycle="ABCABCX"):
    return [make_event(i, cycle[i % len(cycle)]) for i in range(n)]


def alone_seqs(text, events):
    """The matches an isolated pipeline run produces, as seq lists —
    the exact payload ``match`` frames carry on the wire."""
    result = pipeline(parse_query(text, name="alone")) \
        .engine("sequential").run(events)
    return [list(ce.constituent_seqs) for ce in result.complex_events]


@asynccontextmanager
async def serve(config=None, ratelimit=None, http=False):
    core = ServerCore(config or ServerConfig(engine="sequential"),
                      ratelimit=ratelimit)
    servers = [TCPServer(core, "127.0.0.1", 0),
               WSServer(core, "127.0.0.1", 0)]
    if http:
        servers.append(HTTPServer(core, "127.0.0.1", 0))
    for server in servers:
        await server.start()
    try:
        yield (core, *servers)
    finally:
        for server in servers:
            await server.stop()
        if not core.draining:
            await core.shutdown("test-teardown")


async def collect_until_final(client, subscription=None):
    """Match seq-lists until the (or a given) subscription's final
    watermark frame."""
    seqs = []
    async for frame in client.frames():
        if frame["type"] == "match":
            seqs.append(frame["match"]["seqs"])
        elif frame["type"] == "watermark" and frame.get("final"):
            if subscription is None or \
                    frame["subscription"] == subscription:
                return seqs
    return seqs


class TestAuth:
    def test_wrong_token_refused_right_token_accepted(self):
        async def scenario():
            config = ServerConfig(engine="sequential", auth_token="s3")
            async with serve(config) as (core, tcp, ws):
                bad = await ServerClient.connect("127.0.0.1", tcp.port)
                with pytest.raises(ServerError) as err:
                    await bad.hello(token="nope")
                assert err.value.code == "unauthorized"
                await bad.close()

                good = await ServerClient.connect("127.0.0.1", tcp.port)
                ack = await good.hello(token="s3")
                assert ack["client_id"].startswith("c")
                await good.close()
                assert core.auth.refused_total == 0  # refused pre-attach

        run_async(scenario())

    def test_unauthenticated_subscribe_never_attaches(self):
        async def scenario():
            config = ServerConfig(engine="sequential", auth_token="s3")
            async with serve(config) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                # skip hello entirely: the server must refuse anything
                # else and the hub must gain no attachment
                with pytest.raises((ServerError, ConnectionError)):
                    await client.subscribe(ABC_TEXT)
                await client.close()
                assert core.hub.stats().attachments_live == 0

        run_async(scenario())

    def test_pluggable_token_check(self):
        accepted = []

        def check(token):
            accepted.append(token)
            return token == "from-the-vault"

        async def scenario():
            config = ServerConfig(engine="sequential",
                                  token_check=check)
            async with serve(config) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello(token="from-the-vault")
                await client.close()

        run_async(scenario())
        assert accepted == ["from-the-vault"]


class TestEndToEnd:
    def test_subscribe_push_flush_parity(self):
        events = typed_stream(60)
        expected = alone_seqs(ABC_TEXT, events)
        assert expected  # the scenario must actually produce matches

        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                sub = await client.subscribe(ABC_TEXT, name="abc")
                ack = await client.push_many(events)
                assert ack["count"] == ack["accepted"] == len(events)
                await client.flush()
                seqs = await collect_until_final(client, sub)
                await client.close()
                return seqs

        assert run_async(scenario()) == expected

    def test_traced_server_acks_subscribe_and_delivers(self):
        """Regression (``serve --tcp ... --trace``): a ``subscribe``
        carries query *text*; the hub parses it before its ``on_attach``
        chain, so a ``TraceMiddleware`` on the server no longer kills
        the connection reading ``context.query.name``."""
        from repro.middleware import TraceMiddleware
        trace = TraceMiddleware(capacity=64)
        events = typed_stream(30)

        async def scenario():
            config = ServerConfig(engine="sequential", middleware=(trace,))
            async with serve(config) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                sub = await client.subscribe(ABC_TEXT, name="abc")
                await client.push_many(events)
                await client.flush()
                seqs = await collect_until_final(client, sub)
                await client.close()
                return seqs

        assert run_async(scenario()) == alone_seqs(ABC_TEXT, events)
        attached = [r for r in trace.records if r["hook"] == "on_attach"]
        assert len(attached) == 1 and "abc" in attached[0]["query"]

    def test_acceptance_two_ws_subscribers_one_tcp_pusher(self):
        """The PR's acceptance scenario: two concurrent WebSocket
        subscribers with *different* queries and one TCP pusher; each
        subscriber receives exactly its alone-run matches."""
        events = typed_stream(90)
        expected_abc = alone_seqs(ABC_TEXT, events)
        expected_ab = alone_seqs(AB_TEXT, events)
        assert expected_abc and expected_ab
        assert expected_abc != expected_ab  # genuinely different queries

        async def scenario():
            async with serve() as (core, tcp, ws):
                sub_abc = await ServerClient.connect(
                    "127.0.0.1", ws.port, transport="ws")
                sub_ab = await ServerClient.connect(
                    "127.0.0.1", ws.port, transport="ws")
                await sub_abc.hello(client="abc-subscriber")
                await sub_ab.hello(client="ab-subscriber")
                name_abc = await sub_abc.subscribe(ABC_TEXT, name="abc")
                name_ab = await sub_ab.subscribe(AB_TEXT, name="ab")

                pusher = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await pusher.hello(client="pusher")
                for start in range(0, len(events), 16):
                    await pusher.push_many(events[start:start + 16])
                await pusher.flush()

                got_abc, got_ab = await asyncio.gather(
                    collect_until_final(sub_abc, name_abc),
                    collect_until_final(sub_ab, name_ab))
                for client in (sub_abc, sub_ab, pusher):
                    await client.close()
                return got_abc, got_ab

        got_abc, got_ab = run_async(scenario())
        assert got_abc == expected_abc
        assert got_ab == expected_ab

    def test_unacked_push_and_acked_push(self):
        events = typed_stream(12)
        expected = alone_seqs(ABC_TEXT, events)

        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                sub = await client.subscribe(ABC_TEXT)
                for event in events[:-1]:
                    await client.push(event)          # fire and forget
                await client.push(events[-1], ack=True)
                await client.flush()
                seqs = await collect_until_final(client, sub)
                await client.close()
                return seqs

        assert run_async(scenario()) == expected

    def test_server_assigns_sequence_numbers(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                sub = await client.subscribe(ABC_TEXT)
                ack = await client.push_raw([{"etype": t}
                                             for t in "ABCABC"])
                assert ack["accepted"] == 6
                await client.flush()
                seqs = await collect_until_final(client, sub)
                await client.close()
                return seqs

        # parity with the same 6 events pushed locally: the server
        # assigned seqs 0..5, so the match sets line up exactly
        expected = alone_seqs(
            ABC_TEXT, [make_event(i, t) for i, t in enumerate("ABCABC")])
        assert run_async(scenario()) == expected == [[0, 1, 2]]


    def test_routed_match_arrives_with_the_closing_push(self):
        """A type-routed time-window subscription: the match frame
        follows the push of the (foreign-type) event that closes the
        window — before any further relevant event is sent."""
        text = "PATTERN (A B+)\nWITHIN 3 seconds FROM A\n"

        async def scenario():
            config = ServerConfig(engine="sequential", share=True)
            async with serve(config) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                await client.subscribe(text, name="routed")
                for seq, etype in enumerate("ABXX"):
                    await client.push(make_event(seq, etype), ack=True)
                await client.push(make_event(5, "X"), ack=True)  # 5 > 0+3
                while True:
                    frame = await client.next_frame(timeout=5.0)
                    assert frame is not None, "no match after the close"
                    if frame["type"] == "match":
                        break
                stats, = core.hub.stats().attachments
                await client.close()
                return frame["match"]["seqs"], stats

        seqs, stats = run_async(scenario())
        assert seqs == [0, 1]
        assert stats.events_offered + stats.events_skipped_by_index == 5
        if parse_query(text).plan.compiled:  # else: offer-all, no routing
            assert stats.events_skipped_by_index > 0


class TestRateLimiting:
    def test_per_client_buckets_shed_independently(self):
        clock = [0.0]
        limiter = RateLimitMiddleware(
            5.0, burst=5.0, clock=lambda: clock[0],
            key=lambda ctx: ctx.name or "server")

        async def scenario():
            async with serve(ratelimit=limiter) as (core, tcp, ws):
                one = await ServerClient.connect("127.0.0.1", tcp.port)
                two = await ServerClient.connect("127.0.0.1", tcp.port)
                await one.hello(client="one")
                await two.hello(client="two")
                burst = typed_stream(20)
                ack_one = await one.push_many(burst)
                # a fresh bucket for the second client: its burst is
                # its own, not what client one left behind
                ack_two = await two.push_many(burst)
                assert (ack_one["accepted"], ack_two["accepted"]) \
                    == (5, 5)
                assert ack_one["count"] == 20
                # time passes: 1s at 5/s refills 5 tokens
                clock[0] = 1.0
                ack_refill = await one.push_many(typed_stream(10))
                assert ack_refill["accepted"] == 5
                await one.close()
                await two.close()
                return core

        core = run_async(scenario())
        assert limiter.shed_total == 15 + 15 + 5
        assert limiter.shed_by_key == {"c1": 20, "c2": 15}
        assert core.hub.stats().events_pushed == 15

    def test_raise_policy_surfaces_rate_limited_error(self):
        limiter = RateLimitMiddleware(
            5.0, burst=5.0, policy="raise", clock=lambda: 0.0,
            key=lambda ctx: ctx.name or "server")

        async def scenario():
            async with serve(ratelimit=limiter) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                with pytest.raises(ServerError) as err:
                    await client.push_many(typed_stream(20))
                assert err.value.code == "rate_limited"
                await client.close()

        run_async(scenario())


class TestRequestSemantics:
    def test_ping_stats_unsubscribe(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                assert (await client.ping())["op"] == "ping"

                sub = await client.subscribe(ABC_TEXT, name="abc")
                stats = await client.stats()
                assert stats["server"]["subscriptions"] == 1
                assert stats["hub"]["events_pushed"] == 0

                await client.push_many(typed_stream(12))
                ack = await client.unsubscribe(sub)
                # trailing windows flush on unsubscribe: ABCABCX...
                # leaves one open window whose matches still arrive
                assert ack["subscription"] == sub
                stats = await client.stats()
                assert stats["server"]["subscriptions"] == 0
                await client.close()

        run_async(scenario())

    def test_error_codes(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()

                with pytest.raises(ServerError) as err:
                    await client.subscribe("PATTERN ((((")
                assert err.value.code == "bad_query"

                with pytest.raises(ServerError) as err:
                    await client.unsubscribe("ghost")
                assert err.value.code == "unknown"

                await client.flush()
                with pytest.raises(ServerError) as err:
                    await client.flush()
                assert err.value.code == "closed"
                await client.close()

        run_async(scenario())

    def test_version_mismatch_and_pre_hello_traffic(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                with pytest.raises(ServerError) as err:
                    await client.request({"type": "hello",
                                          "version": 999})
                assert err.value.code == "version"
                await client.close()

                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                with pytest.raises((ServerError, ConnectionError)):
                    await client.ping()  # pre-hello
                await client.close()

        run_async(scenario())

    def test_subscription_limit(self):
        async def scenario():
            config = ServerConfig(engine="sequential",
                                  max_subscriptions=2)
            async with serve(config) as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                await client.subscribe(ABC_TEXT, name="a")
                await client.subscribe(AB_TEXT, name="b")
                with pytest.raises(ServerError) as err:
                    await client.subscribe(ABC_TEXT, name="c")
                assert err.value.code == "limit"
                with pytest.raises(ServerError) as err:
                    await client.subscribe(ABC_TEXT, name="a")
                assert err.value.code == "limit"
                await client.close()

        run_async(scenario())

    def test_max_clients_refused_with_busy(self):
        async def scenario():
            config = ServerConfig(engine="sequential", max_clients=1)
            async with serve(config) as (core, tcp, ws):
                first = await ServerClient.connect("127.0.0.1",
                                                   tcp.port)
                await first.hello()
                second = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                frame = await second.next_frame(timeout=5.0)
                assert frame is not None
                assert (frame["type"], frame["code"]) == ("error",
                                                          "busy")
                await second.close()
                # capacity frees once the first client leaves
                await first.close()
                await asyncio.sleep(0.05)
                third = await ServerClient.connect("127.0.0.1",
                                                   tcp.port)
                await third.hello()
                await third.close()
                assert core.clients_rejected == 1

        run_async(scenario())


class TestGracefulDrain:
    def test_drain_loses_no_pushed_matches(self):
        """SIGTERM semantics: every match derivable from events pushed
        (and acked) before the drain reaches the subscriber, plus a
        final watermark and a goodbye."""
        events = typed_stream(60)
        expected = alone_seqs(ABC_TEXT, events)

        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect(
                    "127.0.0.1", ws.port, transport="ws")
                await client.hello()
                await client.subscribe(ABC_TEXT, name="abc")
                ack = await client.push_many(events)
                assert ack["accepted"] == len(events)
                # no flush from the client: the drain must deliver the
                # trailing windows
                await core.shutdown("SIGTERM")
                seqs, saw_final, saw_goodbye = [], False, False
                while True:
                    frame = await client.next_frame(timeout=5.0)
                    if frame is None:
                        break
                    if frame["type"] == "match":
                        seqs.append(frame["match"]["seqs"])
                    elif frame["type"] == "watermark" and \
                            frame.get("final"):
                        saw_final = True
                    elif frame["type"] == "goodbye":
                        saw_goodbye = True
                        break
                await client.close()
                return seqs, saw_final, saw_goodbye

        seqs, saw_final, saw_goodbye = run_async(scenario())
        assert seqs == expected
        assert saw_final and saw_goodbye

    def test_draining_refuses_new_connections(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                await core.shutdown("test")
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                frame = await client.next_frame(timeout=5.0)
                assert frame["code"] == "busy"
                await client.close()

        run_async(scenario())

    def test_request_on_ended_connection_raises(self):
        """Once the read loop has ended nobody can resolve a reply: a
        request must fail fast instead of parking a future forever."""
        async def scenario():
            async with serve() as (core, tcp, ws):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                await core.shutdown("gone")
                while await client.next_frame(timeout=5.0) is not None:
                    pass  # final frames, then the connection's end
                assert client.ended
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.ping(), timeout=5.0)
                await client.close()

        run_async(scenario())

    def test_shutdown_idempotent(self):
        async def scenario():
            async with serve() as (core, tcp, ws):
                await core.shutdown("once")
                await core.shutdown("twice")
                assert core.draining

        run_async(scenario())


class TestHTTP:
    def test_metrics_and_healthz(self):
        async def fetch(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"
                         .encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            return status, body.decode()

        async def scenario():
            async with serve(http=True) as (core, tcp, ws, http):
                client = await ServerClient.connect("127.0.0.1",
                                                    tcp.port)
                await client.hello()
                await client.subscribe(ABC_TEXT)
                await client.push_many(typed_stream(30))

                status, body = await fetch(http.port, "/healthz")
                assert (status, body) == (200, "ok\n")

                status, body = await fetch(http.port, "/metrics")
                assert status == 200
                assert "repro_server_clients_connected 1" in body
                assert "repro_server_subscriptions 1" in body
                assert "repro_stats_events_pushed 30" in body

                status, _ = await fetch(http.port, "/nope")
                assert status == 404

                await client.close()
                await core.shutdown("test")
                status, body = await fetch(http.port, "/healthz")
                assert (status, body) == (503, "draining\n")

        run_async(scenario())


class TestServeSubprocess:
    def test_serve_client_metrics_sigterm(self, tmp_path):
        """The CI smoke scenario through real processes and pipes."""
        query_file = tmp_path / "abc.sql"
        query_file.write_text(ABC_TEXT)
        data_file = tmp_path / "events.csv"
        save_events_csv(typed_stream(40), data_file)
        expected = alone_seqs(ABC_TEXT, typed_stream(40))

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0",
             "--auth-token", "smoke", "--engine", "sequential"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            ports = {}
            deadline = time.monotonic() + 30
            while len(ports) < 2:
                assert time.monotonic() < deadline, "server never started"
                line = server.stdout.readline()
                assert line, "server exited early"
                if line.startswith("serving "):
                    _, kind, _, addr = line.split()
                    ports[kind] = int(addr.rsplit(":", 1)[1])

            client = subprocess.run(
                [sys.executable, "-m", "repro", "client",
                 "--connect", f"127.0.0.1:{ports['tcp']}",
                 "--token", "smoke", "--query", f"abc={query_file}",
                 "--data", str(data_file), "--flush"],
                capture_output=True, text=True, timeout=60, env=env)
            assert client.returncode == 0, client.stderr
            matches = [json.loads(line)
                       for line in client.stdout.splitlines()]
            assert [m["match"]["seqs"] for m in matches] == expected

            import urllib.request
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{ports['http']}/metrics",
                    timeout=10) as response:
                assert response.status == 200
                body = response.read().decode()
            assert "repro_server_clients_total" in body

            server.send_signal(signal.SIGTERM)
            out, _ = server.communicate(timeout=30)
            assert server.returncode == 0, out
            assert "drained" in out
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
