"""The serving core shared by every transport.

One :class:`ServerCore` owns one
:class:`~repro.hub.aio.AsyncStreamHub` and maps each connection —
TCP or WebSocket, they differ only in framing — to a
:class:`ClientSession`:

* **authentication** is a pluggable token check applied at ``hello``
  and *enforced* by an ``on_attach`` middleware on the hub
  (:class:`AuthAttachMiddleware`): an unauthenticated client cannot
  subscribe no matter which code path tries, because the refusal lives
  on the interception chain, not in the handler;
* **per-client rate limiting** reuses
  :class:`~repro.middleware.ratelimit.RateLimitMiddleware` with a
  caller-supplied key function — one shared middleware instance,
  buckets keyed by client id, composed into a per-client
  ``on_push_many`` chain so each client's pushes spend that client's
  tokens only;
* **subscriptions** are :class:`~repro.hub.aio.AsyncAttachment`\\ s
  — per-client ones named ``<client_id>/<name>``, *durable* ones
  (``subscribe`` with ``durable``/``resume_from``, needs ``wal_dir``)
  in the shared ``durable/<name>`` namespace — each attached through
  the hub's interception chain and drained by a pump task that turns
  matches into ``match`` frames.  Disconnecting — gracefully or
  abruptly — abandons every one of them
  (:meth:`AsyncAttachment.abandon`): a per-client attachment detaches,
  so the hub never leaks attachments or keeps a producer suspended on
  a dead client's queue; a durable one is parked — it keeps matching
  into the WAL, and the next subscriber of its name adopts it and
  replays the gap by match cursor;
* **graceful drain** (:meth:`ServerCore.shutdown`) flushes the hub via
  :meth:`AsyncStreamHub.aclose` — trailing windows emit, every pump
  delivers its remaining matches and a final ``watermark`` frame —
  then says ``goodbye`` on every connection.

The mechanism/policy split follows the PR-7 middleware design: the
core routes frames; auth, quotas, validation and metrics stack onto
the hub's interception chains.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.durability.manager import DurabilityManager
from repro.events.wire import WireError, events_from_wire
from repro.hub.aio import AsyncAttachment, AsyncStreamHub
from repro.hub.core import HubClosedError
from repro.middleware.base import (
    Middleware,
    MiddlewareContext,
    MiddlewareStack,
)
from repro.middleware.metrics import MetricsMiddleware
from repro.middleware.ratelimit import RateLimitExceeded, RateLimitMiddleware
from repro.resilience.chaos import ChaosMiddleware
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ack_frame,
    decode_frame,
    encode_frame,
    error_frame,
    goodbye_frame,
    match_frame,
    ping_frame,
    stats_frame,
    validate_request,
    watermark_frame,
)

__all__ = ["ServerConfig", "ServerBusy", "AuthError",
           "AuthAttachMiddleware", "ClientSession", "ServerCore",
           "Connection", "SLOW_CONSUMER_POLICIES"]

_CLOSE = object()  # outbox sentinel: sender task exits after this


class ServerBusy(RuntimeError):
    """The server refused a new connection (capacity or draining)."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


class AuthError(RuntimeError):
    """An unauthenticated client reached a guarded operation."""


# ServerConfig.slow_consumer / ``serve --slow-consumer``
SLOW_CONSUMER_POLICIES = ("block", "drop_oldest", "disconnect")


@dataclass
class ServerConfig:
    """Everything the serving runtime is configured with.

    ``token_check`` is the pluggable authentication hook: it receives
    the (possibly absent) token from ``hello`` and decides.  When it
    is ``None``, ``auth_token`` is compared verbatim; when both are
    ``None``, the server is open.
    """

    slack: float = 0.0
    engine: str = "sequential"
    auth_token: Optional[str] = None
    token_check: Optional[Callable[[Optional[str]], bool]] = None
    max_clients: int = 64
    max_subscriptions: int = 16      # per client
    client_rate: Optional[float] = None   # events/s per client (shed)
    client_burst: Optional[float] = None
    queue_size: int = 1024           # per-attachment match queue bound
    send_queue: int = 1024           # per-connection outbound frames
    max_frame: int = MAX_FRAME_BYTES
    share: Optional[bool] = None     # cross-query optimizer gate
    drain_timeout: float = 10.0      # seconds to wait for pumps on drain
    middleware: tuple = ()           # extra hub-level middleware
    wal_dir: Optional[str] = None    # durability: WAL + snapshot directory
    checkpoint_every: int = 10_000   # ingested events between checkpoints
    wal_fsync: str = "batch"         # "always" | "batch" | "never"
    keep_segments: Optional[int] = None  # WAL segment GC margin (None=all)
    # liveness: ping every heartbeat_interval seconds; reap clients
    # whose last inbound frame (pongs count) is idle_timeout old.
    # Enable the heartbeat at < idle_timeout or quiet-but-alive
    # clients get reaped with their subscriptions.
    heartbeat_interval: Optional[float] = None
    idle_timeout: Optional[float] = None
    # what to do when a client's outbox is full and a match/watermark
    # frame arrives (one of SLOW_CONSUMER_POLICIES): "block" the pump,
    # drop the oldest queued frame, or disconnect with
    # goodbye("slow_consumer")
    slow_consumer: str = "block"
    chaos: Optional[object] = None   # ChaosConfig — seeded fault injection

    def authorized(self, token: Optional[str]) -> bool:
        if self.token_check is not None:
            return bool(self.token_check(token))
        if self.auth_token is None:
            return True
        return token == self.auth_token


class AuthAttachMiddleware(Middleware):
    """Refuse hub attachment on behalf of unauthenticated clients.

    The core marks which client a ``hub.attach`` call is made for
    (single event loop, no await between mark and attach); any attach
    without an authenticated mark — or with none at all while the
    server requires tokens and the attach is client-scoped — raises
    before the attachment exists.  Server-side attachments (the CLI's
    pre-attached ``--query`` files) carry no client mark and pass.
    """

    def __init__(self, core: "ServerCore") -> None:
        self.core = core
        self.refused_total = 0

    def on_attach(self, context: MiddlewareContext, call_next):
        client = self.core._attaching_client
        if client is not None and not client.authenticated:
            self.refused_total += 1
            raise AuthError(
                f"client {client.client_id} is not authenticated")
        return call_next(context)


class Subscription:
    """One attachment + the pump task feeding its connection.

    A durable subscription (``attachment.durable``) also carries the
    cursor range its pump replays from the WAL before going live:
    ``(resume_from, cursor_start]``.
    """

    __slots__ = ("name", "attachment", "task", "watermarks",
                 "last_watermark", "resume_from", "cursor_start")

    def __init__(self, name: str, attachment: AsyncAttachment,
                 watermarks: bool, resume_from: Optional[int] = None,
                 cursor_start: Optional[int] = None) -> None:
        self.name = name
        self.attachment = attachment
        self.task: Optional[asyncio.Task] = None
        self.watermarks = watermarks
        self.last_watermark = float("-inf")
        self.resume_from = resume_from
        self.cursor_start = cursor_start


class ClientSession:
    """Server-side state of one connected client."""

    def __init__(self, core: "ServerCore", client_id: str, peer: str,
                 transport: str) -> None:
        self.core = core
        self.client_id = client_id
        self.peer = peer
        self.transport = transport
        self.greeted = False
        self.authenticated = False
        self.label = ""
        self.closed = False
        self.subscriptions: dict[str, Subscription] = {}
        self.outbox: asyncio.Queue = asyncio.Queue(
            maxsize=core.config.send_queue)
        self._sub_counter = 0
        # liveness clock: any inbound frame (pongs included) refreshes
        # it; the reaper compares it against idle_timeout
        self.last_recv = time.monotonic()
        self.last_ping = self.last_recv
        self.connection = None           # back-ref set by Connection.run
        # counters surfaced by the stats frame / metrics endpoint
        self.frames_in = 0
        self.frames_out = 0
        self.events_in = 0
        self.events_shed = 0
        self.frames_dropped = 0
        # per-client ingestion chain: the shared rate limiter keyed by
        # this client's id (None when no client_rate is configured)
        self.push_chain = core._client_push_chain()

    async def send(self, frame: dict) -> None:
        """Queue one frame for the sender task.

        Control frames (acks, errors, goodbyes, pings) always use the
        bounded blocking put.  For stream frames (``match`` /
        ``watermark``) the configured slow-consumer policy decides what
        a full outbox means: ``block`` backpressures the pump (the
        default), ``drop_oldest`` evicts the oldest queued frame (a
        durable consumer sees the cursor gap and can resubscribe with
        ``resume_from``), ``disconnect`` sheds the client with a typed
        goodbye.
        """
        if self.closed:
            return
        policy = self.core.config.slow_consumer
        if policy == "block" or frame.get("type") not in ("match",
                                                          "watermark"):
            self.frames_out += 1
            await self.outbox.put(frame)
            return
        try:
            self.outbox.put_nowait(frame)
            self.frames_out += 1
            return
        except asyncio.QueueFull:
            pass
        if policy == "drop_oldest":
            try:
                self.outbox.get_nowait()
            except asyncio.QueueEmpty:
                pass
            self.frames_dropped += 1
            self.core.frames_dropped_total += 1
            try:
                self.outbox.put_nowait(frame)
                self.frames_out += 1
            except asyncio.QueueFull:
                self.frames_dropped += 1
                self.core.frames_dropped_total += 1
        else:  # "disconnect"
            self.core._shed_slow_consumer(self)

    async def end_outbox(self) -> None:
        """Let the sender task flush what is queued, then exit."""
        await self.outbox.put(_CLOSE)

    def next_subscription_name(self) -> str:
        self._sub_counter += 1
        return f"q{self._sub_counter}"


class ServerCore:
    """The hub-owning, transport-agnostic request handler."""

    def __init__(self, config: ServerConfig,
                 ratelimit: Optional[RateLimitMiddleware] = None) -> None:
        if config.slow_consumer not in SLOW_CONSUMER_POLICIES:
            raise ValueError(
                f"slow_consumer must be one of {SLOW_CONSUMER_POLICIES}, "
                f"got {config.slow_consumer!r}")
        self.config = config
        self.metrics = MetricsMiddleware()
        self.auth = AuthAttachMiddleware(self)
        self.ratelimit = ratelimit
        if self.ratelimit is None and config.client_rate is not None:
            self.ratelimit = RateLimitMiddleware(
                config.client_rate, burst=config.client_burst,
                key=lambda ctx: ctx.name or "server")
        # seeded fault injection (the chaos suite's entry point): the
        # event faults ride the ingestion chain, connection resets are
        # consulted by the connection driver, WAL faults wrap the
        # segment writer — all from one ChaosConfig seed
        self.chaos: Optional[ChaosMiddleware] = None
        self.connection_chaos = None
        if config.chaos is not None:
            self.chaos = ChaosMiddleware(config.chaos)
            if config.chaos.reset_after is not None or \
                    config.chaos.reset_rate:
                self.connection_chaos = self.chaos.connection_chaos()
        self._next_seq = 0           # auto-assigned event sequence floor
        self.durability: Optional[DurabilityManager] = None
        if config.wal_dir is not None:
            # client subscriptions default non-durable: only explicit
            # durable/<name> attachments are restored after a crash
            self.durability = DurabilityManager(
                config.wal_dir, checkpoint_every=config.checkpoint_every,
                fsync=config.wal_fsync, default_durable=False,
                keep_segments=config.keep_segments)
            self.durability.extra_provider = \
                lambda: {"next_seq": self._next_seq}
            if self.chaos is not None and config.chaos.wal_fail_rate:
                self.durability.wal_writer_wrapper = \
                    self.chaos.wrap_wal_writer
        # chaos injects innermost at the facade (metrics still count
        # the pre-fault stream) — or, under a WAL, outside the
        # durability middleware on the inner hub, so the WAL journals
        # the post-fault stream (recovery parity)
        chaos = [] if self.chaos is None else [self.chaos]
        journaled = self.durability is not None
        self.hub = AsyncStreamHub(
            slack=config.slack, queue_size=config.queue_size,
            share=config.share, durability=self.durability,
            inner_middleware=chaos if journaled else (),
            middleware=[self.auth, self.metrics, *config.middleware,
                        *(() if journaled else chaos)])
        if journaled:
            self._next_seq = max(
                int(self.durability.recovered_extra.get("next_seq", 0)),
                self.durability.max_replayed_seq + 1)
        self.clients: dict[str, ClientSession] = {}
        self.draining = False
        self.flushed = False
        self.started_monotonic = time.monotonic()
        self.clients_total = 0
        self.clients_rejected = 0
        self._next_client = 0
        self._attaching_client: Optional[ClientSession] = None
        # resilience counters + the lazily-started liveness loop
        self._liveness_task: Optional[asyncio.Task] = None
        self.heartbeats_sent = 0
        self.clients_reaped = 0
        self.slow_disconnects = 0
        self.frames_dropped_total = 0
        self.connections_reset_total = 0
        reg = self.metrics.registry
        self._gauge_clients = reg.gauge(
            "server_clients_connected", "Currently connected clients")
        self._gauge_subs = reg.gauge(
            "server_subscriptions", "Live subscriptions across clients")
        self._gauge_draining = reg.gauge(
            "server_draining", "1 while the shutdown drain is running")
        self._counter_clients = reg.counter(
            "server_clients_total", "Connections accepted")
        self._counter_frames_in = reg.counter(
            "server_frames_in_total", "Request frames handled")
        self._counter_frames_out = reg.counter(
            "server_frames_out_total", "Response frames queued")
        self._counter_matches = reg.counter(
            "server_matches_sent_total", "Match frames queued")

    # -- connection lifecycle ---------------------------------------------

    def connect(self, peer: str, transport: str) -> ClientSession:
        if self.draining:
            self.clients_rejected += 1
            raise ServerBusy("busy", "server is draining")
        if len(self.clients) >= self.config.max_clients:
            self.clients_rejected += 1
            raise ServerBusy(
                "busy", f"server is at max_clients="
                        f"{self.config.max_clients}")
        self._next_client += 1
        client_id = f"c{self._next_client}"
        session = ClientSession(self, client_id, peer, transport)
        self.clients[client_id] = session
        self.clients_total += 1
        self._counter_clients.inc()
        if self._liveness_task is None and (
                self.config.heartbeat_interval is not None
                or self.config.idle_timeout is not None):
            # started lazily so a core built outside a running loop
            # (tests, the stdin serve path) never needs one
            self._liveness_task = asyncio.ensure_future(
                self._liveness_loop())
        return session

    async def disconnect(self, session: ClientSession,
                         reason: str = "disconnect") -> None:
        """Tear one client down; safe on abrupt socket loss, idempotent.

        Pumps are cancelled first (they may be suspended mid-send),
        then every attachment is *abandoned* — queued matches dropped,
        any producer blocked on its full queue released, ``on_detach``
        run exactly once — so 100 connect/disconnect cycles leave the
        hub with exactly as many attachments as it started with.
        (Durable attachments are parked for their next subscriber
        instead of detached.)
        """
        if session.closed:
            return
        session.closed = True
        self.clients.pop(session.client_id, None)
        for sub in list(session.subscriptions.values()):
            if sub.task is not None:
                sub.task.cancel()
                try:
                    await sub.task
                except (asyncio.CancelledError, Exception):
                    pass
            await sub.attachment.abandon()
        session.subscriptions.clear()

    def _client_push_chain(self):
        if self.ratelimit is None:
            return None
        stack = MiddlewareStack([self.ratelimit])
        return stack.async_chain("on_push_many", self._ingest_terminal)

    # -- liveness: heartbeat + idle reaper ---------------------------------

    async def _liveness_loop(self) -> None:
        """Periodic sweep: ping sessions nearing their heartbeat due
        time, reap sessions idle past ``idle_timeout`` (their last
        inbound frame — any frame, pongs included — is that old)."""
        config = self.config
        ticks = [t for t in (config.heartbeat_interval,
                             (config.idle_timeout or 0.0) / 3.0) if t]
        tick = max(min(ticks), 0.01)
        while not self.draining:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for session in list(self.clients.values()):
                if session.closed:
                    continue
                if config.idle_timeout is not None and \
                        now - session.last_recv > config.idle_timeout:
                    self.clients_reaped += 1
                    self._enqueue_goodbye(session, "idle_timeout")
                    asyncio.ensure_future(
                        self._reap(session, "idle_timeout"))
                elif config.heartbeat_interval is not None and \
                        now - session.last_ping >= \
                        config.heartbeat_interval:
                    session.last_ping = now
                    self.heartbeats_sent += 1
                    try:
                        session.outbox.put_nowait(ping_frame())
                        session.frames_out += 1
                    except asyncio.QueueFull:
                        pass  # a full outbox is the idle reaper's job

    def _enqueue_goodbye(self, session: ClientSession,
                         reason: str) -> None:
        try:
            session.outbox.put_nowait(goodbye_frame(reason))
            session.frames_out += 1
        except asyncio.QueueFull:
            pass  # best effort: the close itself is the signal

    def _shed_slow_consumer(self, session: ClientSession) -> None:
        """``slow_consumer="disconnect"``: a stream frame found the
        outbox full.  Shed the client — typed goodbye (evicting one
        queued frame to make room), then async teardown — without
        blocking the pump that tried to send."""
        if session.closed:
            return
        self.slow_disconnects += 1
        try:
            session.outbox.get_nowait()
        except asyncio.QueueEmpty:
            pass
        self._enqueue_goodbye(session, "slow_consumer")
        asyncio.ensure_future(self._reap(session, "slow_consumer"))

    async def _reap(self, session: ClientSession, reason: str) -> None:
        """Tear a dead/shed client down server-side: detach its
        subscriptions, end its sender, close its transport (which
        unblocks the connection's read loop)."""
        await self.disconnect(session, reason)
        try:
            session.outbox.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            try:
                session.outbox.get_nowait()
            except asyncio.QueueEmpty:
                pass
            try:
                session.outbox.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                pass
        await asyncio.sleep(0)  # one tick for the sender to flush
        connection = session.connection
        if connection is not None:
            try:
                await connection.close_transport()
            except (ConnectionError, OSError):
                pass

    # -- frame handling ----------------------------------------------------

    async def handle_frame(self, session: ClientSession,
                           frame: dict) -> bool:
        """Dispatch one validated-on-entry frame; return ``False`` when
        the connection must close (protocol/auth violations)."""
        session.frames_in += 1
        session.last_recv = time.monotonic()
        self._counter_frames_in.inc()
        rid = frame.get("id")
        try:
            rtype = validate_request(frame)
        except ProtocolError as error:
            await session.send(error_frame(error.code, str(error), rid))
            return False
        if rtype == "hello":
            return await self._handle_hello(session, frame, rid)
        if rtype == "pong":
            return True  # liveness refresh only; legal pre-hello too
        if not session.greeted:
            await session.send(error_frame(
                "protocol", "first frame must be 'hello'", rid))
            return False
        try:
            if rtype == "subscribe":
                await self._handle_subscribe(session, frame, rid)
            elif rtype == "unsubscribe":
                await self._handle_unsubscribe(session, frame, rid)
            elif rtype == "push":
                await self._handle_push(session, frame, rid)
            elif rtype == "push_many":
                await self._handle_push_many(session, frame, rid)
            elif rtype == "flush":
                await self._handle_flush(session, rid)
            elif rtype == "stats":
                await self._handle_stats(session, rid)
            elif rtype == "ping":
                await session.send(ack_frame("ping", rid))
        except ProtocolError as error:
            await session.send(error_frame(error.code, str(error), rid))
        except HubClosedError as error:
            await session.send(error_frame("closed", str(error), rid))
        except RateLimitExceeded as error:
            await session.send(error_frame("rate_limited", str(error),
                                           rid))
        except AuthError as error:
            await session.send(error_frame("unauthorized", str(error),
                                           rid))
            return False
        return True

    async def _handle_hello(self, session: ClientSession, frame: dict,
                            rid) -> bool:
        version = frame.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            await session.send(error_frame(
                "version", f"server speaks protocol version "
                           f"{PROTOCOL_VERSION}, client sent {version}",
                rid))
            return False
        if not self.config.authorized(frame.get("token")):
            await session.send(error_frame(
                "unauthorized", "bad or missing token", rid))
            return False
        session.greeted = True
        session.authenticated = True
        session.label = frame.get("client", "")
        await session.send(ack_frame(
            "hello", rid, client_id=session.client_id,
            version=PROTOCOL_VERSION, server="repro"))
        return True

    async def _handle_subscribe(self, session: ClientSession,
                                frame: dict, rid) -> None:
        """Attach one query for this client through the hub's
        interception chain and start its pump.

        A *durable* subscription (``durable`` / ``resume_from``) lives
        under the shared ``durable/<name>`` namespace, survives
        disconnects and server restarts, and every match carries its
        WAL cursor.  ``resume_from: C`` first replays the logged
        matches with cursor > C from the WAL, then hands over to the
        live stream — exactly once by cursor."""
        name = frame.get("name")
        resume_from = frame.get("resume_from")
        durable = bool(frame.get("durable")) or resume_from is not None
        cursor_start = None
        if durable:
            if self.durability is None:
                raise ProtocolError(
                    "bad_query", "durable subscriptions need a server WAL "
                                 "directory (serve --wal DIR)")
            if not name:
                raise ProtocolError(
                    "bad_query", "durable subscriptions need an explicit "
                                 "'name' (it is the resume key)")
            full_name = f"durable/{name}"
            if any(held.name == full_name and not held.parked
                   for held in self.hub.attachments):
                raise ProtocolError(
                    "limit", f"durable subscription {name!r} already has "
                             f"a consumer")
            floor = self.durability.resume_floor(full_name)
            if resume_from is not None and resume_from < floor:
                raise ProtocolError(
                    "unknown",
                    f"resume_from={resume_from} is below the WAL GC "
                    f"horizon (cursor {floor}); resume from {floor} or "
                    f"later")
            cursor_start = self.durability.cursor(full_name)
        else:
            name = name or session.next_subscription_name()
            full_name = f"{session.client_id}/{name}"
        if len(session.subscriptions) >= self.config.max_subscriptions:
            raise ProtocolError(
                "limit", f"client is at max_subscriptions="
                         f"{self.config.max_subscriptions}")
        if name in session.subscriptions:
            raise ProtocolError(
                "limit", f"subscription {name!r} already exists")
        self._attaching_client = session
        try:
            # no await from the cursor read above to the end of the
            # attach: every later match is queued with cursor >
            # cursor_start, so the WAL replay up to cursor_start + the
            # queue is gapless and duplicate-free
            attachment = self.hub.attach(
                frame["query"], name=full_name, durable=durable,
                engine=frame.get("engine") or self.config.engine,
                params=frame.get("params"))
        except (ValueError, KeyError, TypeError, SyntaxError) as error:
            raise ProtocolError(
                "bad_query", f"subscribe failed: {error}") from None
        finally:
            self._attaching_client = None
        sub = Subscription(name, attachment,
                           bool(frame.get("watermarks")),
                           resume_from, cursor_start)
        session.subscriptions[name] = sub
        sub.task = asyncio.ensure_future(self._pump(session, sub))
        extra = {"durable": True, "cursor": cursor_start} if durable \
            else {"query": attachment.query.name}
        await session.send(ack_frame(
            "subscribe", rid, subscription=name, **extra,
            engine=attachment.inner.engine))

    async def _handle_unsubscribe(self, session: ClientSession,
                                  frame: dict, rid) -> None:
        sub = session.subscriptions.pop(frame["subscription"], None)
        if sub is None:
            await session.send(error_frame(
                "unknown", f"no subscription "
                           f"{frame['subscription']!r}", rid))
            return
        # graceful (and, for a durable subscription, the real teardown:
        # WAL-logged detach, name reusable): trailing windows flush,
        # the pump delivers them and the final watermark, then we ack
        matches = await sub.attachment.detach()
        if sub.task is not None:
            await sub.task
        await session.send(ack_frame(
            "unsubscribe", rid, subscription=sub.name,
            matches_flushed=len(matches)))

    def _decode_events(self, objs: list) -> list:
        """A pushed chunk → events, auto-numbering from ``_next_seq``
        (which keeps what the chunk consumed even when a later element
        is refused)."""
        try:
            events, self._next_seq = events_from_wire(objs, self._next_seq)
        except WireError as error:
            self._next_seq = error.next_seq
            raise ProtocolError("protocol", str(error)) from None
        return events

    async def _ingest_terminal(self, ctx: MiddlewareContext) -> int:
        await self.hub.push_many(ctx.events)
        return len(ctx.events)

    async def _ingest(self, session: ClientSession, events: list) -> int:
        """Push a client's batch through its rate-limit chain; return
        how many events were accepted (the rest were shed)."""
        session.events_in += len(events)
        if session.push_chain is None:
            await self.hub.push_many(events)
            accepted = len(events)
        else:
            ctx = MiddlewareContext("on_push_many", hub=self.hub,
                                    events=events,
                                    name=session.client_id)
            result = await session.push_chain(ctx)
            accepted = 0 if result is None else result
        session.events_shed += len(events) - accepted
        if self.durability is not None:
            # between pushes the hub is quiesced: safe snapshot point
            self.durability.maybe_checkpoint()
        await self._emit_watermarks()
        return accepted

    async def _handle_push(self, session: ClientSession, frame: dict,
                           rid) -> None:
        events = self._decode_events([frame["event"]])
        accepted = await self._ingest(session, events)
        if frame.get("ack"):
            await session.send(ack_frame("push", rid, accepted=accepted))

    async def _handle_push_many(self, session: ClientSession,
                                frame: dict, rid) -> None:
        events = self._decode_events(frame["events"])
        accepted = await self._ingest(session, events)
        await session.send(ack_frame("push_many", rid,
                                     count=len(events),
                                     accepted=accepted))

    async def _handle_flush(self, session: ClientSession, rid) -> None:
        if self.flushed:
            await session.send(error_frame(
                "closed", "hub already flushed", rid))
            return
        self.flushed = True
        delivered = await self.hub.flush()
        if self.durability is not None:
            # flush is end-of-stream: checkpoint the flushed state
            self.durability.checkpoint()
        await self._emit_watermarks(final=False)
        await session.send(ack_frame("flush", rid, delivered=delivered))

    async def _handle_stats(self, session: ClientSession, rid) -> None:
        await session.send(stats_frame(
            self.hub.stats().to_dict(), self.server_stats(), rid))

    # -- match delivery ----------------------------------------------------

    async def _pump(self, session: ClientSession,
                    sub: Subscription) -> None:
        """Move one subscription's matches onto its connection; ends
        when the attachment's iteration ends (flush/detach), closing
        with a final ``watermark`` frame.

        A durable subscription first replays its resume range
        ``(resume_from, cursor_start]`` from the WAL, then goes live,
        skipping what the queue holds at or below ``cursor_start``
        (matches that were staged but not yet dispatched when the
        subscriber attached — the replay covered them)."""
        attachment = sub.attachment

        async def send(match, cursor) -> None:
            self._counter_matches.inc()
            await session.send(match_frame(sub.name, match, cursor))

        try:
            if sub.resume_from is not None:
                for cursor, wire in self.durability.read_emits(
                        attachment.name, after=sub.resume_from,
                        upto=sub.cursor_start):
                    await send(wire, cursor)
            async for cursor, match in attachment.cursored():
                if cursor is None or cursor > sub.cursor_start:
                    await send(match, cursor)
            await session.send(watermark_frame(
                sub.name, attachment.watermark, final=True))
        except (ConnectionError, OSError):
            pass  # connection torn down mid-send; disconnect() cleans up

    async def _emit_watermarks(self, final: bool = False) -> None:
        """Stream watermark progress to subscriptions that asked for it
        (``subscribe`` with ``watermarks: true``)."""
        watermark = self.hub.watermark
        if watermark == float("-inf"):
            return
        for session in list(self.clients.values()):
            for sub in session.subscriptions.values():
                if sub.watermarks and watermark > sub.last_watermark:
                    sub.last_watermark = watermark
                    await session.send(watermark_frame(
                        sub.name, watermark, final=final))

    # -- observability -----------------------------------------------------

    def server_stats(self) -> dict:
        stats = {
            "clients_connected": len(self.clients),
            "clients_total": self.clients_total,
            "clients_rejected": self.clients_rejected,
            "subscriptions": sum(len(s.subscriptions)
                                 for s in self.clients.values()),
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "draining": self.draining,
            "flushed": self.flushed,
            "events_shed": 0 if self.ratelimit is None
            else self.ratelimit.shed_total,
            "auth_refused": self.auth.refused_total,
            "durable_subscriptions": sum(
                a.durable for a in self.hub.attachments),
            "heartbeats_sent": self.heartbeats_sent,
            "clients_reaped": self.clients_reaped,
            "slow_disconnects": self.slow_disconnects,
            "frames_dropped": self.frames_dropped_total,
            "connections_reset": self.connections_reset_total,
        }
        if self.chaos is not None:
            stats["chaos"] = self.chaos.stats()
        return stats

    def render_metrics(self) -> str:
        """The ``/metrics`` exposition: the middleware's live counters,
        the server gauges, and the flattened hub stats snapshot."""
        self._gauge_clients.set(float(len(self.clients)))
        self._gauge_subs.set(float(sum(
            len(s.subscriptions) for s in self.clients.values())))
        self._gauge_draining.set(float(self.draining))
        self.metrics.observe_stats(self.hub.stats())
        if self.durability is not None:
            self.metrics.observe_durability(self.durability.stats_dict())
        if self.chaos is not None:
            self.metrics.observe_stats(self.chaos.stats(), prefix="chaos")
        self.metrics.observe_stats(
            {"heartbeats_sent": self.heartbeats_sent,
             "clients_reaped": self.clients_reaped,
             "slow_disconnects": self.slow_disconnects,
             "frames_dropped": self.frames_dropped_total,
             "connections_reset": self.connections_reset_total},
            prefix="resilience")
        return self.metrics.render()

    # -- graceful drain ----------------------------------------------------

    async def shutdown(self, reason: str = "shutdown") -> None:
        """SIGTERM path: flush the hub so every already-pushed event's
        matches are delivered, wait for the pumps to hand them to the
        senders, say goodbye, release everything.  Idempotent."""
        if self.draining:
            return
        self.draining = True
        if self._liveness_task is not None:
            self._liveness_task.cancel()
            self._liveness_task = None
        try:
            await self.hub.aclose()   # flush + detach; pumps end cleanly
        except Exception:
            self.hub.abort()
        self.flushed = True
        if self.durability is not None:
            # persist the flushed state so a restart resumes instantly
            try:
                self.durability.close(checkpoint=True)
            except Exception:
                self.durability.close(checkpoint=False)
        pumps = [sub.task
                 for session in self.clients.values()
                 for sub in session.subscriptions.values()
                 if sub.task is not None]
        if pumps:
            done, pending = await asyncio.wait(
                pumps, timeout=self.config.drain_timeout)
            for task in pending:
                task.cancel()
        for session in list(self.clients.values()):
            session.subscriptions.clear()
            # best-effort goodbye: a slow consumer's full outbox must
            # not stall the whole shutdown behind one blocked put
            self._enqueue_goodbye(session, reason)
            session.closed = True
            try:
                session.outbox.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                pass  # sender still draining; connection close ends it
        # actively close the transports so clients blocked on a read
        # see EOF now instead of waiting for their own next send (the
        # auto-reconnect wrapper detects the restart through this);
        # a short grace first lets each sender flush the goodbye
        await asyncio.sleep(0.05)
        for session in list(self.clients.values()):
            connection = session.connection
            if connection is not None:
                try:
                    await connection.close_transport()
                except (ConnectionError, OSError):
                    pass


class Connection:
    """The transport-agnostic connection driver.

    Subclasses (:class:`~repro.server.tcp.TCPConnection`,
    :class:`~repro.server.ws.WSConnection`) implement raw-message I/O:
    ``recv() -> bytes | None`` (one message, ``None`` on EOF/close),
    ``send_encoded(payloads)`` (encoded frames → one write, one drain)
    and ``close_transport()``.  ``run()`` owns
    the session lifecycle: accept/reject, the sender task, the read →
    decode → dispatch loop, and teardown through
    :meth:`ServerCore.disconnect`.
    """

    transport = "?"

    def __init__(self, core: ServerCore, peer: str) -> None:
        self.core = core
        self.peer = peer
        self.session: Optional[ClientSession] = None

    async def recv(self) -> Optional[bytes]:  # pragma: no cover
        raise NotImplementedError

    async def send_encoded(self, payloads: list[bytes]
                           ) -> None:  # pragma: no cover
        raise NotImplementedError

    async def close_transport(self) -> None:  # pragma: no cover
        raise NotImplementedError

    async def run(self) -> None:
        core = self.core
        try:
            session = core.connect(self.peer, self.transport)
        except ServerBusy as busy:
            try:
                await self.send_encoded([encode_frame(
                    error_frame(busy.code, str(busy)))])
            except (ConnectionError, OSError):
                pass
            await self.close_transport()
            return
        self.session = session
        session.connection = self  # lets the idle reaper close us
        sender = asyncio.ensure_future(self._sender(session))
        try:
            while True:
                try:
                    message = await self.recv()
                except ProtocolError as error:
                    await session.send(error_frame(error.code,
                                                   str(error)))
                    break
                if message is None:
                    break
                try:
                    frame = decode_frame(message,
                                         core.config.max_frame)
                except ProtocolError as error:
                    await session.send(error_frame(error.code,
                                                   str(error)))
                    break
                if not await core.handle_frame(session, frame):
                    break
                chaos = core.connection_chaos
                if chaos is not None and chaos.should_reset():
                    # injected reset: kill the transport with no
                    # goodbye — the client sees a dead socket
                    core.connections_reset_total += 1
                    await self.close_transport()
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                await core.disconnect(session)
                await session.end_outbox()
                try:
                    await sender
                except (ConnectionError, OSError):
                    pass
            finally:
                # if cancellation interrupted the drain above, the
                # sender must not outlive the connection
                if not sender.done():
                    sender.cancel()
                await self.close_transport()

    async def _sender(self, session: ClientSession) -> None:
        """Single writer per connection: serializes every frame the
        handlers and pumps queue, in queue order.  Each wake-up drains
        what the outbox already holds (up to ``max_frame`` bytes) into
        one transport write.  After a send failure it keeps consuming
        (dropping) so producers are never left suspended on the
        outbox."""
        outbox = session.outbox
        limit = self.core.config.max_frame
        broken = closing = False
        while not closing:
            frame = await outbox.get()
            payloads: list[bytes] = []
            size = 0
            while True:
                if frame is _CLOSE:
                    closing = True  # what precedes it is still written
                    break
                if not broken:
                    payloads.append(encode_frame(frame))
                    size += len(payloads[-1])
                if size >= limit or outbox.empty():
                    break
                frame = outbox.get_nowait()
            if payloads:
                try:
                    await self.send_encoded(payloads)
                    self.core._counter_frames_out.inc(len(payloads))
                except (ConnectionError, OSError):
                    broken = True
