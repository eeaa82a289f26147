"""Asyncio client for the serving runtime (both transports).

:class:`ServerClient` speaks the version-1 wire protocol over TCP
(NDJSON) or WebSocket and is what ``python -m repro client``, the test
suite, and the load harness share:

.. code-block:: python

    async with ServerClient.connect("127.0.0.1", 7711) as client:
        await client.hello(token="s3cr3t")
        sub = await client.subscribe(QUERY_TEXT, watermarks=True)
        await client.push_many(events)
        await client.flush()
        async for frame in client.frames():
            if frame["type"] == "match":
                ...
            elif frame.get("final"):       # final watermark
                break

Request/response pairing uses the protocol's ``id`` echo: every
request carries a fresh id and :meth:`request` waits for the matching
``ack``/``error``, parking any ``match``/``watermark`` frames that
arrive in between on the streaming queue — so pushing and tailing can
interleave on one connection.

Given a :class:`~repro.resilience.backoff.Backoff` the same client is
self-healing: ``ServerClient.connect(host, port, reconnect=Backoff())``
survives server restarts — when the connection dies it redials on the
schedule, replays its ``hello`` and every *durable* subscription from
the last match cursor it received, so the stream seen through
:meth:`next_frame` is gapless and duplicate-free across any number of
server deaths (``python -m repro client --reconnect`` and the chaos
suite ride on this).  Plain subscriptions have no cursor to resume
from and are not re-established.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, AsyncIterator, Mapping, Optional

from repro.events.event import Event
from repro.server import ws as wslib
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    event_to_wire,
)

__all__ = ["ServerError", "ServerClient"]


class ServerError(RuntimeError):
    """The server answered a request with an ``error`` frame."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class ServerClient:
    """One protocol connection (``transport`` = ``"tcp"`` | ``"ws"``)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 transport: str = "tcp") -> None:
        self.transport = transport
        self.client_id: Optional[str] = None
        self.closed = False
        self._ids = itertools.count(1)
        self._pending: dict[Any, asyncio.Future] = {}
        self._stream: asyncio.Queue = asyncio.Queue()
        # reconnect-and-resume (``connect(..., reconnect=Backoff)``):
        # where to redial, what to replay, where each durable tail is
        self._address: Optional[tuple[str, int]] = None
        self._backoff = None
        self._on_reconnect = None
        self._hello: dict = {}
        self._durable: dict[str, dict] = {}   # name -> subscribe options
        self._cursors: dict[str, int] = {}    # name -> last cursor received
        self.reconnects = 0
        #: True once the reconnect retry budget ran out
        self.gave_up = False
        self._start(reader, writer)

    # -- connection --------------------------------------------------------

    @classmethod
    async def connect(cls, host: str, port: int,
                      transport: str = "tcp", *, reconnect=None,
                      on_reconnect=None) -> "ServerClient":
        """Open one connection.  ``reconnect`` (a
        :class:`~repro.resilience.backoff.Backoff`) makes
        :meth:`next_frame` heal a dead connection instead of ending;
        ``on_reconnect(client)`` is called after each success."""
        self = cls(*await cls._dial(host, port, transport), transport)
        self._address = (host, port)
        self._backoff = reconnect
        self._on_reconnect = on_reconnect
        return self

    @staticmethod
    async def _dial(host: str, port: int, transport: str):
        if transport not in ("tcp", "ws"):
            raise ValueError(f"unknown transport {transport!r}")
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES + 1024)
        if transport == "ws":
            await wslib.client_handshake(reader, writer,
                                         f"{host}:{port}")
        return reader, writer

    def _start(self, reader: asyncio.StreamReader,
               writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        #: True once the connection has really ended (EOF / reset / a
        #: protocol failure in the read loop) — lets callers tell a
        #: dead connection apart from a ``next_frame`` timeout.  A
        #: successful reconnect clears it again.
        self.ended = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _hangup(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        await self._hangup()

    async def __aenter__(self) -> "ServerClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- wire I/O ----------------------------------------------------------

    async def _send(self, frame: Mapping[str, Any]) -> None:
        payload = encode_frame(frame)
        if self.transport == "ws":
            self.writer.write(wslib.encode_ws_frame(
                wslib.OP_TEXT, payload.rstrip(b"\n"), mask=True))
        else:
            self.writer.write(payload)
        await self.writer.drain()

    async def _recv_raw(self) -> Optional[bytes]:
        if self.transport == "ws":
            return await wslib.read_ws_message(
                self.reader, self.writer, require_mask=False)
        line = await self.reader.readline()
        return line if line else None

    async def _read_loop(self) -> None:
        """Demultiplex inbound frames: acks/errors resolve their
        pending request future, everything else (matches, watermarks,
        goodbyes, unsolicited errors) streams to :meth:`frames` —
        durable match cursors are noted on the way."""
        try:
            while True:
                raw = await self._recv_raw()
                if raw is None:
                    break
                frame = decode_frame(raw)
                rid = frame.get("id")
                if frame.get("type") == "ping" and rid is None:
                    # server heartbeat: answer right here so liveness
                    # never depends on the consumer draining frames
                    await self._send({"type": "pong"})
                    continue
                if rid is not None and rid in self._pending:
                    self._pending.pop(rid).set_result(frame)
                    continue
                if frame.get("type") == "match" and "cursor" in frame:
                    self._cursors[frame.get("subscription")] = \
                        frame["cursor"]
                await self._stream.put(frame)
        except (ConnectionError, OSError, ProtocolError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self.ended = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection"))
            self._pending.clear()
            await self._stream.put(None)

    # -- requests ----------------------------------------------------------

    async def request(self, frame: dict) -> dict:
        """Send one request and await its ``ack`` (or raise the
        matching ``error`` as :class:`ServerError`).  On a connection
        that has already ended it raises :class:`ConnectionError` at
        once — nobody is left to resolve the reply."""
        if self.ended:
            raise ConnectionError("the connection has ended")
        rid = next(self._ids)
        frame["id"] = rid
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[rid] = future
        await self._send(frame)
        response = await future
        if response["type"] == "error":
            raise ServerError(response.get("code", "unknown"),
                              response.get("message", ""))
        return response

    async def hello(self, token: Optional[str] = None,
                    client: str = "") -> dict:
        self._hello = {"token": token, "client": client}
        frame: dict = {"type": "hello", "version": PROTOCOL_VERSION}
        if token is not None:
            frame["token"] = token
        if client:
            frame["client"] = client
        ack = await self.request(frame)
        self.client_id = ack.get("client_id")
        return ack

    async def _subscribe(self, query: str, *, name: Optional[str],
                         engine: Optional[str],
                         params: Optional[Mapping[str, Any]],
                         watermarks: bool, durable: bool,
                         resume_from: Optional[int]) -> dict:
        frame: dict = {"type": "subscribe", "query": query}
        if name:
            frame["name"] = name
        if engine:
            frame["engine"] = engine
        if params:
            frame["params"] = dict(params)
        if watermarks:
            frame["watermarks"] = True
        if durable:
            frame["durable"] = True
        if resume_from is not None:
            frame["resume_from"] = int(resume_from)
            # before the request: the read loop may see replayed
            # matches ahead of this coroutine seeing the ack
            self._cursors[name] = int(resume_from)
        ack = await self.request(frame)
        if ack.get("durable"):
            # remembered for reconnect-and-resume; without resume_from
            # the tail starts at the server's current cursor
            self._durable[name] = {
                "query": query, "engine": engine, "params": params,
                "watermarks": watermarks}
            self._cursors.setdefault(name, int(ack.get("cursor") or 0))
        return ack

    async def subscribe(self, query: str, *,
                        name: Optional[str] = None,
                        engine: Optional[str] = None,
                        params: Optional[Mapping[str, Any]] = None,
                        watermarks: bool = False,
                        durable: bool = False,
                        resume_from: Optional[int] = None) -> str:
        """Subscribe a query; with ``durable=True`` (needs ``name``)
        the server keeps the attachment and its WAL-logged match
        cursor across disconnects and restarts — pass the last seen
        cursor as ``resume_from`` to replay the gap exactly once."""
        ack = await self._subscribe(
            query, name=name, engine=engine, params=params,
            watermarks=watermarks, durable=durable,
            resume_from=resume_from)
        return ack["subscription"]

    async def subscribe_durable(self, query: str, *, name: str,
                                engine: Optional[str] = None,
                                params: Optional[Mapping[str, Any]] = None,
                                resume_from: Optional[int] = None,
                                watermarks: bool = False) -> dict:
        """Like :meth:`subscribe` with ``durable=True`` but returns the
        full ack (including the current durable ``cursor``)."""
        return await self._subscribe(
            query, name=name, engine=engine, params=params,
            watermarks=watermarks, durable=True, resume_from=resume_from)

    def cursor(self, name: str) -> int:
        """Last match cursor received on durable subscription ``name``
        (where a reconnect would resume it)."""
        return self._cursors.get(name, 0)

    async def unsubscribe(self, subscription: str) -> dict:
        self._durable.pop(subscription, None)
        self._cursors.pop(subscription, None)
        return await self.request({"type": "unsubscribe",
                                   "subscription": subscription})

    async def push(self, event: Event, ack: bool = False) -> None:
        frame: dict = {"type": "push", "event": event_to_wire(event)}
        if ack:
            frame["ack"] = True
            await self.request(frame)
        else:
            await self._send(frame)

    async def push_many(self, events: list[Event]) -> dict:
        return await self.request(
            {"type": "push_many",
             "events": [event_to_wire(event) for event in events]})

    async def push_raw(self, objs: list[dict]) -> dict:
        """Push pre-encoded event objects (the CLI's CSV path)."""
        return await self.request({"type": "push_many", "events": objs})

    async def flush(self) -> dict:
        return await self.request({"type": "flush"})

    async def stats(self) -> dict:
        return await self.request({"type": "stats"})

    async def ping(self) -> dict:
        return await self.request({"type": "ping"})

    # -- streaming ---------------------------------------------------------

    async def next_frame(self,
                         timeout: Optional[float] = None
                         ) -> Optional[dict]:
        """One streamed frame (match/watermark/goodbye/...), ``None``
        on connection end or timeout.  A reconnecting client heals a
        dead connection here instead: ``None`` then means *timeout*
        (connection alive) or the final give-up (``ended`` stays
        True)."""
        while True:
            try:
                frame = await asyncio.wait_for(self._stream.get(), timeout)
            except asyncio.TimeoutError:
                return None
            if frame is not None or self.closed or self._backoff is None:
                return frame
            # ``None`` marks a connection's end; with the current one
            # alive it is the end of an attempt _reconnect() replaced
            if self.ended and not await self._reconnect():
                return None

    async def frames(self) -> AsyncIterator[dict]:
        """Iterate streamed frames until the connection ends (for a
        reconnecting client: until close or give-up)."""
        while True:
            frame = await self.next_frame()
            if frame is None:
                return
            yield frame

    async def _reconnect(self) -> bool:
        """Redial on the backoff schedule, then replay ``hello`` and
        every durable subscription from its last received cursor.
        Requests are NOT retried — a push that died mid-flight may be
        partially ingested; only the durable *consuming* side is safe
        to replay."""
        while not self.closed:
            try:
                delay = self._backoff.next_delay()
            except StopIteration:
                break
            await asyncio.sleep(delay)
            if self.closed:
                break
            await self._hangup()
            try:
                self._start(*await self._dial(*self._address,
                                              self.transport))
            except (ConnectionError, OSError):
                continue  # server still down
            try:
                await self.hello(**self._hello)
                for name, options in list(self._durable.items()):
                    await self._subscribe(
                        name=name, durable=True,
                        resume_from=self._cursors[name], **options)
            except (ConnectionError, OSError, ServerError,
                    ProtocolError, asyncio.IncompleteReadError):
                continue  # up but not ready (draining, recovering...)
            self.reconnects += 1
            self._backoff.reset()
            if self._on_reconnect is not None:
                self._on_reconnect(self)
            return True
        self.gave_up = True
        return False
