"""Asyncio facade over the multi-query hub.

The sync :class:`~repro.hub.core.StreamHub` signals backpressure by
raising; under asyncio it can be the real thing — ``await
hub.push(event)`` *suspends* the producer until every consumer's queue
has room:

.. code-block:: python

    async with AsyncStreamHub(slack=5.0) as hub:
        spikes = hub.attach(spike_query, engine="threaded", k=4)

        async def consume():
            async for match in spikes:        # ends on detach/close
                await alert(match)

        task = asyncio.create_task(consume())
        async for event in source:
            await hub.push(event)             # suspends when behind
        await hub.flush()
        await task

Sinks may be plain callables or coroutine functions (``async def``);
they inherit the sync layer's isolation contract — a raising sink never
starves the others, failures aggregate into one
:class:`~repro.streaming.builder.SinkError` at ``flush()``/``close()``.

The facade stays a thin layer: all CEP work happens synchronously in
the wrapped hub (the engines are CPU-bound; an event loop cannot help
them), only match *delivery* — queue puts and sink awaits — is async.
"""

from __future__ import annotations

import asyncio
import inspect
from collections import deque
from typing import Any, AsyncIterator, Callable, Mapping, Optional

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.hub.core import Attachment, HubStats, StreamHub, as_query
from repro.middleware.base import MiddlewareContext, MiddlewareStack
from repro.middleware.sinks import SinkError
from repro.patterns.query import Query

_DONE = object()  # queue sentinel: this attachment will emit no more


class _MatchContext(MiddlewareContext):
    """The facade's ``on_match`` context: ``context.cursor`` is a durable
    attachment's WAL cursor of this match (``None`` otherwise)."""

    __slots__ = ("cursor",)  # not on the base: sync sessions build those


def _staging_sink(staged: deque, journal=None, name=None):
    """The (sync) sink of one inner attachment: buffer each match for
    the facade's next ``_dispatch`` — beside its WAL cursor when
    ``journal`` numbers attachment ``name``: the durability middleware
    is innermost, it numbered and logged the match just before sink
    dispatch, so the journal's cursor *is* this match's cursor.

    A closure over the buffer alone, not a method of the attachment:
    the sync hub keeps detached sessions, sinks included, for its stats
    history."""
    if journal is None:
        return lambda match: staged.append((None, match))
    return lambda match: staged.append((journal.cursor(name), match))


class AsyncAttachment:
    """Async face of one attachment: awaitable iteration + async sinks.

    Without a sink, matches flow through a bounded :class:`asyncio.Queue`
    — ``async for match in attachment`` consumes them and ends when the
    attachment detaches or the hub flushes/closes.

    A *durable* attachment (``hub.attach(..., durable=True)`` on a hub
    opened over a durability manager) outlives its consumer, the
    facade's :meth:`AsyncStreamHub.aclose` and — through the WAL — the
    process: every match is staged beside its WAL cursor
    (:meth:`cursored`), :meth:`abandon` *parks* it instead of detaching,
    and the next durable attach of its name re-adopts it.
    """

    def __init__(self, hub: "AsyncStreamHub", inner: Attachment,
                 staged: deque, sink, queue_size: int,
                 middleware: tuple = (), durable: bool = False) -> None:
        self._hub = hub
        self.inner = inner
        self.durable = durable
        #: no consumer holds this durable attachment: deliveries are
        #: dropped, never awaited (the matches are in the WAL)
        self.parked = False
        self._staged = staged   # (cursor | None, match), see _staging_sink
        self._sink = sink
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._sink_errors: list = []
        self._done_sent = False
        # delivery interception happens here (the inner sync session
        # only stages), so the match/error chains are async — hooks may
        # be ``async def`` and awaits happen per link
        stack = MiddlewareStack(middleware)
        self._achain_match = stack.async_chain(
            "on_match", self._match_terminal)
        self._achain_error = stack.async_chain(
            "on_error", self._error_terminal)

    # -- delegation --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def query(self) -> Query:
        return self.inner.query

    @property
    def state(self) -> str:
        return self.inner.state

    @property
    def watermark(self) -> float:
        return self.inner.watermark

    @property
    def matches_emitted(self) -> int:
        return self.inner.matches_emitted

    @property
    def admission_watermark(self) -> Optional[float]:
        return self.inner.admission_watermark

    def stats(self):
        return self.inner.stats()

    # -- delivery ----------------------------------------------------------

    async def _dispatch(self) -> None:
        """Move staged matches to the sink / the async queue.

        ``queue.put`` is where producer backpressure happens: it
        suspends while the queue is full.
        """
        staged = self._staged
        while staged:
            cursor, match = staged.popleft()
            if self._achain_match is None:
                await self._deliver(match, cursor)
                continue
            ctx = _MatchContext("on_match", match=match, hub=self._hub,
                                attachment=self)
            ctx.cursor = cursor
            await self._achain_match(ctx)  # None w/o call_next suppresses

    async def _match_terminal(self, ctx: _MatchContext):
        await self._deliver(ctx.match, ctx.cursor)
        return ctx.match

    async def _deliver(self, match: ComplexEvent,
                       cursor: Optional[int] = None) -> None:
        if self._sink is not None:
            try:
                result = self._sink(match)
                if inspect.isawaitable(result):
                    await result
            except Exception as error:  # noqa: BLE001 - sink isolation
                await self._record_error(match, error)
        elif not (self._done_sent or self.parked):
            # after abandon/abort nobody will consume this queue, so a
            # late match is dropped rather than parked (or blocked on)
            await self._queue.put((cursor, match))

    async def _record_error(self, match, error) -> None:
        if self._achain_error is None:
            self._sink_errors.append((self._sink, match, error))
            return
        ctx = MiddlewareContext("on_error", match=match, error=error,
                                sink=self._sink, hub=self._hub,
                                attachment=self)
        await self._achain_error(ctx)  # skipping call_next swallows it

    async def _error_terminal(self, ctx: MiddlewareContext) -> None:
        self._sink_errors.append((ctx.sink, ctx.match, ctx.error))

    async def _send_done(self) -> None:
        if not self._done_sent and self._sink is None:
            self._done_sent = True
            if not self.parked:  # no reader: _adopt() re-arms the queue
                await self._queue.put(_DONE)

    def _abort_queue(self) -> None:
        """Error path: end iteration *now* without awaiting.

        Queued matches are discarded (abort semantics, like the sync
        session), which also guarantees room for the sentinel."""
        if self._done_sent or self._sink is not None:
            return
        self._done_sent = True
        while not self._queue.empty():
            self._queue.get_nowait()
        self._queue.put_nowait(_DONE)

    def _take_sink_errors(self) -> list:
        errors, self._sink_errors = self._sink_errors, []
        return errors

    # -- consumer surface --------------------------------------------------

    def __aiter__(self) -> "AsyncAttachment":
        if self._sink is not None:
            raise TypeError(
                f"attachment {self.name!r} delivers to a sink; only "
                f"sink-less attachments are iterable")
        return self

    async def __anext__(self) -> ComplexEvent:
        item = await self._queue.get()
        if item is _DONE:
            raise StopAsyncIteration
        return item[1]

    async def cursored(self) -> AsyncIterator[
            tuple[Optional[int], ComplexEvent]]:
        """Iterate ``(cursor, match)``: like ``async for`` over the
        attachment, with each match's WAL cursor beside it (``None`` on
        non-durable attachments)."""
        while (item := await self._queue.get()) is not _DONE:
            yield item

    async def detach(self, drain: bool = True) -> list[ComplexEvent]:
        """Leave the hub; iteration over this attachment ends.

        With ``drain=True`` trailing windows flush first (their matches
        are delivered and returned), mirroring the sync contract.
        """
        if self.inner.state == Attachment.DETACHED:
            return []  # idempotent: the on_detach chain runs once
        chain = self._hub._stack.async_chain(
            "on_detach", lambda ctx: self._detach_raw(drain))
        if chain is None:
            return await self._detach_raw(drain)
        ctx = MiddlewareContext("on_detach", hub=self._hub,
                                attachment=self)
        result = await chain(ctx)
        return [] if result is None else result

    async def _detach_raw(self, drain: bool) -> list[ComplexEvent]:
        matches = self.inner.detach(drain=drain)
        self._hub._forget(self)
        await self._dispatch()
        await self._send_done()
        errors = self._take_sink_errors()
        if errors:
            raise SinkError(errors, matches)
        return matches

    async def abandon(self) -> None:
        """Abrupt-consumer-gone cleanup (e.g. a dropped connection):
        discard staged and queued matches, end iteration immediately,
        and detach *without* flushing trailing windows.

        Unlike :meth:`detach`, this never waits on the vanished
        consumer: a producer suspended on this attachment's full queue
        is *released*, and once the attachment is marked done its
        later matches are dropped in :meth:`_deliver` instead of
        parked.  The ``on_detach`` chain still runs exactly once (via
        the idempotent detach).

        A *durable* attachment is parked instead: it stays attached,
        keeps matching and WAL-logging, and queues nothing until the
        next ``attach(..., durable=True)`` of its name adopts it.
        """
        if self.durable:
            self.parked = True
            await self._release_queue()
            return
        self._staged.clear()
        if self._sink is None and not self._done_sent:
            self._done_sent = True  # _deliver drops from here on
            await self._release_queue()
            self._queue.put_nowait(_DONE)
        await self.detach(drain=False)

    async def _release_queue(self) -> None:
        """Empty the queue and release every producer suspended on it:
        each drain wakes one blocked ``put``, a yield lets it complete,
        and ``_deliver`` already drops, so the queue ends up empty."""
        queue = self._queue  # _adopt() may swap in a fresh one meanwhile
        while True:
            while not queue.empty():
                queue.get_nowait()
            await asyncio.sleep(0)  # woken producers finish their put
            if queue.empty():
                break

    def _adopt(self) -> None:
        """A new consumer takes over this parked attachment: a fresh
        queue (stale producers finish into the old one), already ended
        if the stream is."""
        self.parked = False
        self._queue = asyncio.Queue(maxsize=self._queue.maxsize)
        if self._done_sent:
            self._queue.put_nowait(_DONE)


class AsyncStreamHub:
    """A :class:`~repro.hub.core.StreamHub` driven from an event loop.

    Same attach surface and admission/isolation semantics as the sync
    hub; ``push``/``flush``/``close`` are coroutines that deliver
    matches with real backpressure.  Use ``async with`` for cleanup.
    """

    def __init__(self, *, slack: float = 0.0, late_policy: str = "drop",
                 queue_size: int = 256,
                 share: Optional[bool] = None,
                 middleware: Optional[list] = None,
                 durability=None, inner_middleware=()) -> None:
        self.queue_size = queue_size
        self._attachments: list[AsyncAttachment] = []
        self._stack = MiddlewareStack(middleware or ())
        self._session_middleware = self._stack.delivery_views()
        self._achain_push_many = self._stack.async_chain(
            "on_push_many", self._push_many_terminal)
        self._achain_flush = self._stack.async_chain(
            "on_flush", self._flush_terminal)
        self._achain_close = self._stack.async_chain(
            "on_flush", self._close_terminal)
        # sink-less *sync* queues are never used here (every inner
        # attachment gets a staging sink), so the sync bound is moot.
        # The inner hub gets none of ``middleware``: interception
        # happens at this layer, where hooks may be ``async def`` and
        # each chain link awaits — the sync hub would not await them.
        # ``durability`` (a :class:`~repro.durability.manager.
        # DurabilityManager`) makes the inner hub the one the manager
        # opens — or recovers — WAL-logged by its innermost (sync)
        # durability middleware with ``inner_middleware`` outside it;
        # attachments the recovery restores arrive parked.
        self._journal = durability
        if durability is None:
            self._hub = StreamHub(slack=slack, late_policy=late_policy,
                                  share=share)
            return
        restored: dict[str, deque] = {}

        def adopt(record: dict):
            staged = restored[record["name"]] = deque()
            return _staging_sink(staged, durability, record["name"])

        self._hub = durability.start(
            slack=slack, late_policy=late_policy, share=share,
            queue_size=queue_size, middleware=inner_middleware,
            sink_provider=adopt)
        for inner in self._hub.attachments:
            if inner.name in restored:
                attachment = AsyncAttachment(
                    self, inner, restored[inner.name], None, queue_size,
                    self._session_middleware, durable=True)
                attachment.parked = True
                # a hub recovered after its flush has nothing more to say
                attachment._done_sent = inner.state == Attachment.FLUSHED
                self._attachments.append(attachment)

    @property
    def watermark(self) -> float:
        return self._hub.watermark

    @property
    def is_closed(self) -> bool:
        return self._hub.is_closed

    @property
    def late_events(self) -> int:
        return self._hub.late_events

    @property
    def attachments(self) -> tuple[AsyncAttachment, ...]:
        return tuple(a for a in self._attachments
                     if a.state != Attachment.DETACHED)

    def attach(self, query: Query | str, *, engine: str = "spectre",
               name: Optional[str] = None,
               params: Optional[Mapping[str, Any]] = None,
               sink: Optional[Callable[[ComplexEvent], Any]] = None,
               queue_size: Optional[int] = None,
               middleware: Optional[list] = None,
               durable: bool = False,
               **engine_options) -> AsyncAttachment:
        """Subscribe one query; ``sink`` may be sync or ``async def``.

        ``middleware`` intercepts this attachment's match delivery and
        sink errors at the async layer (hooks may be ``async def``);
        ``on_attach`` hooks of the hub's middleware run here too, but
        must be synchronous — ``attach()`` is not a coroutine.  Query
        text is parsed (with ``params``) before the chain, so
        ``context.query`` is a :class:`~repro.patterns.query.Query` here
        as on the sync hub.

        ``durable=True`` (needs a hub opened over a durability manager)
        WAL-logs the attachment as restorable and stages its matches
        with their cursors; when a parked durable attachment already
        holds ``name``, the chain runs and that attachment is adopted
        instead of a new one being built.
        """
        if durable and (self._journal is None or not name):
            raise ValueError("durable attachments need a name and a hub "
                             "opened over a durability manager")
        query = as_query(query, name, params)
        name = name or query.name
        user_middleware = tuple(middleware or ())
        chain = self._stack.chain(
            "on_attach",
            lambda ctx: self._attach_raw(
                ctx.query, engine=ctx.engine, name=ctx.name, sink=sink,
                queue_size=queue_size, middleware=user_middleware,
                durable=durable, engine_options=engine_options))
        if chain is None:
            return self._attach_raw(
                query, engine=engine, name=name, sink=sink,
                queue_size=queue_size, middleware=user_middleware,
                durable=durable, engine_options=engine_options)
        ctx = MiddlewareContext("on_attach", hub=self, query=query,
                                name=name, engine=engine)
        attachment = chain(ctx)
        if inspect.isawaitable(attachment):
            attachment.close()
            raise TypeError(
                "on_attach hooks must be synchronous under the asyncio "
                "facade (attach() is not a coroutine)")
        return attachment

    def _attach_raw(self, query: Query, *, engine: str, name: str, sink,
                    queue_size: Optional[int], middleware: tuple,
                    durable: bool,
                    engine_options: dict) -> AsyncAttachment:
        journal = self._journal if durable else None
        if durable:
            for attachment in self._attachments:
                if attachment.parked and attachment.name == name:
                    attachment._adopt()
                    return attachment
            journal.set_durable(True)
        staged: deque = deque()
        try:
            inner = self._hub.attach(
                query, engine=engine, name=name,
                sink=_staging_sink(staged, journal, name), **engine_options)
        finally:
            if durable:  # a refused attach must not leak the latch
                journal.set_durable(None)
        attachment = AsyncAttachment(
            self, inner, staged, sink,
            queue_size=self.queue_size if queue_size is None else queue_size,
            middleware=self._session_middleware + middleware,
            durable=durable)
        self._attachments.append(attachment)
        return attachment

    def _forget(self, attachment: AsyncAttachment) -> None:
        """Drop a detached attachment from the dispatch loop (the inner
        sync hub keeps its stats history; the async facade must not
        keep iterating dead queues on every push)."""
        try:
            self._attachments.remove(attachment)
        except ValueError:
            pass

    async def _dispatch(self) -> None:
        for attachment in list(self._attachments):
            await attachment._dispatch()

    def _raise_sink_errors(self) -> None:
        errors: list = []
        for attachment in self._attachments:
            errors.extend(attachment._take_sink_errors())
        if errors:
            raise SinkError(errors)

    async def push(self, event: Event) -> int:
        """Offer one event — the 1-element case of :meth:`push_many`;
        suspends while any consumer queue is full."""
        return await self.push_many([event])

    async def push_many(self, events: list[Event]) -> int:
        """Offer a batch through one sorter/fan-out pass (mirrors the
        sync hub's ``push_many``); suspends on full consumer queues."""
        if self._achain_push_many is None:
            return await self._push_many_terminal(None, events)
        ctx = MiddlewareContext("on_push_many", hub=self,
                                events=events if isinstance(events, list)
                                else list(events))
        result = await self._achain_push_many(ctx)
        return 0 if result is None else result

    async def _push_many_terminal(self, ctx: Optional[MiddlewareContext],
                                  events: Optional[list] = None) -> int:
        delivered = self._hub.push_many(
            ctx.events if ctx is not None else events)
        await self._dispatch()
        return delivered

    async def flush(self) -> int:
        """End-of-stream: flush every attachment, end every iteration."""
        if self._achain_flush is None:
            return await self._flush_terminal(None)
        ctx = MiddlewareContext("on_flush", hub=self)
        result = await self._achain_flush(ctx)
        return 0 if result is None else result

    async def _flush_terminal(self, ctx) -> int:
        delivered = self._hub.flush()
        await self._dispatch()
        for attachment in list(self._attachments):
            await attachment._send_done()
        self._raise_sink_errors()
        return delivered

    async def close(self) -> int:
        if self._hub.is_closed:
            return 0
        # an implicit end-of-stream flush still runs the on_flush chain
        if self._achain_close is None or self._hub.is_flushed:
            return await self._close_terminal(None)
        ctx = MiddlewareContext("on_flush", hub=self)
        result = await self._achain_close(ctx)
        return 0 if result is None else result

    async def _close_terminal(self, ctx) -> int:
        delivered = self._hub.close()
        await self._dispatch()
        for attachment in list(self._attachments):
            await attachment._send_done()
        self._raise_sink_errors()
        return delivered

    async def aclose(self) -> int:
        """Graceful shutdown: flush the hub (trailing windows emit and
        their matches are *delivered*), detach every attachment with
        its ``on_detach`` chain running exactly once, unblock every
        iterating consumer, and release engine resources.  Idempotent;
        returns the number of matches the final flush surfaced.

        This is the drain path a serving runtime needs: after
        ``aclose()`` every ``async for match in attachment`` loop has
        ended normally (no match discarded, unlike :meth:`abort`) and
        the hub rejects further pushes.
        """
        if self._hub.is_closed:
            return 0
        delivered = 0
        try:
            if not self._hub.is_flushed:
                delivered = await self.flush()
        finally:
            for attachment in list(self._attachments):
                # idempotent per attachment: runs its on_detach chain
                # once, sends the end-of-iteration sentinel, and drops
                # it from the dispatch loop.  Durable attachments stay:
                # a WAL-logged detach would un-restore them
                if not attachment.durable:
                    await attachment.detach()
            self._hub.close()
        return delivered

    def abort(self) -> None:
        """Error path: release engines and unblock every iterating
        consumer (their ``async for`` ends immediately)."""
        self._hub.abort()
        for attachment in self._attachments:
            attachment._abort_queue()

    def stats(self) -> HubStats:
        return self._hub.stats()

    async def __aenter__(self) -> "AsyncStreamHub":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            await self.close()
