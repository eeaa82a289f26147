"""The multi-query StreamHub: one ingestion path, many queries.

After the session redesign every :class:`~repro.streaming.session.Session`
still binds exactly one query to one stream pass — N continuous queries
over the same feed means N redundant decode → reorder → split passes.
Real CEP deployments multiplex *many* queries over one shared event
feed, and adaptive-middleware work (Dearle et al.) argues the serving
surface must support runtime reconfiguration rather than
restart-to-change.  The hub is that layer:

.. code-block:: python

    hub = StreamHub(slack=10.0)
    spikes = hub.attach(spike_query, engine="threaded", k=4,
                        sink=alert)
    bands = hub.attach(BAND_TEXT, engine="spectre",
                       params={"lowerLimit": 40, "upperLimit": 60})
    for event in source:
        hub.push(event)              # ONE reorder pass, N engines
    bands.detach()                   # mid-stream reconfiguration
    audits = hub.attach(audit_query) # joins at the current watermark
    ...
    hub.close()

One :class:`~repro.events.ooo.SlackSorter` repairs out-of-order arrival
for every attachment; each attachment keeps its own engine session —
isolated consumption ledger, isolated ``RunStats`` — built through the
same :func:`~repro.streaming.builder.build_engine` registry the fluent
pipeline and the CLI use.

**Watermark-consistent admission.**  An attachment added mid-stream
must not see half a stream's worth of a window: it goes *pending* until
the hub reaches a point where the attachment's window decomposition
re-synchronises with a standalone run — the next released event for
predicate-opened windows (window starts are data-driven), the next
slide-aligned stream position for ``FROM every s events`` windows.
From that point the attachment emits exactly the suffix of its alone
run: the complex events of windows opening at or after its
``admission_watermark``.  (When a *consumption policy* couples windows
across the admission point — overlapping windows with consumption —
the suffix is still well-formed but an alone run may differ in the
first overlapping windows; tumbling windows and consumption-free
queries are exact.)

**Backpressure.**  Sink-less attachments buffer matches in a bounded
queue for pull-style consumption (``drain()``/iteration).  When a queue
overruns its bound the hub signals the producer: ``overflow="raise"``
(default) raises :class:`BackpressureError` *after* the fan-out
completed — no match is lost, the queue is transiently over its bound,
and every further push keeps raising until the consumer drains;
``overflow="drop_oldest"`` enforces a hard bound instead, dropping and
counting the oldest matches.  The asyncio facade
(:class:`~repro.hub.aio.AsyncStreamHub`) turns this into real
backpressure: ``await hub.push(event)`` suspends until consumers catch
up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.events.ooo import SlackSorter
from repro.middleware.base import (
    MiddlewareContext,
    MiddlewareStack,
    _implements,
)
from repro.middleware.sinks import SinkError
from repro.hub.optimizer import (
    GroupMember,
    MemberSession,
    RoutingIndex,
    SharedGroup,
    SharingStats,
    member_signature,
    routed_types_for,
    share_enabled,
)
from repro.patterns.parser import parse_query
from repro.patterns.query import Query
from repro.streaming.builder import PipelineSession, build_engine
from repro.utils.validation import require
from repro.windows.specs import EverySlide

_NO_EVENTS: list[Event] = []
_INF = float("inf")


def _json_safe(value):
    """Clamp a numeric leaf to something ``json.dumps`` round-trips
    under strict parsers: non-finite floats become ``None``."""
    if isinstance(value, float) and \
            (value != value or value in (float("inf"), float("-inf"))):
        return None
    return value


class HubClosedError(RuntimeError):
    """An operation was issued against a closed StreamHub."""


class BackpressureError(RuntimeError):
    """One or more attachment queues overran their bound.

    Raised after the fan-out completed — no match was lost; drain the
    named attachments and keep pushing.
    """

    def __init__(self, attachments: list["Attachment"]) -> None:
        self.attachments = list(attachments)
        depths = ", ".join(f"{a.name}={len(a._queue)}/{a.queue_size}"
                           for a in self.attachments)
        super().__init__(
            f"attachment queue(s) over bound ({depths}); drain them "
            f"(Attachment.drain()) or attach a sink")


@dataclass(frozen=True)
class AttachmentStats:
    """Per-attachment snapshot inside :meth:`StreamHub.stats`."""

    name: str
    engine: str
    state: str
    events_delivered: int
    matches_emitted: int
    matches_dropped: int
    queue_depth: int
    sink_errors: int
    admission_position: Optional[int]
    admission_watermark: Optional[float]
    run_stats: Any = None
    # multi-query optimizer observability: events that reached this
    # attachment's matching path vs. events the hub's type index proved
    # irrelevant and never delivered; ``shared`` marks attachments served
    # by a SharedGroup instead of a private engine session.
    events_offered: int = 0
    events_skipped_by_index: int = 0
    shared: bool = False

    def to_dict(self) -> dict:
        """Nested, JSON-safe snapshot (``run_stats`` recurses through
        its own ``to_dict`` when the engine provides one)."""
        run_stats = self.run_stats
        if run_stats is not None:
            to_dict = getattr(run_stats, "to_dict", None)
            run_stats = to_dict() if callable(to_dict) else repr(run_stats)
        return {
            "name": self.name,
            "engine": self.engine,
            "state": self.state,
            "events_delivered": self.events_delivered,
            "matches_emitted": self.matches_emitted,
            "matches_dropped": self.matches_dropped,
            "queue_depth": self.queue_depth,
            "sink_errors": self.sink_errors,
            "admission_position": self.admission_position,
            "admission_watermark": _json_safe(self.admission_watermark),
            "events_offered": self.events_offered,
            "events_skipped_by_index": self.events_skipped_by_index,
            "shared": self.shared,
            "run_stats": run_stats,
        }


@dataclass(frozen=True)
class HubStats:
    """Aggregate snapshot of one hub: ingestion counters plus one
    :class:`AttachmentStats` row per (current or detached) attachment."""

    events_pushed: int
    events_released: int
    late_events: int
    pending_reorder: int
    watermark: float
    attachments: tuple[AttachmentStats, ...]
    sharing: Optional[SharingStats] = None
    durability: Optional[dict] = None  # WAL/checkpoint block (if durable)

    @property
    def matches_total(self) -> int:
        return sum(a.matches_emitted for a in self.attachments)

    @property
    def attachments_live(self) -> int:
        return sum(a.state in ("live", "pending") for a in self.attachments)

    def to_dict(self) -> dict:
        """Nested, JSON-safe snapshot of the whole hub — the shape
        ``python -m repro serve --stats-json`` writes."""
        return {
            "events_pushed": self.events_pushed,
            "events_released": self.events_released,
            "late_events": self.late_events,
            "pending_reorder": self.pending_reorder,
            "watermark": _json_safe(self.watermark),
            "matches_total": self.matches_total,
            "attachments_live": self.attachments_live,
            "attachments": [a.to_dict() for a in self.attachments],
            "sharing": None if self.sharing is None
            else self.sharing.to_dict(),
            "durability": self.durability,
        }


class Attachment:
    """One continuous query served by a hub.

    Created by :meth:`StreamHub.attach`; holds the query's own
    :class:`~repro.streaming.builder.PipelineSession` (isolated ledger,
    isolated stats).  Matches flow to the attachment's sinks if any
    were registered, else into the bounded queue consumed by
    :meth:`drain` / iteration.
    """

    PENDING = "pending"
    LIVE = "live"
    FLUSHED = "flushed"
    DETACHED = "detached"

    def __init__(self, hub: "StreamHub", name: str, query: Query,
                 engine: str, session: PipelineSession | MemberSession,
                 queue_size: int, overflow: str,
                 member: Optional[GroupMember] = None,
                 routed_types: Optional[frozenset] = None) -> None:
        self.hub = hub
        self.name = name
        self.query = query
        self.engine = engine
        self.session = session
        self.queue_size = queue_size
        self.overflow = overflow
        self.state = Attachment.PENDING
        self.admission_position: Optional[int] = None
        self.admission_watermark: Optional[float] = None
        self.events_delivered = 0
        self.matches_dropped = 0
        self.sink_errors_total = 0
        self._queue: deque[ComplexEvent] = deque()
        self._over_bound = False
        # multi-query optimizer state: ``_live`` is the admission fast
        # path (one bool per event instead of a state-string compare plus
        # a position-modulo check forever); ``_member`` marks shared
        # attachments (fed by their SharedGroup, not by push); routed
        # attachments receive only events of ``_routed_types``.
        self._live = False
        self._member = member
        self._routed_types = routed_types
        # earliest expiry among the routed session's live time windows
        # (unknown until the first routed delivery: offer, then learn)
        self._routed_expiry = -_INF
        self.events_offered = 0
        self.events_skipped_by_index = 0
        # durability/recovery state: ``_admit_floor`` keeps a restored
        # or replayed attachment pending until the stream position it
        # originally joined at (suffix replay must not open windows the
        # original run never saw); ``_replay_skip`` filters events a
        # pre-crash consumption ledger already claimed; ``engine_options``
        # records the attach-time engine kwargs for durable re-attachment.
        self._admit_floor: Optional[int] = None
        self._replay_skip: Optional[frozenset] = None
        self.engine_options: dict = {}

    # -- delivery (hub-internal) ------------------------------------------

    def _admits(self, position: int) -> bool:
        """Would a standalone run open windows in sync from here on?"""
        start = self.query.window.start
        if isinstance(start, EverySlide):
            return position % start.slide == 0
        return True  # predicate starts are data-driven: any point works

    def _begin_admission(self, event: Event, position: int) -> bool:
        """Try to admit a pending attachment at ``position``."""
        if self.state != Attachment.PENDING or not self._admits(position):
            return False
        if self._admit_floor is not None and position < self._admit_floor:
            return False
        self.state = Attachment.LIVE
        self._live = True
        self.admission_position = position
        self.admission_watermark = event.timestamp
        if self._member is not None:
            self._member.group.admit(self._member, position)
        return True

    def _offer_many(self, events: list[Event], first_position: int) -> int:
        """Fan-out of a released chunk: admit (if pending), then deliver
        from the admission point on."""
        if not self._live:
            for index, event in enumerate(events):
                if self._begin_admission(event, first_position + index):
                    if index:
                        events = events[index:]
                    break
            else:
                return 0
        return self._deliver(events)

    def _offer_routed(self, events: list[Event],
                      released: list[Event]) -> int:
        """Fan-out for a live routed attachment: the hub's type index
        already classified the chunk; ``events`` is the interested
        subset of ``released``.

        The attachment must still see time pass: when the chunk's last
        event was filtered out but lies beyond the expiry of a window
        that is open (or that ``events`` may open), it is offered too.
        By the routing precondition it is irrelevant, so it can only
        close windows — their matches surface on this push, exactly as
        on an unrouted hub."""
        last = released[-1]
        duration = self.query.window.scope.duration
        if not events or events[-1] is not last:
            expiry = self._routed_expiry if not events else \
                min(self._routed_expiry, events[0].timestamp + duration)
            if last.timestamp > expiry:
                events = events + [last]
        self.events_skipped_by_index += len(released) - len(events)
        if not events:
            return 0
        delivered = self._deliver(events)
        start = self.session.earliest_live_start()
        self._routed_expiry = _INF if start is None else start + duration
        return delivered

    def _deliver(self, events: list[Event]) -> int:
        """Hand admitted events to the session as one ``push_many``."""
        skip = self._replay_skip
        if skip is not None:
            # consumed pre-crash: the restored ledger already spent them
            events = [event for event in events if event.seq not in skip]
        if not events:
            return 0
        self.events_delivered += len(events)
        self.events_offered += len(events)
        if self._member is not None:
            return 0  # the SharedGroup ingests the chunk once for everyone
        matches = self.session.push_many(events)
        self._enqueue(matches)
        return len(matches)

    def _deliver_shared(self, matches: list[ComplexEvent]) -> int:
        """Deliver matches the SharedGroup produced for this member."""
        out = self.session.deliver(matches)
        self._enqueue(out)
        return len(out)

    def _enqueue(self, matches: list[ComplexEvent]) -> None:
        if self.session.sinks:
            return  # sinks consumed them (isolated inside the session)
        self._queue.extend(matches)
        if self.overflow == "drop_oldest":
            while len(self._queue) > self.queue_size:
                self._queue.popleft()
                self.matches_dropped += 1
        elif len(self._queue) > self.queue_size:
            self._over_bound = True

    def _finish(self, errors: list) -> int:
        """Hub flush: end this attachment's stream (keep it readable)."""
        if self.state not in (Attachment.PENDING, Attachment.LIVE):
            return 0
        try:
            matches = self.session.flush()
        except SinkError as error:
            self.sink_errors_total += len(error.errors)
            errors.extend(error.errors)
            matches = error.matches
        self.state = Attachment.FLUSHED
        self._live = False
        self._enqueue(matches)
        return len(matches)

    def _release(self) -> None:
        if self.session.is_flushed:
            try:
                self.session.close()
            except SinkError as error:  # already surfaced at flush time
                self.sink_errors_total += len(error.errors)
        else:
            self.session.abort()

    # -- consumer surface --------------------------------------------------

    @property
    def watermark(self) -> float:
        """No future match of this attachment anchors below this."""
        return self.session.watermark

    @property
    def matches_emitted(self) -> int:
        return self.session.matches_emitted

    def drain(self) -> list[ComplexEvent]:
        """Take every queued match (resets the backpressure signal)."""
        matches = list(self._queue)
        self._queue.clear()
        self._over_bound = False
        return matches

    def __iter__(self) -> Iterator[ComplexEvent]:
        """Consume queued matches one at a time (stops when empty)."""
        while self._queue:
            yield self._queue.popleft()
        self._over_bound = False

    def detach(self, drain: bool = True) -> list[ComplexEvent]:
        """Leave the hub mid-stream.

        With ``drain=True`` (default) the attachment's stream ends
        *cleanly*: trailing windows are flushed exactly as a mid-stream
        ``Session.flush`` would — the attachment's total output equals
        its query run alone over the delivered prefix — and the flush
        matches are returned (sinks fire, sink-less attachments also
        keep them queued).  With ``drain=False`` the session is aborted
        and trailing windows are discarded.  Idempotent.  Raises
        :class:`~repro.streaming.builder.SinkError` after detaching if
        sinks failed during the final delivery.
        """
        if self.state == Attachment.DETACHED:
            return []  # idempotent: even the on_detach chain runs once
        chain = self.hub._middleware.chain(
            "on_detach", lambda ctx: self._detach_raw(drain))
        if chain is None:
            return self._detach_raw(drain)
        ctx = MiddlewareContext("on_detach", hub=self.hub, attachment=self,
                                drain=drain)
        result = chain(ctx)
        return [] if result is None else result

    def _detach_raw(self, drain: bool) -> list[ComplexEvent]:
        self.hub._forget(self)
        was_live = self.state in (Attachment.PENDING, Attachment.LIVE)
        self.state = Attachment.DETACHED
        self._live = False
        if not (drain and was_live):
            self._release()
            return []
        try:
            matches = self.session.flush()
        except SinkError as error:
            self.sink_errors_total += len(error.errors)
            self._enqueue(error.matches)
            self._release()
            raise
        self._enqueue(matches)
        self._release()
        return matches

    def stats(self) -> AttachmentStats:
        result = self.session.result()
        return AttachmentStats(
            name=self.name,
            engine=self.engine,
            state=self.state,
            events_delivered=self.events_delivered,
            matches_emitted=self.matches_emitted,
            matches_dropped=self.matches_dropped,
            queue_depth=len(self._queue),
            sink_errors=self.sink_errors_total
            + len(self.session.sink_errors),
            admission_position=self.admission_position,
            admission_watermark=self.admission_watermark,
            run_stats=getattr(result, "stats", None),
            events_offered=self.events_offered,
            events_skipped_by_index=self.events_skipped_by_index,
            shared=self._member is not None,
        )

    def __repr__(self) -> str:
        return (f"Attachment({self.name!r}, engine={self.engine!r}, "
                f"state={self.state}, matches={self.matches_emitted})")


def as_query(query: Query | str, name: Optional[str],
             params: Optional[Mapping[str, Any]]) -> Query:
    """What ``attach`` was given, as a :class:`Query`: MATCH-RECOGNIZE
    text is parsed with ``params`` — before any ``on_attach`` chain, so
    ``context.query`` is a ``Query`` at every layer."""
    if isinstance(query, str):
        return parse_query(query, name=name or "query", params=params)
    if params is not None:
        raise ValueError("params= only applies to query text")
    return query


class StreamHub:
    """One shared ingestion path serving any number of attachments.

    Parameters
    ----------
    slack, late_policy:
        The shared reordering stage (``slack=0.0`` still enforces the
        global order and handles exact-duplicate/late arrivals per
        ``late_policy``).
    queue_size, overflow:
        Defaults for sink-less attachments' match queues; see the
        module docstring for the backpressure contract.

    Not thread-safe: drive a hub from one thread (or wrap it in
    :class:`~repro.hub.aio.AsyncStreamHub` and one event loop).
    """

    def __init__(self, *, slack: float = 0.0, late_policy: str = "drop",
                 queue_size: int = 1024, overflow: str = "raise",
                 share: Optional[bool] = None,
                 middleware: Optional[Iterable] = None) -> None:
        require(queue_size >= 1, "queue_size must be >= 1")
        require(overflow in ("raise", "drop_oldest"),
                "overflow must be 'raise' or 'drop_oldest'")
        self._sorter = SlackSorter(slack, late_policy)
        # hub-level interception: ingestion/lifecycle hooks run at hub
        # scope (before the shared reorder stage); the middlewares'
        # match/error hooks are replayed inside every attachment's
        # session chain (``delivery_views``).
        self._middleware = MiddlewareStack(middleware or ())
        self._session_middleware = self._middleware.delivery_views()
        self._chain_push_many = self._middleware.chain(
            "on_push_many", lambda ctx: self._push_many_raw(ctx.events))
        self._chain_flush = self._middleware.chain(
            "on_flush", lambda ctx: self._flush_raw())
        self.queue_size = queue_size
        self.overflow = overflow
        self.events_pushed = 0
        self._position = 0  # released events fanned out so far
        self._attachments: list[Attachment] = []
        self._detached: list[Attachment] = []
        self._names: set[str] = set()
        self._flushed = False
        self._closed = False
        # cross-query optimizer: ``share=None`` reads REPRO_SHARE
        # (default on); ``share=False`` is the differential-testing
        # escape hatch disabling routing, memoization and prefix sharing.
        self._share = share_enabled(share)
        self._routing = RoutingIndex()
        self._groups: dict[tuple, SharedGroup] = {}
        self._all_groups: list[SharedGroup] = []  # incl. emptied (stats)
        # durability: when retention is enabled the hub keeps the
        # released-event suffix (position, event) that a checkpoint
        # needs to make open windows replayable; the manager trims it
        # at every checkpoint cut.  ``durability`` is stamped by a
        # DurabilityManager so stats()/to_dict() can include its block.
        self._retained: Optional[list[tuple[int, Event]]] = None
        self.durability: Optional[Any] = None

    # -- lifecycle ---------------------------------------------------------

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise HubClosedError(f"cannot {operation}: hub is closed")
        if self._flushed:
            raise HubClosedError(
                f"cannot {operation}: hub already flushed (end-of-stream)")

    @property
    def is_flushed(self) -> bool:
        return self._flushed

    @property
    def is_closed(self) -> bool:
        return self._closed

    @property
    def watermark(self) -> float:
        """Ingestion watermark: everything at or below this timestamp
        has been released to the attachments and is final."""
        return self._sorter.watermark

    @property
    def attachments(self) -> tuple[Attachment, ...]:
        """The currently attached (non-detached) attachments."""
        return tuple(self._attachments)

    @property
    def late_events(self) -> int:
        return self._sorter.late_events

    # -- attach / detach ---------------------------------------------------

    def attach(self, query: Query | str, *, engine: str = "spectre",
               name: Optional[str] = None,
               params: Optional[Mapping[str, Any]] = None,
               sink: Callable[[ComplexEvent], None]
               | Iterable[Callable[[ComplexEvent], None]] | None = None,
               queue_size: Optional[int] = None,
               overflow: Optional[str] = None,
               middleware: Optional[Iterable] = None,
               **engine_options) -> Attachment:
        """Subscribe one query; works before the first push or mid-stream.

        ``query`` is a :class:`~repro.patterns.query.Query` or
        MATCH-RECOGNIZE text (parsed via
        :func:`~repro.patterns.parser.parse_query` with ``params``).
        ``engine`` plus ``engine_options`` go through
        :func:`~repro.streaming.builder.build_engine` — any name of
        its :data:`~repro.streaming.builder.ENGINES` table with that
        engine's options (``k=``, ``scheduler=``, ``config=``, ...).
        ``sink`` is one callback or an iterable of callbacks invoked
        per validated match (isolated: a raising sink never starves the
        others); without sinks, matches buffer in the bounded queue.
        ``middleware`` installs per-attachment interception around this
        attachment's session (see :mod:`repro.middleware.base`); a
        middleware hooking ``on_push_many`` gives the attachment a
        private engine session — per-member ingestion
        rewrites are unsound inside a shared group, which ingests each
        event exactly once for all members.
        """
        if self._closed or self._flushed:
            raise HubClosedError("cannot attach: hub is "
                                 + ("closed" if self._closed else "flushed"))
        query = as_query(query, name, params)
        name = name or query.name
        user_middleware = tuple(middleware or ())
        chain = self._middleware.chain(
            "on_attach",
            lambda ctx: self._attach_raw(
                ctx.query, engine=ctx.engine, name=ctx.name, sinks=sink,
                queue_size=queue_size, overflow=overflow,
                middleware=user_middleware, engine_options=engine_options))
        if chain is None:
            return self._attach_raw(
                query, engine=engine, name=name, sinks=sink,
                queue_size=queue_size, overflow=overflow,
                middleware=user_middleware, engine_options=engine_options)
        ctx = MiddlewareContext("on_attach", hub=self, query=query,
                                name=name, engine=engine)
        return chain(ctx)

    def _attach_raw(self, query: Query, *, engine: str, name: str,
                    sinks, queue_size: Optional[int],
                    overflow: Optional[str], middleware: tuple,
                    engine_options: dict) -> Attachment:
        if name in self._names:
            raise ValueError(f"attachment name {name!r} already in use")
        if sinks is None:
            sinks = ()
        elif callable(sinks):
            sinks = (sinks,)
        else:
            sinks = tuple(sinks)
        session_middleware = self._session_middleware + middleware
        ingest_hooked = any(_implements(mw, "on_push_many")
                            for mw in middleware)
        member = routed_types = None
        if self._share and not engine_options and not ingest_hooked:
            signature = member_signature(query, engine)
            if signature is not None:
                member = self._group_for(query).add_member(
                    name, query, signature)
        if member is not None:
            session: PipelineSession | MemberSession = \
                MemberSession(member, sinks,
                              middleware=session_middleware)
        else:
            if self._share:
                routed_types = routed_types_for(query)
            inner = build_engine(query, engine, **engine_options).open()
            session = PipelineSession(inner, None, sinks,
                                      middleware=session_middleware)
        attachment = Attachment(
            self, name, query, engine, session,
            queue_size=self.queue_size if queue_size is None else queue_size,
            overflow=self.overflow if overflow is None else overflow,
            member=member, routed_types=routed_types)
        if member is not None:
            member.attachment = attachment
        attachment.engine_options = dict(engine_options)
        session.attachment = attachment
        self._routing.add(name, routed_types)
        self._names.add(name)
        self._attachments.append(attachment)
        return attachment

    def _group_for(self, query: Query) -> SharedGroup:
        """The live shared group for this window spec (one splitter and
        one prefix stepper per ``(slide, size)`` equivalence class)."""
        key = (query.window.start.slide, query.window.scope.size)
        group = self._groups.get(key)
        if group is None or not group.members:
            group = SharedGroup(query.window)
            self._groups[key] = group
            self._all_groups.append(group)
        return group

    def _forget(self, attachment: Attachment) -> None:
        if attachment in self._attachments:
            self._attachments.remove(attachment)
            self._detached.append(attachment)
            self._names.discard(attachment.name)
            self._routing.remove(attachment.name)

    # -- ingestion ---------------------------------------------------------

    def push(self, event: Event) -> int:
        """Offer one event to every attachment; return the number of
        matches it validated across all of them.

        The 1-event case of :meth:`push_many`: the shared sorter may
        hold the event back (slack) or release several buffered ones;
        whatever it releases is fanned out as one chunk, to every live
        attachment in attach order, and pending attachments are admitted
        the moment their alignment point passes.
        """
        self._require_open("push")
        if self._chain_push_many is None:
            return self._push_many_raw((event,))
        return self.push_many([event])

    def push_many(self, events: Iterable[Event]) -> int:
        """Offer a batch of events; return the total matches validated.

        The batch is the unit of ingestion: one sorter pass, then one
        ``push_many`` per attachment (one ingest per shared group) over
        the whole released chunk, and a single backpressure check at
        the end.  Matches per attachment do not depend on the chunking;
        within a chunk, sinks of different attachments fire attachment
        by attachment, not event by event.
        """
        self._require_open("push_many")
        if self._chain_push_many is None:
            return self._push_many_raw(events)
        result = self._chain_push_many(MiddlewareContext(
            "on_push_many", hub=self,
            events=events if isinstance(events, list) else list(events)))
        return 0 if result is None else result

    def _push_many_raw(self, events: Iterable[Event]) -> int:
        delivered = self._ingest(events)
        # keep raising while any queue is over bound, even on calls the
        # sorter fully buffered — the producer must drain
        over = [a for a in self._attachments if a._over_bound]
        if over:
            raise BackpressureError(over)
        return delivered

    def _ingest(self, events: Iterable[Event]) -> int:
        """One pass through the shared sorter, then the fan-out of
        whatever the batch released."""
        if not isinstance(events, (list, tuple)):
            events = list(events)
        released = self._sorter.push_many(events)
        self.events_pushed += len(events)
        return self._deliver_chunk(released)

    def _deliver_chunk(self, released: list[Event]) -> int:
        """The hub's one fan-out: hand a released chunk (positions
        ``self._position...``) to every attachment and shared group, each
        in one batch."""
        if not released:
            return 0
        first_position = self._position
        self._position += len(released)
        if self._retained is not None:
            self._retained.extend(
                (first_position + index, event)
                for index, event in enumerate(released))
        # classify the chunk once against the routing index; each
        # live routed attachment receives only its interested subset
        buckets = self._routing.buckets(released) \
            if self._routing.has_routed else None
        delivered = 0
        for attachment in list(self._attachments):
            if buckets is not None and attachment._live and \
                    attachment._routed_types is not None:
                delivered += attachment._offer_routed(
                    buckets.get(attachment.name, _NO_EVENTS), released)
            else:
                delivered += attachment._offer_many(released,
                                                    first_position)
        if self._groups:
            delivered += self._ingest_groups(released, first_position)
        return delivered

    def _ingest_groups(self, released: list[Event],
                       first_position: int) -> int:
        """Feed the released chunk to every shared group (each ingests
        it exactly once for all its members) and deliver the matches to
        the member attachments."""
        delivered = 0
        for key, group in list(self._groups.items()):
            if not group.members:
                del self._groups[key]  # all members detached
                continue
            group.ingest(released, first_position)
            for member in list(group.members):
                if member._pending:
                    delivered += member.attachment._deliver_shared(
                        member.drain_pending())
        return delivered

    def flush(self) -> int:
        """End-of-stream: release the sorter's buffer, flush every
        attachment (trailing windows), return the matches that
        surfaced.  Never raises :class:`BackpressureError` — there is
        no more producing to push back on, and the overrun queues hold
        every match losslessly for ``drain()``.  Raises one aggregated
        :class:`~repro.streaming.builder.SinkError` afterwards if any
        attachment's sinks failed."""
        self._require_open("flush")
        if self._chain_flush is None:
            return self._flush_raw()
        result = self._chain_flush(MiddlewareContext("on_flush", hub=self))
        return 0 if result is None else result

    def _flush_raw(self) -> int:
        delivered = self._deliver_chunk(self._sorter.flush())
        errors: list = []
        for attachment in list(self._attachments):
            delivered += attachment._finish(errors)
        self._flushed = True
        if errors:
            raise SinkError(errors)
        return delivered

    def close(self) -> int:
        """Flush (if the caller did not) and release every attachment's
        engine resources.  Idempotent."""
        if self._closed:
            return 0
        try:
            delivered = 0 if self._flushed else self.flush()
        finally:
            self._closed = True
            for attachment in self._attachments:
                attachment._release()
        return delivered

    def abort(self) -> None:
        """Release resources without the implicit flush (error path)."""
        if self._closed:
            return
        self._closed = True
        for attachment in self._attachments:
            attachment.session.abort()

    def __enter__(self) -> "StreamHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    # -- durability (checkpoint / recovery) --------------------------------

    def retain_released(self) -> None:
        """Keep the released-event suffix for checkpointing.  Enabled
        by the durability manager before the first push; the retained
        list is trimmed to the checkpoint cut at every snapshot.
        Entries hold *contiguous* positions (every released event is
        retained, and trimming only drops a prefix), so suffix and
        trim are index arithmetic, not scans — checkpoint cost must
        not grow with the checkpoint interval."""
        if self._retained is None:
            self._retained = []

    @property
    def retained_floor(self) -> int:
        """Position of the oldest retained released event (equals the
        current position when nothing is retained)."""
        if self._retained:
            return self._retained[0][0]
        return self._position

    def retained_suffix(self, cut: int) -> list[tuple[int, Event]]:
        """The retained ``(position, event)`` entries at/after ``cut``."""
        retained = self._retained
        if not retained:
            return []
        start = cut - retained[0][0]
        if start <= 0:
            return list(retained)
        return retained[start:]

    def trim_retained(self, cut: int) -> None:
        """Drop retained events below ``cut`` (the checkpoint decided
        no open window can need them)."""
        retained = self._retained
        if retained is None or not retained:
            return
        drop = cut - retained[0][0]
        if drop > 0:
            del retained[:len(retained) if drop > len(retained)
                         else drop]

    def restore_ingest_state(self, *, events_pushed: int,
                             pending: list[Event], max_seen: float,
                             released_key: tuple[float, float],
                             late_events: int = 0) -> None:
        """Recovery: restore the ingestion counters and the sorter's
        held-back buffer from a snapshot (called after the released
        suffix has been replayed, so positions line up)."""
        self.events_pushed = events_pushed
        self._sorter.restore(pending, max_seen, released_key,
                             late_events)

    def replay_suffix(self, first_position: int,
                      events: list[Event]) -> int:
        """Recovery: re-fan-out already-released events, as one chunk,
        so open windows rebuild their partial matches.  Bypasses the
        sorter (these events were released before the snapshot) and the
        middleware chains; emitted matches are expected to be
        suppressed by the recovery dedup ledger."""
        self._position = first_position
        return self._deliver_chunk(events)

    def ingest_replay(self, events: Iterable[Event]) -> int:
        """Recovery: re-push one logged batch of WAL-tail events
        through the shared sorter and the fan-out — what a live
        ``push_many`` of the same batch does below the middleware chains
        (their effects — shedding, validation rewrites — are baked into
        the logged events) and without the backpressure raise (consumers
        are not running during recovery)."""
        return self._ingest(events)

    # -- introspection -----------------------------------------------------

    def stats(self) -> HubStats:
        """Aggregate + per-attachment snapshot (detached ones included,
        so a serving summary never loses history)."""
        everyone = self._attachments + self._detached
        groups = self._all_groups
        return HubStats(
            events_pushed=self.events_pushed,
            events_released=self._position,
            late_events=self._sorter.late_events,
            pending_reorder=self._sorter.pending,
            watermark=self.watermark,
            attachments=tuple(a.stats() for a in everyone),
            durability=None if self.durability is None
            else self.durability.stats_dict(),
            sharing=SharingStats(
                enabled=self._share,
                groups=len(groups),
                shared_attachments=sum(
                    1 for a in everyone if a._member is not None),
                windows_shared=sum(g.windows_shared for g in groups),
                prefix_events_saved=sum(
                    g.prefix_events_saved for g in groups),
                memo_hits=sum(g.memo_hits for g in groups),
                memo_misses=sum(g.memo_misses for g in groups),
            ),
        )
