"""The push-based streaming session protocol.

SPECTRE is an *online* operator: the splitter admits events one at a
time and complex events are emitted as soon as their window version is
validated.  This module is the public face of that fact — a
:class:`Session` is an incremental handle on one engine processing one
(possibly unbounded) stream:

.. code-block:: python

    with engine.open() as session:           # Engine protocol
        for event in source:
            for match in session.push(event):
                deliver(match)               # emitted *by this event*
        session.flush()                      # end-of-stream: trailing windows
    result = session.result()                # engine-native result object

Every engine in the repo (the :data:`repro.streaming.builder.ENGINES`
table) implements the :class:`Engine` protocol — ``open() -> Session`` —
and its batch ``run()`` is :func:`run_batch`: ``open(eager=False)`` +
``push*`` + ``flush()``, so batch and streaming share one code path and
one correctness contract.

Two driving modes:

* **eager** (the default for ``open()``): every ``push`` processes all
  windows the event completed and returns the complex events validated
  by it.  Retired state — the stream prefix below every live window,
  emitted windows, emitted dependency trees — is garbage-collected, so
  unbounded streams run in bounded memory.
* **lazy** (``eager=False``; what batch ``run()`` uses): ``push`` only
  ingests; ``flush()`` processes everything exactly like the historical
  batch loop, preserving bit-for-bit result parity (including stats and
  speculation dynamics) with the pre-session engines.

Lifecycle: ``open → push* → flush → close``.  ``flush`` marks
end-of-stream (closes trailing windows and drains them); pushing after a
flush raises :class:`SessionStateError`, pushing into a closed or
aborted session the sharper :class:`SessionClosedError` (a subclass,
with the session state in the message).  ``close`` is idempotent,
flushes implicitly if the caller did not, and releases engine resources
(worker threads, buffers); sessions are context managers so a ``with``
block always cleans up.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.matching.kernel import classifier_for
from repro.middleware.base import MiddlewareContext, MiddlewareStack
from repro.middleware.sinks import SinkError
from repro.windows.splitter import Splitter
from repro.windows.window import Window


class SessionStateError(RuntimeError):
    """An operation was issued against a flushed or closed session."""


class SessionClosedError(SessionStateError):
    """An operation was issued against a closed (or aborted) session.

    Distinguished from the plain flushed-state error so middleware
    sitting on top of sessions (sinks, hubs, pools) can tell "this
    stream ended cleanly, stop feeding it" apart from "someone is using
    a dead handle" — the latter is always a caller bug.
    """


class Session(abc.ABC):
    """Incremental push-based processing of one event stream.

    Subclasses implement the four primitive hooks (``_ingest_many``,
    ``_drain``, ``_finish``, ``result``) plus optionally garbage
    collection (``_collect_garbage``) and resource release
    (``_release``); this base class owns the lifecycle state machine.
    Engine sessions build on :class:`WindowedSession`.
    """

    def __init__(self, *, eager: bool = True, gc: bool | None = None,
                 middleware: Iterable | None = None) -> None:
        self.eager = eager
        # GC only makes sense while draining incrementally; lazy (batch)
        # sessions keep everything so results match the historical runs.
        self.gc = eager if gc is None else gc
        self.events_pushed = 0
        self.matches_emitted = 0
        self._flushed = False
        self._closed = False
        self._aborted = False
        self._last_ts = float("-inf")
        # stamped by the hub on its sessions, so middleware contexts
        # (and bucket keys, metric labels, ...) can name the attachment
        self.attachment = None
        self._sink_errors: list[tuple] = []
        # interception: ``middleware`` composes on_push_many/on_flush
        # around the session core, on_match/on_error around match
        # delivery.  Chains for un-hooked operations stay None so the
        # no-op case costs one attribute check per call — nothing is
        # allocated on the hot path unless a hook is installed.
        self._chain_push_many = self._chain_flush = None
        self._chain_match = self._chain_error = None
        if middleware:
            self._bind_middleware(middleware
                                  if isinstance(middleware, MiddlewareStack)
                                  else MiddlewareStack(middleware))

    def _bind_middleware(self, stack: MiddlewareStack) -> None:
        self._chain_push_many = stack.chain(
            "on_push_many", lambda ctx: self._push_many_raw(ctx.events))
        self._chain_flush = stack.chain(
            "on_flush", lambda ctx: self._flush_raw())
        self._chain_match = stack.chain("on_match", lambda ctx: ctx.match)
        self._chain_error = stack.chain(
            "on_error", lambda ctx: self._sink_errors.append(
                (ctx.sink, ctx.match, ctx.error)))

    # -- primitive hooks ---------------------------------------------------

    @abc.abstractmethod
    def _ingest_many(self, events: Sequence[Event]) -> None:
        """Admit a batch of events (split into windows, queue closed
        windows).  The batch is the unit of ingestion: ``push`` arrives
        here as a 1-element batch."""

    @abc.abstractmethod
    def _drain(self) -> list[ComplexEvent]:
        """Process every queued window; return newly validated matches."""

    @abc.abstractmethod
    def _finish(self) -> None:
        """Signal end-of-stream (close and queue trailing windows)."""

    @abc.abstractmethod
    def result(self):
        """Engine-native result snapshot (``SpectreResult``,
        ``SequentialResult``, ...); callable at any lifecycle point."""

    def consumed_seqs(self) -> frozenset[int]:
        """Sequence numbers consumed so far (the resolved ledger)."""
        return frozenset()

    def _collect_garbage(self) -> None:
        """Drop retired state (stream prefix, emitted windows)."""

    def _release(self) -> None:
        """Free engine resources (worker threads, buffers)."""

    # -- lifecycle ---------------------------------------------------------

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise SessionClosedError(
                f"cannot {operation}: session is "
                f"{self.state} ({self.events_pushed} events pushed, "
                f"{self.matches_emitted} matches emitted)")
        if self._flushed:
            raise SessionStateError(
                f"cannot {operation}: session already flushed "
                f"(end-of-stream)")

    @property
    def is_flushed(self) -> bool:
        return self._flushed

    @property
    def is_closed(self) -> bool:
        return self._closed

    @property
    def state(self) -> str:
        """Lifecycle state: ``open`` → ``flushed`` → ``closed`` (or
        ``aborted``, if :meth:`abort` skipped the implicit flush)."""
        if self._aborted:
            return "aborted"
        if self._closed:
            return "closed"
        if self._flushed:
            return "flushed"
        return "open"

    def push(self, event: Event) -> list[ComplexEvent]:
        """Offer one event; return the matches *it* validated — the
        1-element case of :meth:`push_many`.

        Lazy sessions always return ``[]`` (everything surfaces at
        ``flush``).  With middleware installed the event routes through
        the ``on_push_many`` chain as a 1-element batch first: hooks may
        transform it or short-circuit (drop), in which case ``[]`` is
        returned and the core never sees the event.
        """
        if self._closed or self._flushed:  # inline: the per-event path
            self._require_open("push")
        if self._chain_push_many is None:
            return self._push_many_raw((event,))
        return self.push_many([event])

    def push_many(self, events: Iterable[Event]) -> list[ComplexEvent]:
        """Offer a batch of events; return the matches they validated.

        The batch is the unit of ingestion: the engine admits it in one
        :meth:`_ingest_many` call (one splitter pass), then the session
        drains and garbage-collects once.  The matches are those of
        ``[m for e in events for m in push(e)]`` — per-event emission
        granularity is traded for throughput within the batch; across
        batches nothing changes.  The ``on_push_many`` chain may trim or
        replace the batch before the core ingests it.
        """
        if self._closed or self._flushed:
            self._require_open("push_many")
        chain = self._chain_push_many
        if chain is None:
            return self._push_many_raw(events)
        result = chain(MiddlewareContext(
            "on_push_many", session=self, attachment=self.attachment,
            events=events if isinstance(events, list) else list(events)))
        return [] if result is None else result

    def _push_many_raw(self, events: Iterable[Event]) -> list[ComplexEvent]:
        if not isinstance(events, (list, tuple)):
            events = list(events)
        self._ingest_many(events)
        self.events_pushed += len(events)
        if events:
            self._last_ts = events[-1].timestamp
        if not self.eager:
            return []
        matches = self._drain()
        if self.gc:
            self._collect_garbage()
        if self._chain_match is not None:
            matches = self._deliver_matches(matches)
        self.matches_emitted += len(matches)
        return matches

    def flush(self) -> list[ComplexEvent]:
        """End-of-stream: close trailing windows, drain everything still
        queued, and return the matches that surfaced.  A mid-stream
        ``flush`` treats the events pushed so far as the whole stream.
        Raises one :class:`~repro.middleware.sinks.SinkError` afterwards
        if sinks failed during delivery (the matches are still on the
        error's ``matches`` so nothing is lost)."""
        self._require_open("flush")
        chain = self._chain_flush
        if chain is None:
            matches = self._flush_raw()
        else:
            matches = chain(MiddlewareContext(
                "on_flush", session=self, attachment=self.attachment))
            matches = [] if matches is None else matches
        self._raise_sink_errors(matches)
        return matches

    def _flush_raw(self) -> list[ComplexEvent]:
        self._finish()
        matches = self._drain()
        self._flushed = True
        if self.gc:
            self._collect_garbage()
        if self._chain_match is not None:
            matches = self._deliver_matches(matches)
        self.matches_emitted += len(matches)
        return matches

    def close(self) -> list[ComplexEvent]:
        """Flush (if the caller did not) and release resources.

        Idempotent: a second ``close`` is a no-op returning ``[]``.
        Returns whatever the implicit flush surfaced so trailing matches
        are never silently lost.
        """
        if self._closed:
            return []
        try:
            matches = [] if self._flushed else self.flush()
        finally:
            self._closed = True
            self._release()
        return matches

    # -- match delivery (sinks + on_match/on_error chains) -----------------

    def _deliver_matches(self,
                         matches: list[ComplexEvent]) -> list[ComplexEvent]:
        """Route each validated match through the ``on_match`` chain
        (user middleware first, then sink dispatch).  A hook returning
        ``None`` suppresses the match: sinks never see it and it is not
        returned, queued, or counted."""
        chain = self._chain_match
        delivered: list[ComplexEvent] = []
        for match in matches:
            ctx = MiddlewareContext("on_match", match=match, session=self,
                                    attachment=self.attachment)
            out = chain(ctx)
            if out is not None:
                delivered.append(out)
        return delivered

    def _record_sink_error(self, sink, match, error) -> None:
        """Capture one sink failure, routed through ``on_error``."""
        chain = self._chain_error
        if chain is None:
            self._sink_errors.append((sink, match, error))
            return
        ctx = MiddlewareContext("on_error", match=match, error=error,
                                sink=sink, session=self,
                                attachment=self.attachment)
        chain(ctx)

    @property
    def sink_errors(self) -> list[tuple]:
        """Sink failures captured so far, ``(sink, match, exception)``."""
        return list(self._sink_errors)

    def _raise_sink_errors(self, matches: list[ComplexEvent]) -> None:
        if self._sink_errors:
            errors, self._sink_errors = self._sink_errors, []
            raise SinkError(errors, matches)

    def abort(self) -> None:
        """Release resources without the implicit flush.

        Used when an error interrupted the stream: flushing a broken
        session would re-raise (or worse, emit partial results as if
        they were final).  Idempotent, like ``close``.
        """
        if self._closed:
            return
        self._closed = True
        self._aborted = True
        self._release()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    # -- streaming watermark ----------------------------------------------

    def earliest_live_start(self) -> Optional[float]:
        """Start timestamp of the earliest opened window that may still
        emit a match; ``None`` when there is none."""
        return None

    @property
    def watermark(self) -> float:
        """No future match can anchor strictly below this timestamp.

        Every unemitted match belongs either to a window already opened
        (known start) or to one that will open on a future event (whose
        timestamp is at least the last pushed one, by global order).
        Streaming operator graphs use this to release derived events
        downstream in deterministic order.
        """
        start = self.earliest_live_start()
        return self._last_ts if start is None else start


class WindowedSession(Session):
    """The windowing scaffold every engine session stands on.

    The splitter is the one component that sees every event and the
    window is the one unit of work (Fig. 2, Sec. 2.1).  This class owns
    that mechanism once: the :attr:`splitter`, the hand-off of windows
    the stream proved complete (on a push and at end-of-stream) and the
    *processed through* cursor from which garbage collection and
    :meth:`earliest_live_start` are both derived.  An engine session
    supplies policy: :meth:`_queue_windows` and a ``_drain`` that
    processes windows in id order and moves ``_processed_through``.
    """

    def __init__(self, query, *, eager: bool = True,
                 gc: bool | None = None) -> None:
        super().__init__(eager=eager, gc=gc)
        self.splitter = Splitter(query.window,
                                 classifier=classifier_for(query))
        # id of the last window whose matches are final (ids are dense
        # from 0 and windows are processed in id order)
        self._processed_through = -1

    @abc.abstractmethod
    def _queue_windows(self, windows: list[Window]) -> None:
        """Take the windows the stream just proved complete (id order)."""

    def _ingest_many(self, events: Sequence[Event]) -> list[Window]:
        """One splitter pass, then the hand-off of whatever it closed;
        returns the windows the batch opened."""
        opened = self.splitter.ingest_many(events)
        closed = self.splitter.drain_closed()
        if closed:
            self._queue_windows(closed)
        return opened

    def _finish(self) -> None:
        self.splitter.finish()
        self._ingest_many(())  # hands off the windows finish() closed

    def _collect_garbage(self) -> None:
        self.splitter.retire(self._processed_through)
        self.splitter.trim_to_live()

    def earliest_live_start(self) -> Optional[float]:
        """A window is live until it is *processed* — retiring it
        (``gc``) only frees memory, it does not move time."""
        windows = self.splitter.windows
        index = self.splitter.live_index(self._processed_through)
        if index == len(windows):
            return None
        return windows[index].start_event.timestamp


@runtime_checkable
class Engine(Protocol):
    """The unified engine protocol: one way to open a stream, one way to
    run a batch (which is just a pre-recorded stream)."""

    def open(self, *, eager: bool = ...) -> Session: ...

    def run(self, events: Iterable[Event], **open_options): ...


def drive(session: Session, events: Iterable[Event]) -> list[ComplexEvent]:
    """Push ``events`` through ``session`` one at a time and flush;
    return all matches in emission order.  Convenience used by
    :func:`run_batch` and tests."""
    matches: list[ComplexEvent] = []
    for event in events:
        matches.extend(session.push(event))
    matches.extend(session.flush())
    return matches


def run_batch(source, events: Iterable[Event], **open_options):
    """The one batch ``run``: a batch is a pre-recorded stream.  Open a
    lazy session on ``source`` (an engine or a ``Pipeline``), drive it
    over ``events`` and return the engine-native result.  Every
    ``run(events, **open_options)`` in the repo is this call."""
    with source.open(eager=False, **open_options) as session:
        drive(session, events)
        return session.result()
