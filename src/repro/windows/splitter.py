"""The splitter: stream → windows.

The splitter is the single component that sees every incoming event
(Fig. 2).  It appends events to the shared buffer, opens windows according
to the :class:`~repro.windows.specs.WindowSpec`, closes windows whose scope
is exhausted, and maintains the *average window size* statistic that the
Markov prediction model needs (Fig. 5, line 2: ``Splitter.avgWindowSize``).

The splitter is engine-agnostic: the sequential baseline, the T-REX
baseline and SPECTRE all drive the same splitter, so they all see the
identical window decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.events.event import Event
from repro.events.stream import EventStream, StreamOrderError
from repro.utils.ids import IdGenerator
from repro.windows.specs import CountScope, EverySlide, WindowSpec
from repro.windows.window import Window


@dataclass
class SplitterStats:
    """Run-time statistics exposed to the prediction model."""

    windows_opened: int = 0
    windows_closed: int = 0
    closed_size_sum: int = 0

    @property
    def avg_window_size(self) -> float:
        """Average size of closed windows; 0.0 before the first close."""
        if self.windows_closed == 0:
            return 0.0
        return self.closed_size_sum / self.windows_closed


class Splitter:
    """Ingests events and produces the window decomposition.

    The batch is the unit of ingestion; :meth:`ingest` is the 1-event
    case of :meth:`ingest_many`.  Usage::

        splitter = Splitter(spec)
        for chunk in source:
            new_windows = splitter.ingest_many(chunk)  # windows opened here
            ready = splitter.drain_closed()            # windows closed here
            ...
        splitter.finish()                              # close trailing windows
    """

    def __init__(self, spec: WindowSpec, stream: EventStream | None = None,
                 classifier=None):
        self.spec = spec
        self.stream = stream if stream is not None else EventStream()
        self.stats = SplitterStats()
        # optional repro.matching.kernel.EventClassifier: the splitter is
        # the one component that sees every event exactly once, so it is
        # where per-event type relevance is classified (then shared by
        # every overlapping window).
        self.classifier = classifier
        # spec kinds, resolved once: slide 0 = predicate start, size 0 =
        # time scope
        start, scope = spec.start, spec.scope
        self._slide = start.slide if isinstance(start, EverySlide) else 0
        self._predicate = None if self._slide else start.predicate
        self._size = scope.size if isinstance(scope, CountScope) else 0
        self._duration = 0.0 if self._size else scope.duration
        self._ids = IdGenerator()
        self._open_windows: list[Window] = []
        # what closes the front open window (see ``_expiry``), if any
        self._front_expiry: float | None = None
        self.windows: list[Window] = []  # all non-retired windows, by id
        self._newly_closed: list[Window] = []
        self._retired = 0  # windows dropped from the front of `windows`
        self._finished = False

    @property
    def ingested(self) -> int:
        """Number of events ingested so far (visible stream length)."""
        return len(self.stream)

    def ingest(self, event: Event) -> list[Window]:
        """Ingest one event; return windows *opened* by it (the
        1-event case of :meth:`ingest_many`)."""
        return self.ingest_many((event,))

    def ingest_many(self, events: Sequence[Event]) -> list[Window]:
        """Ingest a batch; return the windows *opened* by it, in order.

        Produces exactly the window decomposition, statistics and
        :meth:`drain_closed` order of one :meth:`ingest` per event.
        Closing happens as a side effect: count-scoped windows close when
        their size is reached, time-scoped windows close when an event
        beyond their duration arrives (events are globally ordered, so the
        first such event proves the window can receive no more).  An
        empty batch is a no-op, also after :meth:`finish`.  An
        out-of-order event raises
        :class:`~repro.events.stream.StreamOrderError` after the events
        before it were ingested; it and the rest of the batch are not.
        """
        if self._finished and events:
            raise RuntimeError("splitter already finished")
        stream = self.stream
        first = len(stream)
        try:
            stream.extend(events)
        except StreamOrderError:
            self._split(events[:len(stream) - first], first)
            raise
        return self._split(events, first)

    def _split(self, events: Sequence[Event], first: int) -> list[Window]:
        """Window the events just appended at positions ``first...``."""
        if self.classifier is not None:
            self.classifier.ingest_many(events)
        slide, predicate = self._slide, self._predicate
        by_count = self._size > 0
        # Windows expire in open order (count scopes: end = start + size
        # with nondecreasing starts; time scopes: nondecreasing start
        # timestamps), so only the front window is tested per event —
        # the hot no-expiry case is one comparison against ``expiry``.
        open_windows = self._open_windows
        expiry = self._front_expiry
        opened: list[Window] = []
        for position, event in enumerate(events, first):
            while expiry is not None and (
                    position >= expiry if by_count
                    else event.timestamp > expiry):
                self._finalize(open_windows.pop(0), position)
                expiry = self._front_expiry = \
                    self._expiry(open_windows[0]) if open_windows else None
            if (position % slide == 0) if slide else predicate(event):
                window = self._open_window(position)
                opened.append(window)
                if expiry is None:
                    expiry = self._front_expiry = self._expiry(window)
        return opened

    def _open_window(self, position: int) -> Window:
        window = Window(window_id=self._ids.next(), stream=self.stream,
                        start_pos=position)
        if self._size:
            # end known immediately; the window still *closes* (becomes
            # fully readable) only once the stream reaches the end position.
            window.end_pos = position + self._size
        self._open_windows.append(window)
        self.windows.append(window)
        self.stats.windows_opened += 1
        return window

    def _expiry(self, window: Window) -> float:
        """What proves ``window`` can receive no more events: the first
        position at or past its end (count scope), the first timestamp
        beyond its duration (time scope)."""
        if self._size:
            return window.end_pos  # type: ignore[return-value]
        return window.start_event.timestamp + self._duration

    def _finalize(self, window: Window, position: int) -> None:
        if window.end_pos is None:
            window.close(position)  # current event is outside the window
        # count-scoped windows already carry end_pos
        self.stats.windows_closed += 1
        self.stats.closed_size_sum += window.size()  # type: ignore[arg-type]
        self._newly_closed.append(window)

    def finish(self) -> None:
        """Signal end-of-stream: close every remaining open window."""
        if self._finished:
            return
        self._finished = True
        end = len(self.stream)
        for window in self._open_windows:
            if window.end_pos is not None and window.end_pos > end:
                # count window truncated by end-of-stream
                window.end_pos = end
            self._finalize(window, end)
        self._open_windows = []
        self._front_expiry = None

    def drain_closed(self) -> list[Window]:
        """Windows closed since the last call, in window-id order.

        Closure order equals id order: for a single scope kind a later
        window can never close before an earlier one, and windows closing
        on the same event are finalized in open order.  Streaming sessions
        poll this after every :meth:`ingest_many` (and after :meth:`finish`)
        to feed engines windows as soon as they become fully readable.
        """
        closed = self._newly_closed
        self._newly_closed = []
        return closed

    def is_window_complete(self, window: Window) -> bool:
        """Is every event of ``window`` already in the stream?"""
        if window.end_pos is None:
            return False
        return self._finished or len(self.stream) >= window.end_pos

    def split_all(self, events) -> list[Window]:
        """Convenience: ingest an entire finite stream and return all
        windows (the static shard planner's one-shot pass)."""
        self.ingest_many(events if isinstance(events, (list, tuple))
                         else list(events))
        self.finish()
        return list(self.windows)

    # -- prefix garbage collection -----------------------------------------

    @property
    def retired(self) -> int:
        """Windows dropped from the front of :attr:`windows` so far."""
        return self._retired

    def retire(self, upto_window_id: int) -> int:
        """Forget fully processed windows with id <= ``upto_window_id``.

        Only closed windows are retired (an open window at the front
        stops the sweep).  Together with :meth:`EventStream.trim` this is
        what keeps unbounded streaming sessions in bounded memory; batch
        runs never call it, so ``split_all`` callers still see every
        window.  Returns the number of windows retired.
        """
        keep = 0
        for window in self.windows:
            if window.window_id > upto_window_id or not window.is_closed:
                break
            keep += 1
        if keep:
            del self.windows[:keep]
            self._retired += keep
        return keep

    def live_index(self, processed_through: int) -> int:
        """Index into :attr:`windows` of the first window with an id
        above ``processed_through`` (``len(windows)`` if none).  Ids are
        dense and the list is id- and start-ordered, so the windows not
        processed yet are the slice from here, earliest first — whether
        or not the processed ones were retired."""
        return min(processed_through + 1 - self._retired, len(self.windows))

    def min_live_start(self) -> int:
        """Smallest stream position a non-retired window references
        (= the stream length when no window is live): the safe
        :meth:`EventStream.trim` horizon.  Windows open in position
        order, so it is the front window's start."""
        if not self.windows:
            return len(self.stream)
        return self.windows[0].start_pos

    def trim_to_live(self) -> int:
        """Trim the stream (and the relevance classifier, if any) below
        every live window; returns the number of events dropped."""
        horizon = self.min_live_start()
        dropped = self.stream.trim(horizon)
        if self.classifier is not None:
            self.classifier.trim(horizon)
        return dropped
