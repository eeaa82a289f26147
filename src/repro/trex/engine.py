"""The T-REX comparison engine (Sec. 4.2.3).

A single-threaded, general-purpose engine: queries arrive as pattern ASTs,
are compiled to state machines (:mod:`repro.trex.automaton`), and windows
are evaluated strictly sequentially with full consumption support.
"T-REX does not support event consumptions in parallel processing" — there
is deliberately no speculation and no parallelism here.

Its structure mirrors the sequential baseline, but it *must* pay the
generic-automaton cost per event (predicate closures, binding dicts),
which is what the throughput comparison of Sec. 4.2.3 is about.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.consumption.ledger import ConsumptionLedger
from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.matching.kernel import classifier_for
from repro.patterns.query import Query
from repro.streaming.session import Session, run_batch
from repro.trex.automaton import compile_detector
from repro.windows.splitter import Splitter
from repro.windows.window import Window


@dataclass
class TRexResult:
    """Outcome of a T-REX run (wall-clock timed)."""

    complex_events: list[ComplexEvent]
    input_events: int
    wall_seconds: float
    windows: int
    events_fed: int

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_events / self.wall_seconds

    def identities(self) -> list[tuple]:
        return [ce.identity() for ce in self.complex_events]


class TRexSession(Session):
    """Push-based driving of the T-REX baseline: each window is
    evaluated by its compiled automaton the moment the stream proves it
    complete, against the ledger left by all earlier windows — the batch
    order, so streaming and batch results are identical."""

    def __init__(self, engine: "TRexEngine", *, eager: bool = True,
                 gc: bool | None = None) -> None:
        super().__init__(eager=eager, gc=gc)
        self.engine = engine
        self._splitter = Splitter(engine.query.window,
                                  classifier=classifier_for(engine.query))
        self._ledger = ConsumptionLedger()
        self._pending: deque[Window] = deque()
        self._output: list[ComplexEvent] = []
        self._windows = 0
        self._events_fed = 0
        self._wall_seconds = 0.0
        self._last_window_id = -1

    def _ingest_many(self, events: Sequence[Event]) -> None:
        self._splitter.ingest_many(events)
        self._pending.extend(self._splitter.drain_closed())

    def _finish(self) -> None:
        self._splitter.finish()
        self._pending.extend(self._splitter.drain_closed())

    def _drain(self) -> list[ComplexEvent]:
        query = self.engine.query
        classifier = self._splitter.classifier
        before = len(self._output)
        started = time.perf_counter()
        while self._pending:
            window = self._pending.popleft()
            self._windows += 1
            self._last_window_id = window.window_id
            detector = compile_detector(query, window.start_event)
            flags = classifier.flags(window.start_pos, window.end_pos) \
                if classifier is not None else None
            for index, event in enumerate(window.events()):
                if detector.done:
                    break
                if flags is not None and not flags[index]:
                    continue  # classified once at ingestion, O(1) skip
                if self._ledger.is_consumed(event):
                    continue
                self._events_fed += 1
                feedback = detector.process(event)
                for completion in feedback.completed:
                    self._ledger.consume(completion.consumed)
                    self._output.append(ComplexEvent(
                        query_name=query.name,
                        window_id=window.window_id,
                        constituents=completion.constituents,
                        attributes=completion.attributes,
                    ))
            detector.close()
        self._wall_seconds += time.perf_counter() - started
        return self._output[before:]

    def _collect_garbage(self) -> None:
        self._splitter.retire(self._last_window_id)
        self._splitter.trim_to_live()

    def result(self) -> TRexResult:
        return TRexResult(
            complex_events=self._output,
            input_events=self.events_pushed,
            wall_seconds=self._wall_seconds,
            windows=self._windows,
            events_fed=self._events_fed,
        )

    def consumed_seqs(self) -> frozenset[int]:
        return self._ledger.snapshot()


class TRexEngine:
    """Sequential automaton engine with consumption support."""

    def __init__(self, query: Query) -> None:
        self.query = query

    def open(self, *, eager: bool = True,
             gc: bool | None = None) -> TRexSession:
        """Open a push-based streaming session (Engine protocol)."""
        return TRexSession(self, eager=eager, gc=gc)

    def run(self, events: Iterable[Event], **open_options) -> TRexResult:
        """Process a finite stream to completion (a lazy session,
        driven and flushed)."""
        return run_batch(self, events, **open_options)
