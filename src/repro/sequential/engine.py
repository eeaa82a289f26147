"""Sequential baseline engine.

This is the reference semantics: windows are processed strictly one after
the other ("the standard procedure to deal with data dependencies is to
wait with processing w2 until w1 is completely processed", Sec. 2.3).  A
global :class:`~repro.consumption.ledger.ConsumptionLedger` carries
consumptions across windows — an event consumed in window *w* is excluded
from every later window.

SPECTRE's correctness contract is defined against this engine: it must
emit exactly the same complex events (Sec. 2.3, "no false-positives and no
false-negatives").

The engine also measures the **ground-truth completion probability** of
consumption groups — "the number of created consumption groups divided by
the number of produced complex events provides the ground truth value"
(Sec. 4.2.1) — which reproduces Figs. 10(d)/(e).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.consumption.ledger import ConsumptionLedger
from repro.matching.base import Detector, Feedback
from repro.patterns.query import Query
from repro.streaming.session import WindowedSession, run_batch
from repro.windows.window import Window


@dataclass
class SequentialResult:
    """Outcome of a sequential run."""

    complex_events: list[ComplexEvent] = field(default_factory=list)
    windows: int = 0
    groups_created: int = 0
    groups_completed: int = 0
    events_fed: int = 0
    events_skipped_consumed: int = 0
    # events skipped by the compiled plan's type prefilter, summed over
    # windows (0 on the interpreted path / UDF queries)
    events_prefiltered: int = 0

    @property
    def completion_probability(self) -> float:
        """Ground-truth CG completion probability (Sec. 4.2.1)."""
        if self.groups_created == 0:
            return 0.0
        return self.groups_completed / self.groups_created

    def identities(self) -> list[tuple]:
        """Order-preserving identities for equivalence checks."""
        return [ce.identity() for ce in self.complex_events]


class SequentialSession(WindowedSession):
    """Push-based driving of an in-order engine: the one window loop.

    A window is processed the moment the stream proves it complete (the
    splitter closes it), against the ledger state left by all earlier
    windows — exactly the batch order, so streaming and batch results
    are identical, statistics included.  The engine supplies the
    per-window policy (:meth:`SequentialEngine.new_detector`).
    """

    def __init__(self, engine: "SequentialEngine", *, eager: bool = True,
                 gc: bool | None = None) -> None:
        super().__init__(engine.query, eager=eager, gc=gc)
        self.engine = engine
        self.ledger = ConsumptionLedger()
        self.counters = SequentialResult()
        self.wall_seconds = 0.0  # kept by engines that time their windows
        self._pending: deque[Window] = deque()

    def _queue_windows(self, windows: list[Window]) -> None:
        self._pending.extend(windows)

    def _drain(self) -> list[ComplexEvent]:
        if not self._pending:  # the common push: no window closed
            return []
        output = self.counters.complex_events
        before = len(output)
        while self._pending:
            window = self._pending.popleft()
            self.counters.windows += 1
            self.engine._process_window(window, self)
            self._processed_through = window.window_id
        return output[before:]

    def result(self):
        return self.engine._result(self)

    def consumed_seqs(self) -> frozenset[int]:
        return self.ledger.snapshot()


class SequentialEngine:
    """Runs a query over a stream, one window at a time."""

    def __init__(self, query: Query) -> None:
        self.query = query

    def open(self, *, eager: bool = True,
             gc: bool | None = None) -> SequentialSession:
        """Open a push-based streaming session (Engine protocol)."""
        return SequentialSession(self, eager=eager, gc=gc)

    def run(self, events: Iterable[Event], **open_options):
        """Process a finite stream to completion (a lazy session,
        driven and flushed)."""
        return run_batch(self, events, **open_options)

    def new_detector(self, start_event: Event) -> Detector:
        """The per-window policy: a fresh detector for the window that
        ``start_event`` opens."""
        return self.query.new_detector(start_event)

    def _result(self, session: SequentialSession) -> SequentialResult:
        return session.counters

    def _process_window(self, window: Window,
                        session: SequentialSession) -> None:
        detector = self.new_detector(window.start_event)
        ledger, result = session.ledger, session.counters
        classifier = session.splitter.classifier
        # compiled plan: events were classified once at ingestion;
        # irrelevant ones are skipped in O(1), before the ledger check,
        # without calling the detector (an event no atom can bind is
        # never consumed and never matters).  No plan: all relevant.
        flags = repeat(True) if classifier is None else \
            classifier.flags(window.start_pos, window.end_pos)
        for event, is_relevant in zip(window.events(), flags):
            if detector.done:
                break
            if not is_relevant:
                result.events_prefiltered += 1
                continue
            if ledger.is_consumed(event):
                result.events_skipped_consumed += 1
                continue
            result.events_fed += 1
            feedback = detector.process(event)
            if not feedback.is_empty:
                self._apply(feedback, window, ledger, result)
        self._apply(detector.close(), window, ledger, result)

    def _apply(self, feedback: Feedback, window: Window,
               ledger: ConsumptionLedger, result: SequentialResult) -> None:
        result.groups_created += len(feedback.created)
        for completion in feedback.completed:
            result.groups_completed += 1
            ledger.consume(completion.consumed)
            result.complex_events.append(ComplexEvent(
                query_name=self.query.name,
                window_id=window.window_id,
                constituents=completion.constituents,
                attributes=completion.attributes,
            ))


def ground_truth_completion_probability(
        query: Query, events: Sequence[Event]) -> float:
    """The Fig. 10(d)/(e) measurement as a standalone helper."""
    return SequentialEngine(query).run(events).completion_probability
