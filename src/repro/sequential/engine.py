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
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.consumption.ledger import ConsumptionLedger
from repro.matching.base import Feedback
from repro.matching.kernel import classifier_for
from repro.patterns.query import Query
from repro.streaming.session import Session, run_batch
from repro.windows.splitter import Splitter
from repro.windows.window import Window


@dataclass
class SequentialResult:
    """Outcome of a sequential run."""

    complex_events: list[ComplexEvent]
    windows: int
    groups_created: int
    groups_completed: int
    events_fed: int
    events_skipped_consumed: int
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


class SequentialSession(Session):
    """Push-based driving of the sequential engine.

    A window is processed the moment the stream proves it complete (the
    splitter closes it), against the ledger state left by all earlier
    windows — exactly the batch order, so streaming and batch results
    are identical, statistics included.
    """

    def __init__(self, engine: "SequentialEngine", *, eager: bool = True,
                 gc: bool | None = None) -> None:
        super().__init__(eager=eager, gc=gc)
        self.engine = engine
        self._splitter = Splitter(engine.query.window,
                                  classifier=classifier_for(engine.query))
        self._ledger = ConsumptionLedger()
        self._pending: deque[Window] = deque()
        self._result = SequentialResult(
            complex_events=[], windows=0, groups_created=0,
            groups_completed=0, events_fed=0, events_skipped_consumed=0)
        self._last_window_id = -1

    def _ingest_many(self, events: Sequence[Event]) -> None:
        self._splitter.ingest_many(events)
        self._pending.extend(self._splitter.drain_closed())

    def _finish(self) -> None:
        self._splitter.finish()
        self._pending.extend(self._splitter.drain_closed())

    def _drain(self) -> list[ComplexEvent]:
        before = len(self._result.complex_events)
        classifier = self._splitter.classifier
        while self._pending:
            window = self._pending.popleft()
            self._result.windows += 1
            self.engine._process_window(window, self._ledger, self._result,
                                        classifier)
            self._last_window_id = window.window_id
        return self._result.complex_events[before:]

    def _collect_garbage(self) -> None:
        self._splitter.retire(self._last_window_id)
        self._splitter.trim_to_live()

    def result(self) -> SequentialResult:
        return self._result

    def consumed_seqs(self) -> frozenset[int]:
        return self._ledger.snapshot()


class SequentialEngine:
    """Runs a query over a stream, one window at a time."""

    def __init__(self, query: Query) -> None:
        self.query = query

    def open(self, *, eager: bool = True,
             gc: bool | None = None) -> SequentialSession:
        """Open a push-based streaming session (Engine protocol)."""
        return SequentialSession(self, eager=eager, gc=gc)

    def run(self, events: Iterable[Event],
            **open_options) -> SequentialResult:
        """Process a finite stream to completion (a lazy session,
        driven and flushed)."""
        return run_batch(self, events, **open_options)

    def _process_window(self, window: Window, ledger: ConsumptionLedger,
                        result: SequentialResult,
                        classifier=None) -> None:
        detector = self.query.new_detector(window.start_event)
        if classifier is not None:
            # compiled plan: events were classified once at ingestion;
            # irrelevant ones are skipped in O(1), before the ledger
            # check, without calling the detector (an event no atom can
            # bind is never consumed and never matters)
            flags = classifier.flags(window.start_pos, window.end_pos)
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
        else:
            for event in window.events():
                if detector.done:
                    break
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
