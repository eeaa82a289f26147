"""The T-REX comparison engine (Sec. 4.2.3).

A single-threaded, general-purpose engine: queries arrive as pattern ASTs,
are compiled to state machines (:mod:`repro.trex.automaton`), and windows
are evaluated strictly sequentially with full consumption support.
"T-REX does not support event consumptions in parallel processing" — there
is deliberately no speculation and no parallelism here.

It *is* the sequential baseline's window loop — one implementation, so
the oracle and its baseline cannot drift — but it only accepts automaton
queries and so *must* pay the generic-automaton cost per event
(predicate closures, binding dicts), which is what the throughput
comparison of Sec. 4.2.3 is about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.matching.nfa import NFADetector
from repro.sequential.engine import SequentialEngine, SequentialSession
from repro.trex.automaton import compile_detector
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


class TRexEngine(SequentialEngine):
    """Sequential automaton engine with consumption support: the
    in-order window loop of :class:`SequentialEngine`, restricted to
    automaton queries and wall-clock timed."""

    def new_detector(self, start_event: Event) -> NFADetector:
        return compile_detector(self.query, start_event)

    def _process_window(self, window: Window,
                        session: SequentialSession) -> None:
        started = time.perf_counter()
        super()._process_window(window, session)
        session.wall_seconds += time.perf_counter() - started

    def _result(self, session: SequentialSession) -> TRexResult:
        counters = session.counters
        return TRexResult(
            complex_events=counters.complex_events,
            input_events=session.events_pushed,
            wall_seconds=session.wall_seconds,
            windows=counters.windows,
            events_fed=counters.events_fed,
        )
