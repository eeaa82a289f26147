"""DCEP operators: one query, one engine, one node of the operator graph.

Sec. 2.1: "a distributed network of interconnected DCEP operators, the
operator graph, is deployed.  Each operator processes incoming event
streams and detects a designated part of an event pattern [...]  If such
a pattern is detected, a new (complex) event is produced and emitted to
successor operators or to a consumer."

An :class:`Operator` wraps a query plus an engine choice — any name
of :data:`repro.streaming.builder.ENGINES` — and exposes uniform
``process(events) -> list[Event]`` semantics: emitted complex events are
re-materialised as primitive events (type = the operator's output type,
payload = the complex event's attributes plus provenance) so that
successor operators can consume them like any other stream.  The engine
and config can be overridden per run, which is how
:meth:`repro.graph.graph.OperatorGraph.run` moves a whole pipeline onto
the speculative runtime in one call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.patterns.query import Query
from repro.spectre.config import SpectreConfig
from repro.streaming.builder import build_engine, engine_spec


@dataclass
class OperatorReport:
    """What one operator run produced."""

    name: str
    input_events: int
    complex_events: list[ComplexEvent]
    output_events: list[Event]
    engine: str


class Operator:
    """One node of the operator graph.

    Parameters
    ----------
    name:
        Unique operator name in the graph.
    query:
        The pattern-detection task.
    output_type:
        Event type of the re-materialised complex events (defaults to the
        operator name).
    engine:
        Any :data:`repro.streaming.builder.ENGINES` name.
        ``approximate`` contributes its *consistent* (final) output
        downstream; the early speculative stream stays in engine state.
    config:
        SPECTRE configuration (ignored by engines that take none).
    """

    def __init__(self, name: str, query: Query,
                 output_type: Optional[str] = None,
                 engine: str = "spectre",
                 config: SpectreConfig | None = None) -> None:
        engine_spec(engine)
        self.name = name
        self.query = query
        self.output_type = output_type or name
        self.engine = engine
        self.config = config or SpectreConfig()
        self.last_report: Optional[OperatorReport] = None

    def materialize(self, complex_events: Iterable[ComplexEvent],
                    seq_start: int = 0) -> list[Event]:
        """Complex events → primitive events for successor operators.

        The derived event's timestamp is its *detection anchor*: the
        timestamp of the last constituent (the event whose arrival
        completed the pattern).  Engines emit in window order, which can
        differ from anchor order when windows overlap, so the derived
        stream is re-sorted by anchor before sequence numbers are
        assigned densely from ``seq_start`` — keeping the global order of
        Sec. 2.1 intact downstream.
        """
        ordered = sorted(
            complex_events,
            key=lambda ce: (ce.constituents[-1].timestamp,
                            ce.constituents[-1].seq))
        output: list[Event] = []
        for offset, ce in enumerate(ordered):
            last = ce.constituents[-1]
            attributes = dict(ce.attributes)
            attributes["source_operator"] = self.name
            attributes["constituent_seqs"] = ce.constituent_seqs
            output.append(Event(
                seq=seq_start + offset,
                etype=self.output_type,
                timestamp=last.timestamp,
                attributes=attributes,
            ))
        return output

    def process(self, events: Iterable[Event],
                engine: Optional[str] = None,
                config: SpectreConfig | None = None) -> list[Event]:
        """Run the operator over a finite stream; return emitted events.

        ``engine``/``config`` override the operator's own choices for
        this run (graph-level overrides, see :meth:`OperatorGraph.run`).
        """
        engine = engine or self.engine
        events = list(events)
        complex_events = build_engine(
            self.query, engine,
            config=config or self.config).run(events).complex_events
        output = self.materialize(complex_events)
        self.last_report = OperatorReport(
            name=self.name,
            input_events=len(events),
            complex_events=complex_events,
            output_events=output,
            engine=engine,
        )
        return output

    def open(self, engine: Optional[str] = None,
             config: SpectreConfig | None = None) -> "OperatorSession":
        """Open a streaming session on this operator (one per stream)."""
        return OperatorSession(self, engine or self.engine,
                               config or self.config)


class OperatorSession:
    """Streaming face of one operator: an engine session plus
    incremental re-materialisation of its complex events.

    Engines emit in window order, but the derived stream must be in
    *anchor* order (:meth:`Operator.materialize`).  Matches are staged
    in a heap keyed by ``(anchor_ts, anchor_seq, emission_index)`` and
    released once the engine session's watermark proves no future match
    can anchor earlier — so the streamed derived events appear in
    exactly the batch order, with the same dense sequence numbers.
    """

    def __init__(self, operator: Operator, engine: str,
                 config: SpectreConfig) -> None:
        self.operator = operator
        self.engine_name = engine
        self._engine = build_engine(operator.query, engine, config=config)
        self.session = self._engine.open()
        self._staged: list[tuple[float, int, int, ComplexEvent]] = []
        self._emit_index = 0
        self._out_seq = 0
        self.complex_events: list[ComplexEvent] = []
        self.output_events: list[Event] = []

    def _stage(self, ce: ComplexEvent) -> None:
        anchor = ce.constituents[-1]
        heapq.heappush(self._staged, (anchor.timestamp, anchor.seq,
                                      self._emit_index, ce))
        self._emit_index += 1

    def _materialize_one(self, ce: ComplexEvent) -> Event:
        last = ce.constituents[-1]
        attributes = dict(ce.attributes)
        attributes["source_operator"] = self.operator.name
        attributes["constituent_seqs"] = ce.constituent_seqs
        event = Event(seq=self._out_seq, etype=self.operator.output_type,
                      timestamp=last.timestamp, attributes=attributes)
        self._out_seq += 1
        self.complex_events.append(ce)
        self.output_events.append(event)
        return event

    def _release(self, horizon: float) -> list[Event]:
        released: list[Event] = []
        while self._staged and self._staged[0][0] < horizon:
            released.append(self._materialize_one(
                heapq.heappop(self._staged)[3]))
        return released

    def push(self, event: Event) -> list[Event]:
        """Feed one (operator-locally renumbered) event; return derived
        events whose anchor order is now final."""
        for ce in self.session.push(event):
            self._stage(ce)
        return self._release(self.session.watermark)

    def flush(self) -> list[Event]:
        """End-of-stream: release every staged match, in anchor order."""
        for ce in self.session.flush():
            self._stage(ce)
        return self._release(float("inf"))

    def close(self) -> None:
        self.session.close()

    @property
    def watermark(self) -> float:
        """No future derived event will carry a timestamp below this."""
        staged = self._staged[0][0] if self._staged else float("inf")
        return min(staged, self.session.watermark)
