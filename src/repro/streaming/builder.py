"""Fluent streaming-pipeline facade.

One composable entry point for deploying any engine as streaming
middleware — reordering stage, engine choice and sinks in a single
chain:

.. code-block:: python

    import repro

    session = (repro.pipeline(query)
               .engine("threaded", k=4)
               .out_of_order(slack=50)
               .sink(print)
               .open())
    for event in source:
        session.push(event)      # sinks fire as matches validate
    session.close()

The builder is *policy-free middleware* in the Dearle et al. sense: the
interface fixes nothing about the deployment.  ``engine()`` swaps the
runtime (any :data:`ENGINES` name) without touching the rest of the
chain; ``out_of_order()`` composes the
:class:`~repro.events.ooo.SlackSorter` in front of the engine, so
nearly-ordered sources work against every runtime; ``sink()`` registers
callbacks invoked per validated complex event.

``run(events)`` is the batch form: a lazy session drive that returns
the engine-native result object — ``run_batch`` in
:mod:`repro.streaming.session`, the call every engine's ``run`` makes.

This module is also the one home of the *engine* concept:
:data:`ENGINES` is the only table of engine names in the package.  The
builder, the operator graph, the hub and every ``--engine`` flag of the
CLI read it and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Iterable, Optional, Sequence

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.events.ooo import SlackSorter
from repro.middleware.base import Middleware
from repro.middleware.sinks import SinkDispatchMiddleware, SinkError
from repro.patterns.query import Query
from repro.streaming.session import Session, run_batch
from repro.utils.validation import require

__all__ = [
    "ENGINES",
    "EngineSpec",
    "Pipeline",
    "PipelineSession",
    "SinkError",  # canonical home: repro.middleware.sinks
    "build_engine",
    "engine_spec",
    "pipeline",
]


@dataclass(frozen=True)
class EngineSpec:
    """One row of :data:`ENGINES`: where the engine class lives and
    whether its constructor takes a config besides the query."""

    # "module:Class", imported on first use — the engine modules import
    # repro.streaming for the session base, so importing them from here
    # at module level would be circular
    target: str
    takes_config: bool = True     # a SpectreConfig (k=, scheduler=, ...)

    def load(self):
        module, _, attribute = self.target.partition(":")
        return getattr(import_module(module), attribute)


ENGINES = {
    "sequential": EngineSpec("repro.sequential.engine:SequentialEngine",
                             takes_config=False),
    "trex": EngineSpec("repro.trex.engine:TRexEngine", takes_config=False),
    "spectre": EngineSpec("repro.spectre.engine:SpectreEngine"),
    "threaded": EngineSpec("repro.spectre.threaded:ThreadedSpectreEngine"),
}


def engine_spec(name: str) -> EngineSpec:
    """The :data:`ENGINES` row for ``name``; an unknown name raises the
    one ``ValueError`` every layer reports."""
    spec = ENGINES.get(name)
    if spec is None:
        raise ValueError(f"unknown engine {name!r}; expected one of "
                         f"{list(ENGINES)}")
    return spec


def build_engine(query: Query, name: str = "spectre", *,
                 config=None, **config_options):
    """Instantiate the :data:`ENGINES` entry ``name``.

    ``config_options`` are :class:`~repro.spectre.config.SpectreConfig`
    fields (``k=4, scheduler="fifo", elasticity=ElasticityPolicy(),
    emission_threshold=0.9, ...``); alternatively pass a ready
    ``config=`` (engines that take none ignore both).
    """
    spec = engine_spec(name)
    factory = spec.load()
    if not spec.takes_config:
        return factory(query)
    if config_options:
        require(config is None, "pass either config= or individual "
                                "SpectreConfig field overrides, not both")
        from repro.spectre.config import SpectreConfig
        config = SpectreConfig(**config_options)
    return factory(query, config=config)


class PipelineSession(Session):
    """A composed session: optional slack reordering → engine session →
    sinks.  ``push`` accepts *nearly ordered* events when the pipeline
    has an ``out_of_order`` stage; matches surface once their events
    clear the slack buffer.

    Sink failures are isolated: a raising sink does not interrupt
    ``push`` and the other sinks keep receiving matches; the captured
    errors surface as one :class:`SinkError` on ``flush()``/``close()``
    (and stay inspectable via :attr:`sink_errors` meanwhile).  That
    delivery — sinks, isolation, error capture — runs through the
    session's ``on_match``/``on_error`` middleware chains: ``middleware``
    hooks run first (they may transform or suppress a match, shed a
    push, observe errors), then the internal
    :class:`~repro.middleware.sinks.SinkDispatchMiddleware` fans out to
    the sinks."""

    def __init__(self, inner: Session, sorter: Optional[SlackSorter],
                 sinks: tuple[Callable[[ComplexEvent], None], ...],
                 middleware: tuple = ()) -> None:
        stack = list(middleware)
        if sinks:
            stack.append(SinkDispatchMiddleware(sinks))
        super().__init__(eager=inner.eager, gc=False, middleware=stack)
        self.inner = inner
        self.sorter = sorter
        self.sinks = sinks
        self._staged: list[ComplexEvent] = []

    @property
    def late_events(self) -> int:
        """Events dropped (or raised on) by the reorder stage."""
        return self.sorter.late_events if self.sorter is not None else 0

    def _ingest_many(self, events: Sequence[Event]) -> None:
        """One sorter pass, then one inner ``push_many`` over whatever
        the batch released."""
        if self.sorter is not None:
            events = self.sorter.push_many(events)
        self._staged.extend(self.inner.push_many(events))

    def _finish(self) -> None:
        if self.sorter is not None:
            self._staged.extend(self.inner.push_many(self.sorter.flush()))
        self._staged.extend(self.inner.flush())

    def _drain(self) -> list[ComplexEvent]:
        # sink delivery happens in the base class's on_match chain
        # (user middleware, then SinkDispatchMiddleware)
        matches, self._staged = self._staged, []
        return matches

    def _release(self) -> None:
        if self.inner.is_flushed:
            self.inner.close()
        else:
            self.inner.abort()

    def result(self):
        return self.inner.result()

    def consumed_seqs(self) -> frozenset[int]:
        return self.inner.consumed_seqs()

    def earliest_live_start(self) -> Optional[float]:
        return self.inner.earliest_live_start()

    @property
    def watermark(self) -> float:
        return self.inner.watermark


class Pipeline:
    """Fluent builder for a streaming pipeline over one query.

    Every method returns ``self`` so stages chain; ``open()`` produces a
    live :class:`PipelineSession`, ``run(events)`` the batch result.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self._engine_name = "spectre"
        self._engine_options: dict = {}
        self._slack: Optional[float] = None
        self._late_policy = "drop"
        self._sinks: list[Callable[[ComplexEvent], None]] = []
        self._middleware: list[Middleware] = []

    def engine(self, name: str = "spectre", **options) -> "Pipeline":
        """Choose the runtime: any :data:`ENGINES` name plus
        config options (``config=``, or ``SpectreConfig`` fields such
        as ``k=``, ``scheduler=``, ``elasticity=``)."""
        engine_spec(name)
        self._engine_name = name
        self._engine_options = options
        return self

    def out_of_order(self, slack: float,
                     late_policy: str = "drop") -> "Pipeline":
        """Accept nearly ordered input: buffer events for ``slack`` time
        units and release them in ``(timestamp, seq)`` order."""
        require(slack >= 0.0, "slack must be >= 0")
        self._slack = slack
        self._late_policy = late_policy
        return self

    def sink(self, callback: Callable[[ComplexEvent], None]) -> "Pipeline":
        """Register a callback invoked for every validated match."""
        self._sinks.append(callback)
        return self

    def use(self, middleware: Middleware) -> "Pipeline":
        """Install one middleware on the session's interception chain
        (first installed = outermost).  See
        :mod:`repro.middleware.base` for the hook model; sink delivery
        always runs innermost, after every ``use()``d hook."""
        self._middleware.append(middleware)
        return self

    def build(self):
        """Instantiate the configured engine (one engine per stream)."""
        return build_engine(self.query, self._engine_name,
                            **self._engine_options)

    def open(self, *, eager: bool = True, **open_options) -> PipelineSession:
        """Open a live session on a freshly built engine."""
        inner = self.build().open(eager=eager, **open_options)
        sorter = SlackSorter(self._slack, self._late_policy) \
            if self._slack is not None else None
        return PipelineSession(inner, sorter, tuple(self._sinks),
                               middleware=tuple(self._middleware))

    def run(self, events: Iterable[Event], **open_options):
        """Batch convenience: drive a lazy session over a finite stream
        and return the engine-native result (sinks fire at flush)."""
        return run_batch(self, events, **open_options)


def pipeline(query: Query) -> Pipeline:
    """Start a fluent pipeline: ``repro.pipeline(query).engine(...)
    .out_of_order(...).sink(...).open()``."""
    return Pipeline(query)
