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
runtime (sequential baseline, simulated/threaded/elastic/approximate
speculation, process-sharded, T-REX) without touching the rest of the
chain; ``out_of_order()`` composes the
:class:`~repro.events.ooo.SlackSorter` in front of the engine, so
nearly-ordered sources work against every runtime; ``sink()`` registers
callbacks invoked per validated complex event.

``run(events)`` is the batch form: a lazy session drive that returns
the engine-native result object — the same object the deprecated
``run_*`` helpers used to return, which is how those helpers now route
through this facade.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.events.ooo import SlackSorter
from repro.middleware.base import Middleware
from repro.middleware.sinks import SinkDispatchMiddleware, SinkError
from repro.patterns.query import Query
from repro.streaming.session import Session, drive
from repro.utils.validation import require

__all__ = [
    "ENGINE_ALIASES",
    "Pipeline",
    "PipelineSession",
    "SinkError",  # canonical home: repro.middleware.sinks
    "build_engine",
    "pipeline",
]

# public/CLI alias -> canonical registry name
ENGINE_ALIASES = {
    "sequential": "sequential",
    "trex": "trex",
    "spectre": "spectre",
    "threaded": "spectre-threaded",
    "spectre-threaded": "spectre-threaded",
    "elastic": "spectre-elastic",
    "spectre-elastic": "spectre-elastic",
    "approximate": "spectre-approximate",
    "spectre-approximate": "spectre-approximate",
    "sharded": "spectre-sharded",
    "spectre-sharded": "spectre-sharded",
}


def build_engine(query: Query, name: str = "spectre", *,
                 config=None, policy=None, emission_threshold=None,
                 workers=None, **config_options):
    """Instantiate an engine by (aliased) name.

    ``config_options`` are :class:`~repro.spectre.config.SpectreConfig`
    fields (``k=4, scheduler="fifo", workers=2, ...``); alternatively
    pass a ready ``config=``.  ``policy`` configures the elastic engine
    (when ``k``/``config`` is given it defaults to honouring ``k`` as
    the resource budget, like the CLI); ``emission_threshold``
    configures the approximate engine; ``workers`` overrides the sharded
    engine's process count.
    """
    canonical = ENGINE_ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{sorted(set(ENGINE_ALIASES))}")
    require(policy is None or canonical == "spectre-elastic",
            "policy= only applies to the elastic engine")
    require(emission_threshold is None
            or canonical == "spectre-approximate",
            "emission_threshold= only applies to the approximate engine")
    require(workers is None or canonical == "spectre-sharded",
            "workers= only applies to the sharded engine "
            "(or pass it as a SpectreConfig field)")
    if canonical == "sequential":
        from repro.sequential.engine import SequentialEngine
        return SequentialEngine(query)
    if canonical == "trex":
        from repro.trex.engine import TRexEngine
        return TRexEngine(query)

    from repro.spectre.config import SpectreConfig
    config_given = config is not None or bool(config_options)
    if config is None:
        config = SpectreConfig(**config_options)
    elif config_options:
        raise ValueError("pass either config= or individual "
                         "SpectreConfig field overrides, not both")
    if canonical == "spectre-elastic":
        from repro.spectre.elasticity import (
            ElasticityPolicy,
            ElasticSpectreEngine,
        )
        if policy is None and config_given:
            # honour k as the resource budget: the policy may shrink the
            # instance count but never exceed what the user granted
            policy = ElasticityPolicy(max_k=config.k,
                                      plateau_k=min(8, config.k))
        return ElasticSpectreEngine(
            query, policy, config=config if config_given else None)
    if canonical == "spectre-approximate":
        from repro.spectre.approximate import ApproximateSpectreEngine
        kwargs = {} if emission_threshold is None else \
            {"emission_threshold": emission_threshold}
        return ApproximateSpectreEngine(query, config, **kwargs)
    if canonical == "spectre-sharded":
        from repro.runtime.sharding import ShardedSpectreEngine
        return ShardedSpectreEngine(query, config, workers=workers)
    from repro.graph.operator import ENGINE_FACTORIES
    return ENGINE_FACTORIES[canonical](query, config)


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
            released: list[Event] = []
            for event in events:
                released.extend(self.sorter.push(event))
            events = released
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
        """Choose the runtime: any :data:`ENGINE_ALIASES` name plus
        engine/config options (``k=``, ``scheduler=``, ``workers=``,
        ``config=``, ``policy=``, ``emission_threshold=``)."""
        require(name in ENGINE_ALIASES,
                f"unknown engine {name!r}; expected one of "
                f"{sorted(set(ENGINE_ALIASES))}")
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

    def run(self, events: Iterable[Event]):
        """Batch convenience: drive a lazy session over a finite stream
        and return the engine-native result (sinks fire at flush)."""
        with self.open(eager=False) as session:
            drive(session, events)
            return session.result()


def pipeline(query: Query) -> Pipeline:
    """Start a fluent pipeline: ``repro.pipeline(query).engine(...)
    .out_of_order(...).sink(...).open()``."""
    return Pipeline(query)
