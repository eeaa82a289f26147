"""repro — a reproduction of SPECTRE (Mayer et al., Middleware 2017).

SPECTRE enables window-based *data-parallel* complex event processing in
the presence of **consumption policies** (events participate in at most
one pattern instance) by speculating on the outcome of partial matches
and scheduling the k most probable window versions onto k operator
instances.

Quickstart
----------
Batch — the fluent pipeline facade runs any engine over a finite
stream:

>>> from repro import SpectreConfig, SpectreEngine, make_qe, pipeline
>>> from repro.events import make_event
>>> stream = [make_event(0, "A", 0.0, change=2.0),
...           make_event(1, "A", 10.0, change=4.0),
...           make_event(2, "B", 20.0, change=6.0),
...           make_event(3, "B", 30.0, change=8.0),
...           make_event(4, "B", 70.0, change=2.0)]
>>> query = make_qe("selected-b")
>>> sequential = pipeline(query).engine("sequential").run(stream)
>>> speculative = pipeline(query).engine("spectre", k=4).run(stream)
>>> sequential.identities() == speculative.identities()
True

Streaming — every engine opens a push-based session that emits each
match on the event that validated it (``Engine.open() -> Session``):

>>> session = SpectreEngine(query, SpectreConfig(k=4)).open()
>>> matches = []
>>> for event in stream:
...     matches.extend(session.push(event))
>>> matches.extend(session.close())   # flushes trailing windows
>>> [ce.identity() for ce in matches] == sequential.identities()
True

Serving — a :class:`StreamHub` multiplexes many concurrent queries
over one shared ingestion pass, with dynamic attach/detach:

>>> from repro import StreamHub
>>> hub = StreamHub()
>>> attachment = hub.attach(query, engine="spectre", k=2)
>>> for event in stream:
...     _ = hub.push(event)           # one pass, every attachment
>>> _ = hub.close()
>>> [ce.identity() for ce in attachment] == sequential.identities()
True
"""

from repro.events import ComplexEvent, Event, EventStream, make_event
from repro.graph import Operator, OperatorGraph
from repro.middleware import (
    MetricsMiddleware,
    MetricsRegistry,
    Middleware,
    MiddlewareContext,
    MiddlewareStack,
    RateLimitExceeded,
    RateLimitMiddleware,
    TraceMiddleware,
    ValidationError,
    ValidationMiddleware,
)
from repro.hub import (
    AsyncStreamHub,
    Attachment,
    BackpressureError,
    HubClosedError,
    HubStats,
    StreamHub,
)
from repro.patterns import (
    Atom,
    ConsumptionPolicy,
    KleenePlus,
    Negation,
    Query,
    SelectionPolicy,
    Sequence,
    SetPattern,
    make_query,
    parse_query,
)
from repro.queries import make_q1, make_q2, make_q3, make_qe
from repro.runtime import (
    FifoScheduler,
    Forest,
    InstancePool,
    OpLog,
    RoundRobinScheduler,
    Scheduler,
    TopKProbabilityScheduler,
    make_scheduler,
)
from repro.sequential import SequentialEngine
from repro.streaming import (
    Engine,
    Pipeline,
    PipelineSession,
    Session,
    SessionClosedError,
    SessionStateError,
    SinkError,
    build_engine,
    pipeline,
)
from repro.spectre import (
    ElasticityPolicy,
    MarkovPredictor,
    SpectreConfig,
    SpectreEngine,
    SpectreResult,
    ThreadedSpectreEngine,
)
from repro.trex import TRexEngine
from repro.windows import WindowSpec

__version__ = "1.2.0"

__all__ = [
    "Engine",
    "Session",
    "SessionClosedError",
    "SessionStateError",
    "SinkError",
    "Pipeline",
    "PipelineSession",
    "pipeline",
    "build_engine",
    "Middleware",
    "MiddlewareContext",
    "MiddlewareStack",
    "MetricsMiddleware",
    "MetricsRegistry",
    "RateLimitMiddleware",
    "RateLimitExceeded",
    "ValidationMiddleware",
    "ValidationError",
    "TraceMiddleware",
    "StreamHub",
    "AsyncStreamHub",
    "Attachment",
    "HubStats",
    "HubClosedError",
    "BackpressureError",
    "Event",
    "ComplexEvent",
    "EventStream",
    "make_event",
    "Atom",
    "Sequence",
    "KleenePlus",
    "SetPattern",
    "Negation",
    "Query",
    "make_query",
    "parse_query",
    "SelectionPolicy",
    "ConsumptionPolicy",
    "WindowSpec",
    "SequentialEngine",
    "SpectreEngine",
    "SpectreConfig",
    "SpectreResult",
    "MarkovPredictor",
    "ThreadedSpectreEngine",
    "ElasticityPolicy",
    "Forest",
    "OpLog",
    "InstancePool",
    "Scheduler",
    "TopKProbabilityScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "make_scheduler",
    "TRexEngine",
    "make_q1",
    "make_q2",
    "make_q3",
    "make_qe",
    "Operator",
    "OperatorGraph",
    "__version__",
]
