"""Composable interception for the ingestion/emission path.

Every layer of the system that moves events in or matches out —
:class:`~repro.streaming.session.Session`,
:class:`~repro.streaming.builder.PipelineSession`,
:class:`~repro.hub.core.StreamHub` and its asyncio facade — routes
through one *middleware chain*.  A :class:`Middleware` subclass
overrides the hooks it cares about; everything it does not override
costs nothing (the chain for an un-overridden hook is simply not
built, so the no-op case stays allocation-free on the hot path).

The design follows the FastMCP/wags fine-grained interception model:
``on_<operation>(context, call_next)`` hooks plus a context object,
composed *call-next style* — each hook receives the rest of the chain
as a callable and decides whether to

* **observe**: do something, then ``return call_next(context)``;
* **transform**: rewrite ``context.events`` / ``context.match`` before
  calling ``call_next``;
* **short-circuit**: return *without* calling ``call_next`` (the
  intercepted operation never reaches the core — a dropped event, a
  shed push, a suppressed match), or raise to refuse it loudly.

Mechanism lives in the core, policy stacks outside it (Dearle et al.,
"Towards Adaptable and Adaptive Policy-Free Middleware"): the engines
know nothing about auth, quotas, validation or metrics — those are
middleware, configured declaratively at any layer::

    repro.pipeline(query).engine("spectre", k=4) \\
         .use(ValidationMiddleware(schema)) \\
         .use(MetricsMiddleware()) \\
         .sink(deliver).open()

    hub = StreamHub(middleware=[RateLimitMiddleware(rate=10_000)])
    hub.attach(query, middleware=[TraceMiddleware()])

Hook semantics
--------------
===============  ======================================================
``on_push_many`` A batch entering a session (per-attachment delivery
                 on the hub path) or a hub (shared ingestion, before
                 the reorder stage) — the one ingest hook: ``push(e)``
                 arrives as the 1-element batch.  ``context.events``
                 is the list; trim or replace it to shed, validate or
                 rewrite (a per-event policy is a loop over it).
                 ``call_next`` returns the matches the batch validated
                 (session) or the number delivered (hub).
                 Short-circuit drops the whole batch.
``on_flush``     End-of-stream.  ``call_next`` returns the trailing
                 matches (session) / delivered count (hub).
``on_attach``    A query subscribing to a hub; ``context.query``,
                 ``context.name``, ``context.engine`` are set and
                 ``call_next`` performs the attach, returning the
                 :class:`~repro.hub.core.Attachment`.  Raise to refuse.
``on_detach``    An attachment leaving; ``call_next`` returns the
                 matches its final flush surfaced.
``on_match``     One validated match about to be delivered (sinks and
                 queues).  ``call_next`` returns the match; return
                 ``None`` to suppress it.
``on_error``     A sink raised during delivery.  ``context.error``,
                 ``context.sink``, ``context.match`` are set; the
                 terminal records the failure for the aggregated
                 :class:`~repro.middleware.sinks.SinkError`.  Not
                 calling ``call_next`` swallows the error.
===============  ======================================================

In the asyncio facade (:class:`~repro.hub.aio.AsyncStreamHub`) hooks
may be ``async def`` — each link of the chain awaits whatever the next
one returns.  A *sync* hook still composes (its ``call_next`` hands
back an awaitable which the chain awaits on its behalf), but then the
hook cannot inspect the downstream result; write hooks that act before
``call_next`` — or make them ``async`` — when running under the
facade.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Middleware",
    "MiddlewareContext",
    "MiddlewareStack",
    "restrict",
]


class MiddlewareContext:
    """State of one intercepted operation, shared along the chain.

    Only the fields relevant to the current hook are populated (see the
    hook table in the module docstring); the rest are ``None``.
    Middleware may rewrite the payload fields (``events``, ``match``)
    before calling ``call_next`` — the terminal operation reads them
    from the context, so the rewrite is what the core sees.  Every
    intercepted operation gets a context of its own.
    """

    __slots__ = ("hook", "events", "match", "error", "sink", "session",
                 "hub", "attachment", "query", "name", "engine", "drain")

    def __init__(self, hook: str = "", *, events=None, match=None,
                 error=None, sink=None, session=None, hub=None,
                 attachment=None, query=None, name=None, engine=None,
                 drain=None) -> None:
        self.hook = hook
        self.events = events
        self.match = match
        self.error = error
        self.sink = sink
        self.session = session
        self.hub = hub
        self.attachment = attachment
        self.query = query
        self.name = name
        self.engine = engine
        self.drain = drain

    @property
    def watermark(self) -> Optional[float]:
        """The intercepted layer's current watermark (session's if the
        context is session-scoped, else the hub's), ``None`` early."""
        if self.session is not None:
            return self.session.watermark
        if self.hub is not None:
            return self.hub.watermark
        return None

    def stats(self):
        """Best-effort stats snapshot of the intercepted layer: the
        attachment's :class:`~repro.hub.core.AttachmentStats`, else the
        hub's :class:`~repro.hub.core.HubStats`, else ``None``."""
        if self.attachment is not None:
            return self.attachment.stats()
        if self.hub is not None:
            return self.hub.stats()
        return None

    def __repr__(self) -> str:
        scope = self.attachment.name if self.attachment is not None \
            else ("hub" if self.hub is not None else "session")
        return f"MiddlewareContext({self.hook}, scope={scope!r})"


class Middleware:
    """Base class: override only the hooks you need.

    Un-overridden hooks are *absent* from the composed chains (detected
    by identity against this base class), so a middleware that only
    implements ``on_match`` adds zero cost to every push.
    """

    def on_push_many(self, context: MiddlewareContext, call_next):
        return call_next(context)

    def on_flush(self, context: MiddlewareContext, call_next):
        return call_next(context)

    def on_attach(self, context: MiddlewareContext, call_next):
        return call_next(context)

    def on_detach(self, context: MiddlewareContext, call_next):
        return call_next(context)

    def on_match(self, context: MiddlewareContext, call_next):
        return call_next(context)

    def on_error(self, context: MiddlewareContext, call_next):
        return call_next(context)


HOOKS = ("on_push_many", "on_flush", "on_attach", "on_detach", "on_match",
         "on_error")


def _checked(middleware):
    """Refuse a class written against the removed single-event hook:
    no chain would ever call it, so its policy would silently stop
    applying."""
    if hasattr(type(middleware), "on_push"):
        raise TypeError(
            f"{type(middleware).__name__} defines on_push, which is not a "
            f"hook: implement on_push_many; push(e) arrives as a "
            f"1-element batch")
    return middleware


class _Restricted:
    """A view of a middleware exposing only ``hooks`` (used by the hub
    to run its own middleware's match/error hooks inside each
    attachment's session chain without double-running ingestion
    hooks)."""

    __slots__ = ("middleware", "hooks")

    def __init__(self, middleware: Middleware,
                 hooks: frozenset[str]) -> None:
        self.middleware = middleware
        self.hooks = hooks

    def __repr__(self) -> str:
        return (f"restrict({self.middleware!r}, "
                f"{sorted(self.hooks)})")


def restrict(middleware: Middleware,
             hooks: Iterable[str]) -> _Restricted:
    """Expose only ``hooks`` of ``middleware`` to the stack it joins."""
    return _Restricted(_checked(middleware), frozenset(hooks))


def _implements(middleware, name: str) -> bool:
    """Does this middleware override ``name``?  Restricted views only
    implement hooks they both allow and override."""
    if isinstance(middleware, _Restricted):
        return name in middleware.hooks \
            and _implements(middleware.middleware, name)
    impl = getattr(type(middleware), name, None)
    return impl is not None and impl is not getattr(Middleware, name)


def _hook(middleware, name: str) -> Callable:
    if isinstance(middleware, _Restricted):
        return getattr(middleware.middleware, name)
    return getattr(middleware, name)


def _link(hook: Callable, call_next: Callable) -> Callable:
    def step(context: MiddlewareContext):
        return hook(context, call_next)
    return step


def _alink(hook: Callable, call_next: Callable) -> Callable:
    async def step(context: MiddlewareContext):
        result = hook(context, call_next)
        if inspect.isawaitable(result):
            result = await result
        return result
    return step


class MiddlewareStack:
    """An ordered middleware list compiled into per-hook call chains.

    ``chain(hook, terminal)`` returns a single callable — the hooks
    nested call-next style around ``terminal`` — or ``None`` when no
    middleware overrides the hook, so callers can guard the hot path
    with one ``is None`` check and pay nothing for the no-op chain.
    Chains are built once at install time, not per call.
    """

    def __init__(self, middlewares: Iterable[Any] = ()) -> None:
        self.middlewares = [_checked(mw) for mw in middlewares]

    def __bool__(self) -> bool:
        return bool(self.middlewares)

    def hooked(self, name: str) -> bool:
        return any(_implements(mw, name) for mw in self.middlewares)

    def delivery_views(self) -> tuple:
        """The middlewares that hook match delivery, restricted to
        ``on_match``/``on_error``: what a hub replays inside every
        attachment's chain so delivery is intercepted too, without
        running its ingestion and lifecycle hooks a second time."""
        return tuple(restrict(mw, ("on_match", "on_error"))
                     for mw in self.middlewares
                     if _implements(mw, "on_match")
                     or _implements(mw, "on_error"))

    def _compose(self, name: str, terminal: Callable,
                 link: Callable) -> Optional[Callable]:
        hooks = [_hook(mw, name) for mw in self.middlewares
                 if _implements(mw, name)]
        if not hooks:
            return None
        call = terminal
        for hook in reversed(hooks):
            call = link(hook, call)
        return call

    def chain(self, name: str, terminal: Callable) -> Optional[Callable]:
        """Compose the sync chain for ``name`` around ``terminal``;
        ``None`` when nothing intercepts it."""
        return self._compose(name, terminal, _link)

    def async_chain(self, name: str,
                    terminal: Callable) -> Optional[Callable]:
        """Like :meth:`chain` but every link awaits awaitable results,
        so hooks may freely be ``async def``.  ``terminal`` must be a
        coroutine function."""
        return self._compose(name, terminal, _alink)
