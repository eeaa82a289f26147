"""Structured tracing of the interception seam.

:class:`TraceMiddleware` appends one structured record per intercepted
hook invocation to a bounded ring buffer (``collections.deque`` with
``maxlen``), so a live system can always answer "what were the last N
things that crossed this seam?" without unbounded memory.  Records are
plain JSON-safe dicts::

    {"n": 17, "hook": "on_match", "scope": "spikes",
     "query": "spikes", "anchor": 4012, "constituents": 3}

Records are captured *on entry* (before delegating), so the middleware
behaves identically under the asyncio facade.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.middleware.base import Middleware, MiddlewareContext

__all__ = ["TraceMiddleware"]


def _scope(context: MiddlewareContext) -> str:
    if context.attachment is not None:
        return context.attachment.name
    if context.name is not None:
        return context.name
    return "hub" if context.hub is not None else "session"


class TraceMiddleware(Middleware):
    """Ring-buffered per-hook trace records.

    Parameters
    ----------
    capacity:
        Ring size; the oldest records fall off first.
    hooks:
        Optional subset of hook names to trace (default: all).  Note
        the stack only builds chains for hooks a middleware class
        overrides, so restricting here just drops records — use
        :func:`~repro.middleware.base.restrict` to avoid the hook cost
        entirely.
    """

    def __init__(self, capacity: int = 256,
                 hooks: Optional[tuple[str, ...]] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hooks = frozenset(hooks) if hooks is not None else None
        self._records: deque[dict] = deque(maxlen=capacity)
        self._n = 0

    @property
    def records(self) -> list[dict]:
        """The buffered records, oldest first."""
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()

    def _record(self, context: MiddlewareContext, **fields) -> None:
        if self.hooks is not None and context.hook not in self.hooks:
            return
        self._n += 1
        record = {"n": self._n, "hook": context.hook,
                  "scope": _scope(context)}
        record.update(fields)
        self._records.append(record)

    # -- hooks -------------------------------------------------------------

    def on_push_many(self, context: MiddlewareContext, call_next):
        events = context.events
        first = events[0] if events else None
        self._record(context, count=len(events),
                     first_seq=None if first is None else first.seq,
                     last_seq=None if first is None else events[-1].seq)
        return call_next(context)

    def on_flush(self, context: MiddlewareContext, call_next):
        self._record(context)
        return call_next(context)

    def on_attach(self, context: MiddlewareContext, call_next):
        query = context.query
        self._record(context,
                     query=None if query is None else query.name,
                     engine=context.engine)
        return call_next(context)

    def on_detach(self, context: MiddlewareContext, call_next):
        self._record(context)
        return call_next(context)

    def on_match(self, context: MiddlewareContext, call_next):
        match = context.match
        seqs = match.constituent_seqs
        self._record(context, query=match.query_name,
                     anchor=seqs[-1] if seqs else None,
                     constituents=len(seqs))
        return call_next(context)

    def on_error(self, context: MiddlewareContext, call_next):
        self._record(context, error=repr(context.error))
        return call_next(context)
