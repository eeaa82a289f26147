"""Durability as a middleware on the PR-7 interception pipeline.

:class:`DurabilityMiddleware` is the single seam between the hub and
the log: installed (innermost) on a hub's middleware stack it

* appends the ``push`` record of each batch *before* delegating — the
  WAL's causal invariant: a logged emit always has its logged cause —
  and logs exactly what the core ingests (outer middleware that sheds
  or rewrites events has already acted),
* logs ``attach``/``detach`` after the operation succeeds (a refused
  attach must not be replayed),
* rides each attachment's ``on_match`` chain (the hub replays
  restricted copies into every session) to assign the durable cursor,
  append the ``emit`` record, and — during recovery — suppress
  matches the pre-crash run already delivered.

The middleware is mechanism only; the records are written by the one
:class:`~repro.durability.journal.Journal` behind it (the
:class:`~repro.durability.manager.DurabilityManager` adds when to
checkpoint and what to suppress; the run recorder adds nothing)
through the ``journal`` protocol::

    journal.log_push(events)          -> None
    journal.log_flush()               -> None
    journal.log_attach(attachment)    -> None
    journal.log_detach(attachment, drain=...) -> None
    journal.handle_match(name, match) -> match | None   (None = suppress)
    journal.log_op_end()              -> None

``log_op_end`` fires after each ingest operation completes (its push
record and every emit it caused are appended by then) — the journal's
cue to hand the batch to the OS in one write, the per-operation
durability boundary.
"""

from __future__ import annotations

from repro.middleware.base import Middleware, MiddlewareContext

__all__ = ["DurabilityMiddleware"]


class DurabilityMiddleware(Middleware):
    """Bridge every hub/session hook onto a durability journal."""

    def __init__(self, journal) -> None:
        self.journal = journal

    # -- ingestion (hub scope) ---------------------------------------------

    def on_push_many(self, context: MiddlewareContext, call_next):
        self.journal.log_push(context.events)
        try:
            return call_next(context)
        finally:
            self.journal.log_op_end()

    def on_flush(self, context: MiddlewareContext, call_next):
        self.journal.log_flush()
        try:
            return call_next(context)
        finally:
            self.journal.log_op_end()

    # -- lifecycle (hub scope) ---------------------------------------------

    def on_attach(self, context: MiddlewareContext, call_next):
        attachment = call_next(context)
        if attachment is not None:
            self.journal.log_attach(attachment)
        return attachment

    def on_detach(self, context: MiddlewareContext, call_next):
        result = call_next(context)
        if context.attachment is not None:
            self.journal.log_detach(
                context.attachment,
                drain=True if context.drain is None else context.drain)
        return result

    # -- delivery (replayed into each session's chain) ---------------------

    def on_match(self, context: MiddlewareContext, call_next):
        attachment = context.attachment
        name = attachment.name if attachment is not None else "?"
        match = self.journal.handle_match(name, context.match)
        if match is None:
            return None  # already delivered pre-crash: suppress
        context.match = match
        return call_next(context)
