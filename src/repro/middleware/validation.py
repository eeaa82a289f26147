"""Event-schema validation on the ingestion path.

:class:`ValidationMiddleware` checks every event against a declarative
schema — required attributes plus optional per-attribute types — before
it reaches the reorder stage or any engine.  Three policies:

* ``policy="null"`` (default): invalid attributes are *nulled* — the
  event is rewritten with ``None`` for each missing-required or
  wrongly-typed attribute, which the predicate layer already treats as
  SQL NULL (a comparison against a missing/null operand is false), so
  malformed events degrade gracefully instead of crashing predicates
  or silently matching.
* ``policy="reject"``: the whole event is dropped before the core
  (short-circuit), counted in :attr:`events_rejected`.
* ``policy="raise"``: :class:`ValidationError` propagates to the
  producer.

``bool`` is deliberately not accepted where ``int`` is required-typed
unless listed explicitly, mirroring the usual schema-validation
convention.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Optional

from repro.events.event import Event
from repro.middleware.base import Middleware, MiddlewareContext

__all__ = ["ValidationError", "ValidationMiddleware"]


class ValidationError(ValueError):
    """An event failed schema validation (``policy="raise"``)."""

    def __init__(self, event: Event, problems: list[str]) -> None:
        self.event = event
        self.problems = list(problems)
        super().__init__(
            f"event {event!r} failed validation: {'; '.join(problems)}")


class ValidationMiddleware(Middleware):
    """Enforce an event schema at the interception seam.

    Parameters
    ----------
    required:
        Attribute names every event must carry.
    types:
        ``{attribute: type-or-tuple-of-types}``; attributes present but
        of the wrong type are invalid.  Attributes absent from both
        ``required`` and ``types`` pass untouched.
    etypes:
        Optional allow-list of event types; events of other types are
        invalid as a whole (nulling cannot fix a wrong ``etype``, so
        under ``policy="null"`` they are rejected and counted).
    policy:
        ``"null"`` | ``"reject"`` | ``"raise"``; see module docstring.
    """

    def __init__(self, *, required: Iterable[str] = (),
                 types: Optional[Mapping[str, type | tuple]] = None,
                 etypes: Optional[Iterable[str]] = None,
                 policy: str = "null") -> None:
        if policy not in ("null", "reject", "raise"):
            raise ValueError("policy must be 'null', 'reject' or 'raise'")
        self.required = tuple(required)
        self.types = dict(types or {})
        self.etypes = frozenset(etypes) if etypes is not None else None
        self.policy = policy
        self.events_rejected = 0
        self.events_nulled = 0
        self.attributes_nulled = 0

    # -- validation --------------------------------------------------------

    def _problems(self, event: Event) -> tuple[list[str], list[str]]:
        """Return (fixable attribute problems, fatal problems)."""
        bad_attrs: list[str] = []
        fatal: list[str] = []
        if self.etypes is not None and event.etype not in self.etypes:
            fatal.append(f"etype {event.etype!r} not allowed")
        attrs = event.attributes
        for name in self.required:
            if name not in attrs:
                bad_attrs.append(name)
        for name, expected in self.types.items():
            if name in attrs and name not in bad_attrs:
                value = attrs[name]
                if value is None:
                    continue  # already SQL NULL
                if isinstance(value, bool) and expected is not bool \
                        and not (isinstance(expected, tuple)
                                 and bool in expected):
                    bad_attrs.append(name)
                elif not isinstance(value, expected):
                    bad_attrs.append(name)
        return bad_attrs, fatal

    def _admit(self, event: Event) -> Optional[Event]:
        """The validated (possibly rewritten) event, or ``None`` when
        it must be dropped."""
        bad_attrs, fatal = self._problems(event)
        if not bad_attrs and not fatal:
            return event
        if self.policy == "raise":
            problems = fatal + [f"invalid attribute {name!r}"
                                for name in bad_attrs]
            raise ValidationError(event, problems)
        if fatal or self.policy == "reject":
            self.events_rejected += 1
            return None
        attrs = dict(event.attributes)
        for name in bad_attrs:
            attrs[name] = None  # SQL NULL: predicates treat it as missing
        self.events_nulled += 1
        self.attributes_nulled += len(bad_attrs)
        return replace(event, attributes=attrs)

    # -- hooks -------------------------------------------------------------

    def on_push_many(self, context: MiddlewareContext, call_next):
        admitted = []
        for event in context.events:
            event = self._admit(event)
            if event is not None:
                admitted.append(event)
        if not admitted:
            return None
        context.events = admitted
        return call_next(context)
