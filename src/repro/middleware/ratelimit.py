"""Token-bucket rate limiting on the ingestion path.

:class:`RateLimitMiddleware` buckets by attachment (one bucket per
attachment name when installed on a hub's per-attachment delivery
path, one global bucket at hub or pipeline scope) and applies one of
two policies when a bucket runs dry.  A caller-supplied ``key``
function overrides the default bucketing — e.g. the serving runtime
keys buckets by *client id* (``key=lambda ctx: ctx.name``) so one
shared hub enforces per-client quotas through a single middleware
instance.  The policies:

* ``policy="shed"`` (default): the event is dropped before it reaches
  the core — ``on_push_many`` trims the batch to the available tokens
  (a single ``push`` is the 1-element batch) — and the shed is counted.
* ``policy="raise"``: :class:`RateLimitExceeded` propagates to the
  producer, which owns the retry/backoff decision.

The clock is injectable so tests (and replay harnesses) can drive the
bucket deterministically; production uses ``time.monotonic``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.middleware.base import Middleware, MiddlewareContext

__all__ = ["RateLimitExceeded", "TokenBucket", "RateLimitMiddleware"]


class RateLimitExceeded(RuntimeError):
    """A push exceeded the configured rate (``policy="raise"``)."""

    def __init__(self, key: str, rate: float) -> None:
        self.key = key
        self.rate = rate
        super().__init__(
            f"rate limit exceeded for {key!r} ({rate:g} events/s)")


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float,
                 now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def take(self, wanted: float, now: float) -> float:
        """Take up to ``wanted`` tokens; return how many were granted
        (``wanted`` when the bucket holds enough, possibly 0)."""
        if now > self.updated:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.updated) * self.rate)
            self.updated = now
        granted = min(wanted, self.tokens)
        # whole events only: a partial token never admits an event
        granted = float(int(granted))
        self.tokens -= granted
        return granted


class RateLimitMiddleware(Middleware):
    """Cap the event rate entering a session, attachment, or hub.

    Parameters
    ----------
    rate:
        Sustained events/second per bucket.
    burst:
        Bucket capacity (defaults to ``rate``): the largest spike
        admitted after an idle period.
    policy:
        ``"shed"`` drops excess events silently (counted), ``"raise"``
        surfaces :class:`RateLimitExceeded` to the producer.
    clock:
        Monotonic time source, injectable for deterministic tests.
    key:
        Optional bucket-key function ``(context) -> str``.  When given
        it fully replaces the default attachment/hub/session keying,
        so callers can bucket by any context field (client id in
        ``context.name``, query name, ...).  Buckets are still created
        lazily per distinct key with the same ``rate``/``burst``.
    """

    def __init__(self, rate: float, *, burst: Optional[float] = None,
                 policy: str = "shed",
                 clock: Callable[[], float] = time.monotonic,
                 key: Optional[Callable[[MiddlewareContext], str]]
                 = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 events/s")
        if policy not in ("shed", "raise"):
            raise ValueError("policy must be 'shed' or 'raise'")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(
            1.0, float(rate))
        if self.burst < 1.0:
            raise ValueError("burst must admit at least one event")
        self.policy = policy
        self.clock = clock
        self.key = key
        self._buckets: dict[str, TokenBucket] = {}
        self.shed_total = 0
        self.shed_by_key: dict[str, int] = {}

    def _bucket_key(self, context: MiddlewareContext) -> str:
        if self.key is not None:
            return self.key(context)
        if context.attachment is not None:
            return context.attachment.name
        return "hub" if context.hub is not None else "session"

    def _take(self, context: MiddlewareContext, wanted: int) -> int:
        key = self._bucket_key(context)
        now = self.clock()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[key] = bucket
        granted = int(bucket.take(float(wanted), now))
        if granted < wanted:
            if self.policy == "raise":
                raise RateLimitExceeded(key, self.rate)
            shed = wanted - granted
            self.shed_total += shed
            self.shed_by_key[key] = self.shed_by_key.get(key, 0) + shed
        return granted

    def on_push_many(self, context: MiddlewareContext, call_next):
        events = context.events
        granted = self._take(context, len(events))
        if granted == 0:
            return None  # shed: short-circuit before the core sees it
        if granted < len(events):
            # admit the prefix the bucket can pay for, shed the rest
            context.events = events[:granted]
        return call_next(context)
