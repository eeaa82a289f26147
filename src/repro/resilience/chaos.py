"""Seeded, deterministic fault injection for every layer boundary.

:class:`ChaosMiddleware` rides the interception pipeline
(:mod:`repro.middleware`) on a hub's ingestion path and perturbs the
event stream — dropping, duplicating and delaying events — using one
seeded :class:`random.Random`, so a chaos run is exactly reproducible
from its seed and the *effective* stream a faulted hub ingested can be
recomputed offline (:func:`effective_stream`) to build parity oracles.

The other injectors cover boundaries middleware hooks cannot reach:

* :func:`flaky_sink` — wraps a sink callable so it raises
  :class:`ChaosError` on seeded picks.  Sink exceptions are isolated
  by :class:`~repro.middleware.sinks.SinkDispatchMiddleware`'s
  delivery loop, so injection exercises the recorded-error path
  (``on_error`` chain + aggregated ``SinkError``) rather than
  crashing ingestion.
* :class:`FlakyWalWriter` — wraps a
  :class:`~repro.durability.wal.WalWriter` so ``append`` raises a
  transient :class:`OSError` on seeded picks, exercising the
  :class:`~repro.durability.manager.DurabilityManager` write-retry
  path.
* :class:`ConnectionChaos` — a server-side per-frame decision source
  the connection driver consults to abruptly reset sockets
  (no ``goodbye``, no close frame), exercising client auto-reconnect
  and durable-cursor resume.

Placement matters on a durable hub: install the chaos middleware
*outside* :class:`~repro.durability.middleware.DurabilityMiddleware`
(``DurabilityManager.start(middleware=[chaos])`` does this) so the WAL
journals the post-fault stream — a dropped event is never logged, a
duplicated event is logged twice — and recovery replays exactly what
the live hub ingested.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.middleware.base import Middleware, MiddlewareContext

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "ChaosMiddleware",
    "ConnectionChaos",
    "FlakyWalWriter",
    "effective_stream",
    "flaky_sink",
]


class ChaosError(RuntimeError):
    """An injected failure (distinguishable from organic bugs)."""


@dataclass(frozen=True)
class ChaosConfig:
    """What to inject, at which rates.  All faults default off, so
    ``ChaosConfig(seed=7, drop_rate=0.05)`` injects exactly one fault
    family.  Rates are per-event probabilities drawn from one seeded
    stream; ``drop + dup + delay`` must not exceed 1."""

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    #: delayed events held back at once; further delays pass through
    max_held: int = 8
    #: probability a wrapped sink raises on one delivery
    sink_error_rate: float = 0.0
    #: probability one WAL append raises a transient ``OSError``
    wal_fail_rate: float = 0.0
    #: reset a connection after every Nth handled frame (server hook)
    reset_after: Optional[int] = None
    #: per-frame reset probability (server hook)
    reset_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "delay_rate",
                     "sink_error_rate", "wal_fail_rate", "reset_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.drop_rate + self.dup_rate + self.delay_rate > 1.0:
            raise ValueError("drop_rate + dup_rate + delay_rate > 1")
        if self.max_held < 0:
            raise ValueError("max_held must be >= 0")


class ChaosMiddleware(Middleware):
    """Deterministic event-level fault injection on a hub's ingestion
    chain (``on_push_many`` / ``on_flush``).

    Faults, decided by one draw per event from ``Random(config.seed)``:

    * **drop** — the event never reaches the core (short-circuit);
    * **duplicate** — the event is ingested twice back to back;
    * **delay** — the event is held and re-injected in front of the
      next push (bounded by ``max_held``; anything still held when
      the hub flushes is released first, through the full remaining
      chain, so durability journals the release before the flush
      record).

    The middleware is hub-scoped (it re-injects via ``context.hub`` on
    flush) and works under both the sync :class:`~repro.hub.core.StreamHub`
    and the asyncio facade.  ``counters``/:meth:`stats` expose per-fault
    totals for ``/metrics``.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        # separate stream: sink faults don't perturb event-fault picks
        self._sink_rng = random.Random(config.seed ^ 0x5EED51EC)
        self._held: list = []
        self._passthrough = False
        self.counters: dict[str, int] = {
            "events_seen": 0,
            "events_dropped": 0,
            "events_duplicated": 0,
            "events_delayed": 0,
            "events_released": 0,
            "sink_errors_injected": 0,
            "sink_errors_observed": 0,
            "wal_failures_injected": 0,
        }

    # -- fault plan ---------------------------------------------------

    def _fate(self) -> Optional[str]:
        cfg = self.config
        cut = cfg.drop_rate + cfg.dup_rate + cfg.delay_rate
        if cut <= 0.0:
            return None
        draw = self._rng.random()
        if draw < cfg.drop_rate:
            return "drop"
        if draw < cfg.drop_rate + cfg.dup_rate:
            return "dup"
        if draw < cut:
            return "delay"
        return None

    # -- ingestion hooks ----------------------------------------------

    def on_push_many(self, context: MiddlewareContext, call_next):
        if self._passthrough:
            return call_next(context)
        counters = self.counters
        events = context.events
        counters["events_seen"] += len(events)
        out = []
        if self._held:  # delayed events re-enter ahead of this chunk
            counters["events_released"] += len(self._held)
            out.extend(self._held)
            self._held.clear()
        for event in events:
            fate = self._fate()
            if fate == "drop":
                counters["events_dropped"] += 1
            elif fate == "dup":
                counters["events_duplicated"] += 1
                out.extend((event, event))
            elif fate == "delay" and len(self._held) < self.config.max_held:
                counters["events_delayed"] += 1
                self._held.append(event)
            else:
                out.append(event)
        if not out:
            return None  # whole chunk dropped/held
        context.events = out
        return call_next(context)

    def on_flush(self, context: MiddlewareContext, call_next):
        if self._passthrough or not self._held:
            return call_next(context)
        held, self._held = self._held, []
        self.counters["events_released"] += len(held)
        hub = context.hub
        if hub is None:  # session-scoped flush: nothing to re-inject into
            return call_next(context)
        # Re-inject through the hub's own push path so every remaining
        # middleware (durability's journal in particular) sees the
        # release *before* the flush record.  _passthrough keeps the
        # reentrant pass fault-free — held events were faulted once.
        self._passthrough = True
        pushed = hub.push_many(held)
        if inspect.isawaitable(pushed):
            return self._flush_release_async(pushed, context, call_next)
        self._passthrough = False
        return call_next(context)

    async def _flush_release_async(self, pushed, context, call_next):
        try:
            await pushed
        finally:
            self._passthrough = False
        result = call_next(context)
        if inspect.isawaitable(result):
            result = await result
        return result

    # -- delivery-side observation ------------------------------------

    def on_error(self, context: MiddlewareContext, call_next):
        if isinstance(context.error, ChaosError):
            self.counters["sink_errors_observed"] += 1
        return call_next(context)  # keep the terminal's error record

    # -- companion injectors ------------------------------------------

    def wrap_sink(self, sink: Callable) -> Callable:
        """Wrap ``sink`` to raise :class:`ChaosError` at
        ``config.sink_error_rate``, counted in :attr:`counters`."""
        def on_injected() -> None:
            self.counters["sink_errors_injected"] += 1
        return flaky_sink(sink, rate=self.config.sink_error_rate,
                          rng=self._sink_rng, on_injected=on_injected)

    def wrap_wal_writer(self, writer) -> "FlakyWalWriter":
        """Wrap a WAL writer to fail ``append`` transiently at
        ``config.wal_fail_rate`` (pass as ``wal_writer_wrapper`` to
        :class:`~repro.durability.manager.DurabilityManager`)."""
        def on_injected() -> None:
            self.counters["wal_failures_injected"] += 1
        return FlakyWalWriter(writer, rate=self.config.wal_fail_rate,
                              seed=self.config.seed ^ 0x3A105,
                              on_injected=on_injected)

    def connection_chaos(self) -> "ConnectionChaos":
        """A per-frame connection-reset decision source configured
        from ``reset_after`` / ``reset_rate``."""
        return ConnectionChaos(seed=self.config.seed ^ 0xC09E,
                               reset_after=self.config.reset_after,
                               reset_rate=self.config.reset_rate)

    # -- observability ------------------------------------------------

    @property
    def held(self) -> int:
        """Events currently delayed (not yet re-injected)."""
        return len(self._held)

    def stats(self) -> dict:
        """Per-fault counters plus the live hold count — flattened
        into ``/metrics`` gauges by ``observe_stats``."""
        out = dict(self.counters)
        out["events_held"] = len(self._held)
        return out


def flaky_sink(sink: Callable, *, rate: float = 0.1,
               seed: Optional[int] = None, rng: Optional[random.Random] = None,
               on_injected: Optional[Callable[[], None]] = None) -> Callable:
    """Wrap ``sink`` so it raises :class:`ChaosError` on seeded picks.

    The wrapper is delivery-isolated by design:
    ``SinkDispatchMiddleware`` catches sink exceptions, records them
    through the ``on_error`` chain, and aggregates them into the
    :class:`~repro.middleware.sinks.SinkError` raised at flush/close —
    injection never crashes ingestion.
    """
    picks = rng if rng is not None else random.Random(seed)

    def wrapper(match):
        if rate and picks.random() < rate:
            if on_injected is not None:
                on_injected()
            raise ChaosError("injected sink failure")
        return sink(match)

    wrapper.__name__ = getattr(sink, "__name__", "sink") + "__flaky"
    wrapper.__wrapped__ = sink
    return wrapper


class FlakyWalWriter:
    """A :class:`~repro.durability.wal.WalWriter` proxy whose
    ``append`` raises a transient ``OSError`` on seeded picks.

    ``max_failures`` bounds the total injected (``rate=1.0,
    max_failures=2`` fails exactly the next two appends, then behaves);
    everything else (``flush_os``/``sync``/``close``/``path``/byte
    counters) delegates to the wrapped writer, so the manager's retry
    path is the only code that notices.
    """

    def __init__(self, inner, *, rate: float = 0.0, seed: int = 0,
                 max_failures: Optional[int] = None,
                 on_injected: Optional[Callable[[], None]] = None) -> None:
        self._inner = inner
        self._rng = random.Random(seed)
        self.rate = rate
        self.max_failures = max_failures
        self.failures_injected = 0
        self._on_injected = on_injected

    def append(self, record) -> int:
        if (self.rate
                and (self.max_failures is None
                     or self.failures_injected < self.max_failures)
                and self._rng.random() < self.rate):
            self.failures_injected += 1
            if self._on_injected is not None:
                self._on_injected()
            raise OSError("chaos: injected WAL write failure")
        return self._inner.append(record)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._inner.close()


class ConnectionChaos:
    """Server-side per-frame reset decisions: the connection driver
    asks :meth:`should_reset` after handling each inbound frame and
    abruptly closes the transport (no ``goodbye``) on ``True`` —
    indistinguishable, to the client, from a network partition."""

    def __init__(self, *, seed: int = 0, reset_after: Optional[int] = None,
                 reset_rate: float = 0.0) -> None:
        self._rng = random.Random(seed)
        self.reset_after = reset_after
        self.reset_rate = reset_rate
        self.frames_seen = 0
        self.connections_reset = 0

    def should_reset(self) -> bool:
        self.frames_seen += 1
        if self.reset_after is not None \
                and self.frames_seen % self.reset_after == 0:
            self.connections_reset += 1
            return True
        if self.reset_rate and self._rng.random() < self.reset_rate:
            self.connections_reset += 1
            return True
        return False

    def stats(self) -> dict:
        return {"frames_seen": self.frames_seen,
                "connections_reset": self.connections_reset}


def effective_stream(config: ChaosConfig, events, *,
                     chunk: Optional[int] = None) -> list:
    """The exact post-fault stream a hub behind
    ``ChaosMiddleware(config)`` ingests when fed ``events`` by
    ``push_many`` in chunks of ``chunk`` — ``None`` is per-event
    ``push``, the 1-element chunking — followed by one ``flush``.  Chaos
    parity oracles feed this stream to a bare hub and assert identical
    matches.
    """
    middleware = ChaosMiddleware(config)
    out: list = []
    items = list(events)
    step = chunk or 1
    for start in range(0, len(items), step):
        ctx = MiddlewareContext("on_push_many",
                                events=items[start:start + step])
        middleware.on_push_many(ctx, lambda ctx: out.extend(ctx.events))

    class _CaptureHub:
        @staticmethod
        def push_many(held):
            out.extend(held)
            return 0

    flush_ctx = MiddlewareContext("on_flush", hub=_CaptureHub())
    middleware.on_flush(flush_ctx, lambda ctx: None)
    return out
