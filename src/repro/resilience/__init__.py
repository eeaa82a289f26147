"""``repro.resilience`` — fault injection and recovery primitives.

The layer has two halves:

* **Injection** (:mod:`repro.resilience.chaos`) — seeded, deterministic
  fault injectors for every boundary in the stack: event drop /
  duplicate / delay riding the interception pipeline
  (:class:`ChaosMiddleware`), sink exceptions (:func:`flaky_sink`),
  transient WAL write failures (:class:`FlakyWalWriter`), and abrupt
  connection resets (:class:`ConnectionChaos`).  Every injector counts
  what it did; the chaos suite replays the same seed and asserts the
  core invariants survive.
* **Recovery** (:mod:`repro.resilience.backoff`) — the deterministic
  exponential :class:`Backoff` schedule that drives client
  auto-reconnect (``repro.server.client.ServerClient.connect(...,
  reconnect=Backoff())`` and ``python -m repro client --reconnect``).
"""

from repro.resilience.backoff import Backoff
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosError,
    ChaosMiddleware,
    ConnectionChaos,
    FlakyWalWriter,
    effective_stream,
    flaky_sink,
)

__all__ = [
    "Backoff",
    "ChaosConfig",
    "ChaosError",
    "ChaosMiddleware",
    "ConnectionChaos",
    "FlakyWalWriter",
    "effective_stream",
    "flaky_sink",
]
