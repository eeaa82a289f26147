"""Real-thread SPECTRE runtime.

This runtime executes the same splitter/instance algorithms as the
simulated engine, but with an actual splitter thread and k operator
instance threads — the deployment shape of Sec. 2.2 ("1 thread is pinned
to the splitter and k threads are pinned to the operator instances").

Because of CPython's GIL this demonstrates *concurrency correctness*, not
speedup (README.md, "Scale substitutions"): workers interleave at bytecode
granularity, group mutations propagate with real delays, consistency
checks and rollbacks fire under genuine races, and the output must still
be exactly the sequential engine's.

Synchronisation model (mirrors the shared-memory original):

* The dependency tree/forest is touched *only* by the splitter thread —
  instance-side structure changes travel through the buffered op queue
  (``deque.append`` is atomic), exactly like Sec. 3.3.
* A window version's processing state is owned by the instance it is
  scheduled on; the splitter publishes ownership via ``scheduled_on``.
* Group event sets are copy-on-write, so readers never observe a set
  mid-mutation; staleness is handled by the consistency-check protocol.
* The learned predictor is wrapped with a lock (it aggregates statistics
  from all workers).
"""

from __future__ import annotations

import threading
import time

from repro.patterns.query import Query
from repro.runtime.scheduler import Scheduler
from repro.spectre.config import SpectreConfig
from repro.spectre.engine import SpectreEngine, SpectreSession
from repro.spectre.prediction import CompletionPredictor
from repro.utils.validation import require


class LockedPredictor:
    """Thread-safe wrapper around a completion predictor."""

    def __init__(self, inner: CompletionPredictor) -> None:
        self._inner = inner
        self._lock = threading.Lock()

    def probability(self, delta: int, events_left: float) -> float:
        with self._lock:
            return self._inner.probability(delta, events_left)

    def observe(self, delta_old: int, delta_new: int) -> None:
        with self._lock:
            self._inner.observe(delta_old, delta_new)


# idle backoff: sleep only after a cycle/poll that made no progress,
# doubling from the minimum up to the original fixed 0.2 ms yield
_BACKOFF_MIN = 0.0000125
_BACKOFF_MAX = 0.0002
# between session pushes there is no work at all: let idle workers back
# off much further so a quiet live feed doesn't busy-poll k cores
# (worst case this adds one parked-worker wakeup to the next push)
_PARKED_BACKOFF_MAX = 0.005


class ThreadedSpectreEngine(SpectreEngine):
    """SPECTRE with a real splitter thread and k worker threads."""

    def __init__(self, query: Query, config: SpectreConfig | None = None,
                 predictor: CompletionPredictor | None = None,
                 scheduler: Scheduler | None = None) -> None:
        super().__init__(query, config, predictor, scheduler)
        require(self.config.elasticity is None
                and self.config.emission_threshold is None,
                "the threaded engine runs neither elasticity nor early "
                "emission; use the spectre engine")
        self.predictor = LockedPredictor(self.predictor)
        self._counter_lock = threading.Lock()
        self._stop = threading.Event()
        self._idle_backoff_cap = _BACKOFF_MAX
        self.wall_seconds = 0.0

    def _worker(self, index: int) -> None:
        instance = self.pool[index]
        delay = _BACKOFF_MIN
        while not self._stop.is_set():
            version = instance.version
            if version is None or not version.alive or version.finished:
                time.sleep(delay)  # nothing scheduled: yield, backing off
                delay = min(delay * 2.0, self._idle_backoff_cap)
                continue
            with version.lock:  # one step per acquisition
                self._run_version(version, 0.0)
            delay = _BACKOFF_MIN

    def _splitter_progress(self) -> tuple:
        """Snapshot of the splitter-side counters a cycle can move.

        Instance-side counters (steps processed, ...) are deliberately
        excluded: while the workers make progress the splitter must keep
        yielding the GIL to them rather than spin on no-op cycles.
        """
        return (self.stats.windows_emitted, self.stats.versions_created,
                self.stats.groups_completed, self.stats.groups_abandoned,
                self.stats.validation_rollbacks, len(self._pending),
                self.forest.version_count)

    def open(self, *, eager: bool = True, gc: bool | None = None,
             timeout_seconds: float = 300.0) -> "ThreadedSession":
        """Open a push-based session with live worker threads."""
        return ThreadedSession(self, eager=eager, gc=gc,
                               timeout_seconds=timeout_seconds)


class ThreadedSession(SpectreSession):
    """Push-based driving of the real-thread runtime.

    The k worker threads start on the first drain and stay alive —
    sleeping with exponential backoff — between pushes, so an eager
    session is a long-lived deployment: each ``push`` hands the closed
    windows to the workers and the calling thread plays the splitter
    until they are emitted.  ``close()`` stops the workers.
    """

    def __init__(self, engine: ThreadedSpectreEngine, *,
                 eager: bool = True, gc: bool | None = None,
                 timeout_seconds: float = 300.0) -> None:
        super().__init__(engine, eager=eager, gc=gc)
        self.timeout_seconds = timeout_seconds
        self._workers: list[threading.Thread] = []

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        self._workers = [
            threading.Thread(target=self.engine._worker, args=(i,),
                             daemon=True, name=f"op-instance-{i}")
            for i in range(self.engine.config.k)]
        for worker in self._workers:
            worker.start()

    def _run_cycles(self) -> None:
        engine = self.engine
        self._ensure_workers()
        engine._idle_backoff_cap = _BACKOFF_MAX  # tight while draining
        started = time.perf_counter()
        delay = _BACKOFF_MIN
        try:
            while engine._pending or engine.forest:
                before = engine._splitter_progress()
                engine.splitter_cycle()
                engine.stats.cycles += 1
                # always yield at least once so workers can grab the GIL,
                # but back off only while cycles make no progress
                time.sleep(delay)
                if engine._splitter_progress() == before:
                    delay = min(delay * 2.0, _BACKOFF_MAX)
                else:
                    delay = _BACKOFF_MIN
                if time.perf_counter() - started > self.timeout_seconds:
                    raise RuntimeError(
                        f"threaded drain exceeded {self.timeout_seconds}s "
                        f"({engine.stats.windows_emitted}/"
                        f"{engine.stats.windows_total} windows emitted)")
        finally:
            # park the workers until the next push wakes the splitter
            engine._idle_backoff_cap = _PARKED_BACKOFF_MAX
            engine.wall_seconds += time.perf_counter() - started
            engine.virtual_time = engine.wall_seconds

    def _release(self) -> None:
        self.engine._stop.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
