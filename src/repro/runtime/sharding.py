"""Process-parallel sharding of the speculative runtime.

Every engine in this repo is GIL-bound: the threaded runtime demonstrates
*concurrency correctness*, not speedup.  This module supplies the real
multicore path.  It reuses the :class:`~repro.runtime.forest.Forest`
independence rule as a *partitioning* rule: the forest admits a new
independent tree whenever a window overlaps no unresolved predecessor,
i.e. whenever a window's start position is at or beyond the maximum end
of every earlier window.  No consumption dependency can cross such a
boundary — the event ranges on either side are disjoint, so the
consumption ledger of one side can never suppress an event of the other.
Cutting a finite stream at these boundaries therefore yields
*dependency-closed shards* that can be processed by fully independent
SPECTRE engines in separate OS processes, with a deterministic merge:

* :func:`plan_shards` computes the :class:`ShardPlan` from the window
  decomposition (one throwaway splitter pass);
* :class:`ShardedSpectreEngine` runs one full
  :class:`~repro.spectre.engine.SpectreEngine` per shard — forked
  ``multiprocessing`` workers pull shards from a queue — and merges the
  per-shard complex events and :class:`~repro.spectre.engine.RunStats`
  back into one :class:`~repro.spectre.engine.SpectreResult`, remapping
  shard-local window ids onto the global decomposition so the merged
  output is ordered by ``(window_id, seq)`` exactly like the sequential
  engine's.

Re-splitting a shard slice reproduces the global decomposition
restricted to that shard: shard cuts fall on window start positions, so
``EverySlide`` starts stay phase-aligned (every cut is a multiple of the
slide), ``OnPredicate`` starts are position-independent, and both scope
kinds (count, time) are shift-invariant.  Each worker asserts this
invariant by comparing its local window count against the plan.

Workers are forked, not spawned: queries carry arbitrary predicate
callables (lambdas) that cannot be pickled, but a forked child inherits
them through copy-on-write memory.  Only the per-shard outcomes travel
back through a queue, and those are plain picklable dataclasses.  On
platforms without ``fork`` the engine transparently degrades to running
the shards in-process (still sharded, just not parallel).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.events.event import Event
from repro.streaming.session import Session, WindowedSession, run_batch
from repro.utils.validation import require
from repro.windows.splitter import Splitter

if TYPE_CHECKING:  # deferred: repro.spectre may be mid-initialisation
    from repro.events.complex_event import ComplexEvent
    from repro.patterns.query import Query
    from repro.spectre.config import SpectreConfig
    from repro.spectre.engine import RunStats, SpectreResult
    from repro.windows.specs import WindowSpec
    from repro.windows.window import Window


@dataclass(frozen=True)
class Shard:
    """One dependency-closed slice of the stream.

    ``start_pos``/``end_pos`` bound the shard's events in global stream
    positions; ``window_id_offset`` is the global id of the shard's first
    window (shard-local ids are dense from 0, so ``global = offset +
    local``); ``window_count`` is the expected number of windows a
    re-split of the slice must produce.
    """

    index: int
    start_pos: int
    end_pos: int
    window_id_offset: int
    window_count: int

    @property
    def event_count(self) -> int:
        return self.end_pos - self.start_pos


@dataclass(frozen=True)
class ShardPlan:
    """The full partitioning of one finite stream."""

    shards: tuple[Shard, ...]
    total_events: int
    total_windows: int

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)


def plan_shards(window_spec: "WindowSpec",
                events: Sequence[Event]) -> ShardPlan:
    """Cut ``events`` into dependency-closed shards.

    A shard boundary is any window whose start position is at or beyond
    the maximum end of all prior windows (the Forest independence rule,
    applied statically to the whole decomposition).  Windowless streams
    yield a single all-covering shard so the degenerate cases (empty
    stream, no matches) need no special casing downstream.
    """
    splitter = Splitter(window_spec)
    windows = splitter.split_all(events)
    total = len(events)
    if not windows:
        return ShardPlan((Shard(0, 0, total, 0, 0),), total, 0)

    # window indices that start a new shard (window ids are dense and
    # assigned in position order, so index == global window id)
    starts = [0]
    max_end = windows[0].end_pos
    for index, window in enumerate(windows[1:], start=1):
        assert window.end_pos is not None and max_end is not None
        if window.start_pos >= max_end:
            starts.append(index)
        max_end = max(max_end, window.end_pos)

    shards = []
    for shard_index, first_window in enumerate(starts):
        last = shard_index + 1 == len(starts)
        next_first = None if last else starts[shard_index + 1]
        shards.append(Shard(
            index=shard_index,
            start_pos=0 if shard_index == 0
            else windows[first_window].start_pos,
            end_pos=total if last else windows[next_first].start_pos,
            window_id_offset=first_window,
            window_count=(len(windows) if last else next_first)
            - first_window,
        ))
    return ShardPlan(tuple(shards), total, len(windows))


@dataclass
class ShardOutcome:
    """What one shard's engine produced (picklable, queue-friendly)."""

    index: int
    complex_events: list  # window ids already remapped to global
    stats: "RunStats"
    virtual_time: float
    consumed_seqs: frozenset[int]


def merge_run_stats(parts: Iterable["RunStats"]) -> "RunStats":
    """Combine per-shard statistics into one :class:`RunStats`.

    Counters add up; ``max_tree_size`` is a peak so it takes the max;
    ``window_latencies`` concatenate in shard order (= window order).
    """
    from repro.spectre.engine import RunStats
    merged = RunStats()
    for part in parts:
        for field in fields(RunStats):
            if field.name == "max_tree_size":
                merged.max_tree_size = max(merged.max_tree_size,
                                           part.max_tree_size)
            elif field.name == "window_latencies":
                merged.window_latencies.extend(part.window_latencies)
            else:
                setattr(merged, field.name,
                        getattr(merged, field.name)
                        + getattr(part, field.name))
    return merged


def merge_outcomes(outcomes: Sequence[ShardOutcome], input_events: int,
                   config: "SpectreConfig") -> "SpectreResult":
    """One :class:`SpectreResult` from per-shard outcomes in shard
    order (``virtual_time`` is the longest shard's virtual clock — the
    parallel makespan)."""
    from repro.spectre.engine import SpectreResult
    return SpectreResult(
        complex_events=[ce for outcome in outcomes
                        for ce in outcome.complex_events],
        input_events=input_events,
        virtual_time=max((outcome.virtual_time
                          for outcome in outcomes), default=0.0),
        stats=merge_run_stats(outcome.stats for outcome in outcomes),
        config=config,
    )


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def execute_shard(query: "Query", config: "SpectreConfig", shard: Shard,
                  events: Sequence[Event]) -> ShardOutcome:
    """Run one dependency-closed slice through a fresh SPECTRE engine.

    Shared by the batch workers and the streaming session so the
    re-split guard, window-id remap and outcome assembly cannot drift
    between the two paths.
    """
    from repro.spectre.engine import SpectreEngine
    engine = SpectreEngine(query, config)
    result = engine.run(list(events))
    if result.stats.windows_total != shard.window_count:
        raise RuntimeError(
            f"shard {shard.index} re-split into "
            f"{result.stats.windows_total} windows, plan expected "
            f"{shard.window_count} — window decomposition is not "
            f"shift-invariant for this spec")
    return ShardOutcome(
        index=shard.index,
        complex_events=[replace(ce, window_id=shard.window_id_offset
                                + ce.window_id)
                        for ce in result.complex_events],
        stats=result.stats,
        virtual_time=result.virtual_time,
        consumed_seqs=engine._ledger.snapshot(),
    )


class ShardedSpectreEngine:
    """SPECTRE sharded across worker processes.

    Parameters
    ----------
    query:
        The pattern-detection task.
    config:
        Configuration of each per-shard engine; ``config.workers`` is
        the default process count.
    workers:
        Process-count override (wins over ``config.workers``).  With one
        worker — or a single shard, or no ``fork`` support — the shards
        run in-process, which is also the deterministic reference for
        the parallel path.

    The correctness contract is inherited shard-wise: every per-shard
    engine emits exactly the sequential output of its slice, shards are
    dependency-closed, and the merge concatenates them in stream order —
    so the merged output equals the sequential engine's on the whole
    stream.
    """

    def __init__(self, query: "Query",
                 config: "SpectreConfig | None" = None,
                 workers: Optional[int] = None) -> None:
        from repro.spectre.config import SpectreConfig
        self.query = query
        self.config = config or SpectreConfig()
        self.workers = int(workers) if workers is not None \
            else self.config.workers
        require(self.workers >= 1, "workers must be >= 1")
        self.plan: Optional[ShardPlan] = None
        self.stats: Optional["RunStats"] = None
        self.consumed_seqs: frozenset[int] = frozenset()
        self.wall_seconds = 0.0
        self.workers_used = 0
        self._slices: list[list[Event]] = []

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def open(self, *, eager: bool = True, gc: bool | None = None
             ) -> "ShardedSession | BufferedShardedSession":
        """Open a push-based streaming session (Engine protocol).

        Eager sessions detect shard boundaries as windows open, run
        each completed shard in-process the moment it is sealed, and
        drop its events — bounded memory on unbounded streams.  Lazy
        sessions buffer the stream and delegate ``flush`` to the
        (possibly forked) batch path.
        """
        if eager:
            return ShardedSession(self, gc=gc)
        return BufferedShardedSession(self)

    def run(self, events: Iterable[Event],
            **open_options) -> "SpectreResult":
        """Process a finite stream to completion; return the merged
        result (``virtual_time`` is the longest shard's virtual clock —
        the parallel makespan)."""
        return run_batch(self, events, **open_options)

    def _run_batch(self, events: Iterable[Event]) -> "SpectreResult":
        """The historical batch path (plan → fork workers → merge)."""
        events = list(events)
        started = time.perf_counter()
        self.plan = plan_shards(self.query.window, events)
        shards = self.plan.shards
        self._slices = [events[shard.start_pos:shard.end_pos]
                        for shard in shards]
        self.workers_used = min(self.workers, len(shards))
        try:
            if self.workers_used <= 1 or not _fork_available():
                self.workers_used = 1
                outcomes = [self._run_shard(shard) for shard in shards]
            else:
                outcomes = self._run_forked(shards, self.workers_used)
        finally:
            self._slices = []
        outcomes.sort(key=lambda outcome: outcome.index)
        result = merge_outcomes(outcomes, len(events), self.config)
        # shards cover disjoint window-id ranges in index order, so this
        # stable sort is a deterministic no-op safety net: global window
        # order, per-window detection order preserved
        result.complex_events.sort(key=lambda ce: ce.window_id)
        self.stats = result.stats
        self.consumed_seqs = frozenset().union(
            *(outcome.consumed_seqs for outcome in outcomes))
        self.wall_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # per-shard execution (runs in the parent or in a forked worker)
    # ------------------------------------------------------------------

    def _run_shard(self, shard: Shard) -> ShardOutcome:
        return execute_shard(self.query, self.config, shard,
                             self._slices[shard.index])

    # ------------------------------------------------------------------
    # forked execution
    # ------------------------------------------------------------------

    def _worker_main(self, tasks, results) -> None:
        while True:
            index = tasks.get()
            if index is None:
                return
            try:
                assert self.plan is not None
                outcome = self._run_shard(self.plan.shards[index])
            except BaseException:
                results.put(("error", (index, traceback.format_exc())))
            else:
                results.put(("ok", outcome))

    def _run_forked(self, shards: Sequence[Shard],
                    n_workers: int) -> list[ShardOutcome]:
        context = multiprocessing.get_context("fork")
        tasks = context.Queue()
        results = context.Queue()
        for shard in shards:
            tasks.put(shard.index)
        for _ in range(n_workers):
            tasks.put(None)  # one stop sentinel per worker
        processes = [context.Process(target=self._worker_main,
                                     args=(tasks, results), daemon=True)
                     for _ in range(n_workers)]
        for process in processes:
            process.start()
        outcomes: list[ShardOutcome] = []
        try:
            pending = len(shards)
            while pending:
                try:
                    kind, payload = results.get(timeout=1.0)
                except queue_module.Empty:
                    if not any(process.is_alive()
                               for process in processes):
                        raise RuntimeError(
                            "sharded workers exited before delivering "
                            f"all results ({pending} shards missing)"
                        ) from None
                    continue
                if kind == "error":
                    index, trace = payload
                    raise RuntimeError(
                        f"shard {index} failed in a worker:\n{trace}")
                outcomes.append(payload)
                pending -= 1
        except BaseException:
            for process in processes:
                process.terminate()
            raise
        finally:
            for process in processes:
                process.join(timeout=30.0)
        return outcomes


class ShardedSession(WindowedSession):
    """Eager push-based driving of the sharded runtime.

    Applies the Forest independence rule *online*: a shard boundary is
    detected the moment a window opens at or beyond the maximum end of
    every earlier window (with no earlier end still unknown) — the same
    cuts :func:`plan_shards` finds statically.  The sealed shard is
    immediately processed by a full in-process
    :class:`~repro.spectre.engine.SpectreEngine`, its complex events are
    returned from that ``push``, and its events are dropped from the
    buffer, so unbounded island-structured streams run in bounded
    memory.  The scaffold's cursor stands on the last window of the last
    sealed shard: a shard's windows stay live until the shard ran.
    """

    def __init__(self, engine: ShardedSpectreEngine, *,
                 gc: bool | None = None) -> None:
        super().__init__(engine.query, gc=gc)
        self.engine = engine
        self.shards: list[Shard] = []
        self.outcomes: list[ShardOutcome] = []
        self._max_end = 0      # max known end over all seen windows
        self._unknown_ids: set[int] = set()  # open windows, end unknown
        self._sealed: list[tuple[int, int]] = []  # (next_first, boundary)

    def _queue_windows(self, windows: list[Window]) -> None:
        """Closed windows are not queued — their shard runs as a whole —
        but a time-scoped one only now reveals its end."""
        for window in windows:
            if window.window_id in self._unknown_ids:  # opened earlier
                self._unknown_ids.discard(window.window_id)
                self._max_end = max(self._max_end, window.end_pos)

    def _ingest_many(self, events: Sequence[Event]) -> None:
        # every end the batch resolved is noted (by the scaffold's
        # hand-off) before its opens are tested, matching the static
        # plan's full knowledge.  Knowing an end earlier than the
        # per-event order would changes no cut: it only forbids
        # boundaries below that end, which the window, still open at
        # those positions, forbade anyway.
        for window in super()._ingest_many(events):
            if (window.window_id > 0 and not self._unknown_ids
                    and window.start_pos >= self._max_end):
                self._sealed.append((window.window_id, window.start_pos))
            if window.end_pos is not None:
                self._max_end = max(self._max_end, window.end_pos)
            else:
                self._unknown_ids.add(window.window_id)

    def _finish(self) -> None:
        super()._finish()
        # the remainder — windows and trailing events — is the last shard
        self._sealed.append((self.splitter.stats.windows_opened,
                             len(self.splitter.stream)))

    def _run_sealed(self, next_first: int,
                    boundary: int) -> list["ComplexEvent"]:
        stream = self.splitter.stream
        first = self._processed_through + 1
        shard = Shard(
            index=len(self.shards),
            start_pos=self.shards[-1].end_pos if self.shards else 0,
            end_pos=boundary,
            window_id_offset=first,
            window_count=next_first - first,
        )
        # events ahead of the stream's first window belong to shard 0
        # by position but to no window: garbage collection may have
        # dropped them already
        outcome = execute_shard(
            self.engine.query, self.engine.config, shard,
            stream.slice(max(shard.start_pos, stream.offset), boundary))
        self.shards.append(shard)
        self.outcomes.append(outcome)
        self._processed_through = next_first - 1
        return outcome.complex_events

    def _drain(self) -> list["ComplexEvent"]:
        emitted: list["ComplexEvent"] = []
        for next_first, boundary in self._sealed:
            emitted.extend(self._run_sealed(next_first, boundary))
        self._sealed = []
        return emitted

    def result(self) -> "SpectreResult":
        return merge_outcomes(self.outcomes, self.events_pushed,
                              self.engine.config)

    def consumed_seqs(self) -> frozenset[int]:
        return frozenset().union(
            *(outcome.consumed_seqs for outcome in self.outcomes))


class BufferedShardedSession(Session):
    """Lazy driving of the sharded runtime: buffer the stream, hand it
    to the (possibly forked) batch path at ``flush`` — exact historical
    behavior.  There is no splitter here; the batch path plans its
    shards statically."""

    def __init__(self, engine: ShardedSpectreEngine) -> None:
        super().__init__(eager=False)
        self.engine = engine
        self._buffer: list[Event] = []
        self._batch_result: "SpectreResult | None" = None

    def _ingest_many(self, events: Sequence[Event]) -> None:
        self._buffer.extend(events)

    def _finish(self) -> None:
        pass

    def _drain(self) -> list["ComplexEvent"]:
        # only reached from flush(): the batch path does everything
        self._batch_result = self.engine._run_batch(self._buffer)
        self._buffer = []
        return list(self._batch_result.complex_events)

    def result(self) -> "SpectreResult":
        if self._batch_result is not None:
            return self._batch_result
        return merge_outcomes((), self.events_pushed, self.engine.config)

    def consumed_seqs(self) -> frozenset[int]:
        return self.engine.consumed_seqs
