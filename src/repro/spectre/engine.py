"""The SPECTRE engine (Sec. 3): a thin composition over the layered
speculative runtime.

The engine wires the :mod:`repro.runtime` subsystems together and drives
them on a deterministic simulated k-core virtual clock, mirroring the
paper's architecture (splitter thread + k operator-instance threads on
dedicated cores, Sec. 2.2):

* :class:`~repro.runtime.forest.Forest` — dependency trees, window
  admission, in-order root emission;
* :class:`~repro.runtime.oplog.OpLog` — the buffered splitter-side
  operation queue (Sec. 3.3) with its apply handlers;
* :class:`~repro.runtime.instances.InstancePool` — the k operator
  instances with Fig. 7 placement and ``set_k`` elasticity;
* :class:`~repro.runtime.scheduler.Scheduler` — a pluggable selection
  strategy (the paper's top-k probability scheduler, FIFO, round-robin),
  chosen via ``SpectreConfig.scheduler`` or constructor injection.

The engine itself keeps only *policy*: the virtual cost model, the
Fig. 8 instance loop (suppression, detector feedback, consistency checks
with rollback), completion-probability pricing, statistics, and the two
optional policies its config may name — completion-probability
elasticity (``SpectreConfig.elasticity``, Sec. 4.2.1) and approximate
early emission (``SpectreConfig.emission_threshold``, Sec. 5), run at
the end of each splitter cycle.

Because instances only see group mutations made by *other* versions with
a one-cycle delay, the consistency-check/rollback machinery is genuinely
exercised, exactly as in the concurrent original.

Correctness contract: the emitted complex events equal the sequential
engine's output (verified by a final validation step before each window's
emission — if any speculation assumption was violated undetected, the
root version is rolled back and deterministically reprocessed).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.consumption.group import ConsumptionGroup
from repro.consumption.ledger import ConsumptionLedger
from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.matching.base import Feedback
from repro.patterns.query import Query
from repro.runtime.forest import Forest
from repro.runtime.instances import InstancePool
from repro.runtime.oplog import OpLog
from repro.runtime.scheduler import Scheduler, make_scheduler
from repro.spectre.approximate import EarlyEmission, survival_probability
from repro.spectre.config import SpectreConfig
from repro.spectre.elasticity import AdaptationRecord, ElasticityPolicy
from repro.spectre.prediction import (
    CompletionPredictor,
    FixedPredictor,
    MarkovPredictor,
)
from repro.spectre.version import WindowVersion
from repro.streaming.session import WindowedSession, run_batch
from repro.utils.ids import IdGenerator
from repro.windows.splitter import Splitter
from repro.windows.window import Window


@dataclass
class RunStats:
    """Instrumentation of one run (feeds Figs. 10(c)/(f) and ablations)."""

    cycles: int = 0
    windows_total: int = 0
    windows_emitted: int = 0
    versions_created: int = 0
    versions_dropped: int = 0
    max_tree_size: int = 0
    groups_created: int = 0
    groups_completed: int = 0
    groups_abandoned: int = 0
    rollbacks: int = 0
    validation_rollbacks: int = 0
    steps_processed: int = 0
    steps_suppressed: int = 0
    wasted_steps: int = 0
    # per-window detection latency in virtual-time units: from the
    # window's admission into the dependency tree to its emission
    window_latencies: list = field(default_factory=list)

    @property
    def completion_probability(self) -> float:
        resolved = self.groups_completed + self.groups_abandoned
        if resolved == 0:
            return 0.0
        return self.groups_completed / resolved

    @property
    def mean_window_latency(self) -> float:
        if not self.window_latencies:
            return 0.0
        return sum(self.window_latencies) / len(self.window_latencies)

    def to_dict(self) -> dict:
        """JSON-safe snapshot: every counter plus the derived ratios;
        the raw latency list is summarized, not dumped."""
        return {
            "cycles": self.cycles,
            "windows_total": self.windows_total,
            "windows_emitted": self.windows_emitted,
            "versions_created": self.versions_created,
            "versions_dropped": self.versions_dropped,
            "max_tree_size": self.max_tree_size,
            "groups_created": self.groups_created,
            "groups_completed": self.groups_completed,
            "groups_abandoned": self.groups_abandoned,
            "rollbacks": self.rollbacks,
            "validation_rollbacks": self.validation_rollbacks,
            "steps_processed": self.steps_processed,
            "steps_suppressed": self.steps_suppressed,
            "wasted_steps": self.wasted_steps,
            "completion_probability": self.completion_probability,
            "mean_window_latency": self.mean_window_latency,
            "window_latency_count": len(self.window_latencies),
        }


@dataclass
class SpectreResult:
    """Outcome of a SPECTRE run."""

    complex_events: list[ComplexEvent]
    input_events: int
    virtual_time: float
    stats: RunStats
    config: SpectreConfig
    # the speculative stream released under config.emission_threshold
    early: list[EarlyEmission] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Input events per virtual-time unit."""
        if self.virtual_time <= 0:
            return 0.0
        return self.input_events / self.virtual_time

    def identities(self) -> list[tuple]:
        return [ce.identity() for ce in self.complex_events]

    def _early_identities(self) -> set[tuple]:
        return {emission.complex_event.identity() for emission in self.early}

    @property
    def precision(self) -> float:
        """Share of early emissions confirmed by the final output."""
        early = self._early_identities()
        if not early:
            return 1.0
        return len(early & set(self.identities())) / len(early)

    @property
    def recall(self) -> float:
        """Share of final complex events that were available early."""
        final = set(self.identities())
        if not final:
            return 1.0
        return len(self._early_identities() & final) / len(final)


class SpectreEngine:
    """Speculative parallel CEP engine for one query.

    Parameters
    ----------
    query:
        The pattern-detection task.
    config:
        Runtime configuration; ``config.scheduler`` names the strategy.
    predictor:
        Completion-probability model override.
    scheduler:
        Strategy-object override (constructor injection); wins over
        ``config.scheduler``.
    """

    def __init__(self, query: Query, config: SpectreConfig | None = None,
                 predictor: CompletionPredictor | None = None,
                 scheduler: Scheduler | None = None) -> None:
        self.query = query
        self.config = config or SpectreConfig()
        self.predictor = predictor or self._default_predictor()
        self.scheduler = scheduler or make_scheduler(self.config.scheduler)
        self.stats = RunStats()
        self.virtual_time = 0.0
        self.output: list[ComplexEvent] = []

        self._ledger = ConsumptionLedger()
        self._version_ids = IdGenerator()
        self._group_ids = IdGenerator()
        # the layered runtime: forest + op-log + instance pool
        self.forest = Forest(self._make_version)
        self.oplog = OpLog()
        self.pool = InstancePool(self.config.k)
        self._pending: deque[Window] = deque()
        self._unfinished = 0
        self._counter_lock = threading.Lock()
        # the session scaffold's splitter and its type prefilter flags
        # (compiled plans), bound when a session opens on this engine
        self.splitter: Optional[Splitter] = None
        self._classifier = None
        self._prob_cache: dict[int, float] = {}
        self._consumes = query.consumes
        self._last_progress_cycle = 0
        self._admitted_at: dict[int, float] = {}
        # the config's policies: elasticity decisions, early emissions
        self.adaptations: list[AdaptationRecord] = []
        self.early: list[EarlyEmission] = []
        self._released: set[tuple] = set()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _default_predictor(self) -> CompletionPredictor:
        if self.config.probability_model == "fixed":
            return FixedPredictor(self.config.fixed_probability)
        return MarkovPredictor(max(1, self.query.delta_max),
                               self.config.markov)

    def _make_version(self, window: Window,
                      assumes_completed: tuple[ConsumptionGroup, ...],
                      assumes_abandoned: tuple[ConsumptionGroup, ...]
                      ) -> WindowVersion:
        version = WindowVersion(
            version_id=self._version_ids.next(),
            window=window,
            query=self.query,
            assumes_completed=assumes_completed,
            assumes_abandoned=assumes_abandoned,
            ledger=self._ledger,
        )
        self.stats.versions_created += 1
        with self._counter_lock:
            self._unfinished += 1
        return version

    # -- compatibility views over the runtime layers --------------------

    @property
    def k(self) -> int:
        """Current parallelization degree (see :meth:`set_k`)."""
        return self.pool.k

    @property
    def _instances(self):
        return self.pool.instances

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def prepare(self, events: Iterable[Event]) -> None:
        """Split the stream and queue its windows without processing.

        After ``prepare``, callers may drive :meth:`splitter_cycle` and
        :meth:`instance_phase` manually (the Fig. 10(c) overhead benchmark
        times isolated splitter cycles this way); :meth:`run` feeds the
        same queue incrementally through a lazy session.
        """
        session = self.open(eager=False)
        session.push_many(events)
        session._finish()

    def queue_windows(self, windows: list[Window]) -> None:
        """Hand the runtime windows the stream proved complete, in id
        order (the session scaffold feeds this)."""
        self._pending.extend(windows)
        self.stats.windows_total += len(windows)

    def drain(self, max_cycles: int = 50_000_000) -> None:
        """Cycle until every queued window is emitted (the batch loop).

        ``max_cycles`` bounds *this* drain, not the engine's lifetime —
        a long-lived eager session drains on every push and must not
        trip the guard once its cumulative cycle count grows large.
        """
        drained_from = self.stats.cycles
        while self._pending or self.forest:
            self.splitter_cycle()
            self.instance_phase()
            if self.stats.cycles - drained_from > max_cycles:
                raise RuntimeError(
                    f"engine exceeded {max_cycles} cycles in one drain; "
                    f"emitted {self.stats.windows_emitted}/"
                    f"{self.stats.windows_total} windows")
            if self.stats.cycles - self._last_progress_cycle > 2_000_000:
                raise RuntimeError(
                    "engine stalled: no window emitted for 2M cycles "
                    f"(emitted {self.stats.windows_emitted}/"
                    f"{self.stats.windows_total})")

    @property
    def done(self) -> bool:
        """All windows emitted?"""
        return not self._pending and not self.forest

    def result(self) -> SpectreResult:
        """Snapshot the run outcome (used after manual driving)."""
        return SpectreResult(
            complex_events=self.output,
            input_events=0 if self.splitter is None
            else self.splitter.ingested,
            virtual_time=self.virtual_time,
            stats=self.stats,
            config=self.config,
            early=self.early,
        )

    def open(self, *, eager: bool = True, gc: bool | None = None,
             max_cycles: int = 50_000_000) -> "SpectreSession":
        """Open a push-based streaming session (Engine protocol).

        Eager sessions emit each window's matches on the push that
        completed the window and garbage-collect the retired stream
        prefix; lazy sessions (``eager=False``) defer all processing to
        ``flush()``, reproducing the historical batch run exactly.
        """
        return SpectreSession(self, eager=eager, gc=gc,
                              max_cycles=max_cycles)

    def run(self, events: Iterable[Event], **open_options) -> SpectreResult:
        """Process a finite stream to completion; return the result
        (a lazy session, driven and flushed; ``open_options`` as for
        :meth:`open`: ``max_cycles=``, on the threaded engine
        ``timeout_seconds=``, whose ``virtual_time`` is wall-clock)."""
        return run_batch(self, events, **open_options)

    # ------------------------------------------------------------------
    # splitter side
    # ------------------------------------------------------------------

    def splitter_cycle(self) -> None:
        """Maintenance + scheduling: one full splitter cycle, then the
        config's policies (elasticity, early emission) when set."""
        self.oplog.apply_all(self.forest, self)
        self._emit_ready()
        self._admit_windows()
        self._schedule()
        size = self.forest.version_count
        if size > self.stats.max_tree_size:
            self.stats.max_tree_size = size
        config = self.config
        if config.elasticity is not None:
            self._adapt(config.elasticity)
        if config.emission_threshold is not None:
            self._release_early(config.emission_threshold)

    def _adapt(self, policy: ElasticityPolicy) -> None:
        """Every ``policy.period`` cycles, once enough groups resolved,
        re-size the pool to the policy's recommendation."""
        stats = self.stats
        if stats.cycles % policy.period != 0:
            return
        if stats.groups_completed + stats.groups_abandoned \
                < policy.min_resolved:
            return
        probability = stats.completion_probability
        recommended = policy.recommend(probability)
        if recommended != self.k:
            self.set_k(recommended)
            self.adaptations.append(AdaptationRecord(
                cycle=stats.cycles, completion_probability=probability,
                k=recommended))

    def _release_early(self, threshold: float) -> None:
        """Release the buffered complex events of every live version
        whose survival probability reaches ``threshold`` — each pattern
        instance at most once."""
        for version in self.forest.iter_versions():
            if not version.alive or not version.buffered:
                continue
            probability = survival_probability(version,
                                               self._group_probability)
            if probability < threshold:
                continue
            for complex_event in version.buffered:
                identity = complex_event.identity()
                if identity in self._released:
                    continue
                self._released.add(identity)
                self.early.append(EarlyEmission(
                    complex_event=complex_event,
                    survival_probability=probability,
                    cycle=self.stats.cycles))

    # -- op-log hooks (RuntimeHooks protocol) ---------------------------

    def on_group_completed(self) -> None:
        self.stats.groups_completed += 1

    def on_group_abandoned(self) -> None:
        self.stats.groups_abandoned += 1

    def on_versions_dropped(self, dropped: list[WindowVersion]) -> None:
        for version in dropped:
            self.stats.versions_dropped += 1
            self.stats.wasted_steps += version.steps_spent
            if not version.finished:
                with self._counter_lock:
                    self._unfinished -= 1
            self.forest.forget(version)
            self.pool.release(version)

    # -- emission ---------------------------------------------------------

    def _emit_ready(self) -> None:
        """Emit finished, fully-resolved, validated root windows in order."""
        while True:
            tree = self.forest.front()
            if tree is None:
                break
            root = tree.root_version()
            assert root is not None
            if not root.finished:
                break
            if not tree.root_groups_resolved():
                break  # close() feedback still in flight
            if any(group.is_open for group in root.own_groups):
                break
            if not root.final_validation_ok():
                # backstop: an assumption was violated undetected — redo
                # the root deterministically (its context is now final).
                self._rollback_from_splitter(root)
                break
            self.output.extend(root.buffered)
            self._ledger.consume_seqs(root.local_consumed_seqs)
            admitted_at = self._admitted_at.pop(root.window.window_id, None)
            if admitted_at is not None:
                self.stats.window_latencies.append(
                    self.virtual_time - admitted_at)
            self.stats.windows_emitted += 1
            self._last_progress_cycle = self.stats.cycles
            self.forest.forget(root)
            self.pool.release(root)
            self.forest.advance_front(on_stale=self._rollback_stale)

    def _rollback_stale(self, version: WindowVersion) -> None:
        """A surviving version used an event of a group whose completion
        just became final at root emission: its speculation is wrong but
        no consistency check caught it.  Roll it back now; the retract op
        is buffered like any instance-side rollback."""
        with version.lock:
            was_finished = version.finished
            retired = version.rollback()
        if was_finished:
            with self._counter_lock:
                self._unfinished += 1
        self.stats.rollbacks += 1
        if retired:
            self.oplog.record_retract(version, retired)

    # -- admission ---------------------------------------------------------

    def set_k(self, new_k: int) -> None:
        """Adapt the parallelization degree at a cycle boundary.

        Growing adds idle instances; shrinking unschedules the versions
        held by the removed instances (their processing state survives in
        shared memory and can be rescheduled anywhere, Sec. 2.2).
        """
        if new_k < 1:
            raise ValueError("k must be >= 1")
        self.pool.set_k(new_k)

    def _admit_windows(self) -> None:
        target = self.config.admission_target(self.pool.k)
        while self._pending:
            if self.forest and (self._unfinished >= target
                                or self.forest.version_count
                                >= self.config.max_versions):
                break
            window = self._pending.popleft()
            self._admitted_at[window.window_id] = self.virtual_time
            self.forest.admit(window)

    # -- scheduling ---------------------------------------------------------

    def _group_probability(self, group: ConsumptionGroup) -> float:
        cached = self._prob_cache.get(group.group_id)
        if cached is not None:
            return cached
        owner: Optional[WindowVersion] = group.owner
        position = owner.position if owner is not None else 0
        avg_size = self.splitter.stats.avg_window_size
        events_left = max(1.0, avg_size - position)
        probability = self.predictor.probability(group.delta, events_left)
        self._prob_cache[group.group_id] = probability
        return probability

    def _schedule(self) -> None:
        """Strategy selection + Fig. 7 placement on the instance pool."""
        self._prob_cache = {}
        selected = self.scheduler.select(self.forest, self.pool.k,
                                         self._group_probability)
        self.pool.place(selected)

    # ------------------------------------------------------------------
    # instance side (Fig. 8)
    # ------------------------------------------------------------------

    def instance_phase(self) -> None:
        """Every instance spends one cycle's virtual-time budget."""
        cycle_budget = self.config.steps_per_cycle * self.config.costs.process
        for instance in self.pool:
            version = instance.version
            if version is None or not version.alive:
                continue
            budget = cycle_budget
            while budget > 0 and version.alive and not version.finished:
                budget -= self._step_version(version)
        self.virtual_time += cycle_budget
        self.stats.cycles += 1

    def _step_version(self, version: WindowVersion) -> float:
        """One Fig. 8 loop iteration; returns the virtual-time cost."""
        with version.lock:
            return self._step_version_locked(version)

    def _step_version_locked(self, version: WindowVersion) -> float:
        costs = self.config.costs
        if version.finished:
            return costs.suppressed  # raced with a concurrent finish
        if version.exhausted:
            self._finish_version(version)
            return costs.suppressed
        position = version.position
        event = version.window.event_at(position)
        version.position = position + 1
        version.steps_spent += 1

        classifier = self._classifier
        if classifier is not None and not classifier.relevant(
                version.window.start_pos + position):
            # Type-irrelevant event (prefilter flags, classified once at
            # ingestion): it can neither bind an element nor trip a
            # guard, so the detector never needs to see it — no
            # Feedback, no used_seqs entry, and no suppression check
            # (ledgers and groups only ever hold bound, i.e. relevant,
            # events).  In *virtual* time it still costs a full
            # processing step so the simulated cost model (and the
            # Fig. 10 dynamics) match the uncompiled runtime exactly;
            # the saving is real wall-clock time.  δ self-transitions
            # the interpreted path would record for such no-op events
            # are deliberately not observed — the Markov statistics
            # then describe the events the detector can see (the
            # predictor is a scheduling heuristic; emission is
            # validated independently).
            self.stats.steps_processed += 1
            cost = costs.process
        elif event.seq in version.local_consumed_seqs or \
                version.is_suppressed(event):
            self.stats.steps_suppressed += 1
            cost = costs.suppressed
        else:
            detector = version.ensure_detector()
            if detector.done:
                cost = costs.process  # drain the window at full cost
            else:
                collect = (self.config.collect_transition_stats
                           and self._consumes
                           and self._is_nonspeculative(version))
                pre = [(g, g.delta) for g in version.open_own_groups] \
                    if collect else ()
                feedback = detector.process(event)
                version.used_seqs.add(event.seq)
                self._handle_feedback(version, feedback)
                if collect:
                    self._observe_transitions(pre)
                cost = costs.process
            self.stats.steps_processed += 1

        version.steps_since_check += 1
        if version.steps_since_check >= self.config.consistency_check_freq:
            version.steps_since_check = 0
            cost += costs.check * max(1, len(version.assumes_completed))
            if version.consistency_violations():
                self._rollback(version)
                self.stats.rollbacks += 1
        return cost

    def _is_nonspeculative(self, version: WindowVersion) -> bool:
        """Is this version's context certain (statistics-grade)?

        The paper gathers δ-transition statistics from "window versions of
        independent windows": versions whose consumption context is fully
        known.  That is exactly the current *root* version of a dependency
        tree — every assumption on its (empty) remaining root path has
        been resolved — so its δ dynamics reflect reality, not
        speculation.
        """
        tree = self.forest.tree_of(version)
        if tree is None or tree.root is None:
            return False
        return tree.root.version is version

    def _observe_transitions(self, pre) -> None:
        from repro.consumption.group import GroupState
        for group, delta_old in pre:
            if group.state is GroupState.ABANDONED:
                continue
            self.predictor.observe(delta_old, group.delta)

    def _finish_version(self, version: WindowVersion) -> None:
        if version.detector is not None:
            feedback = version.detector.close()
            self._handle_feedback(version, feedback)
        version.finished = True
        with self._counter_lock:
            self._unfinished -= 1

    def _handle_feedback(self, version: WindowVersion,
                         feedback: Feedback) -> None:
        if not self._consumes:
            # no consumption policy → no dependencies, no speculation
            for completion in feedback.completed:
                version.buffered.append(self._complex_event(
                    version, completion))
            return
        for match in feedback.created:
            group = ConsumptionGroup(self._group_ids.next(), match,
                                     events=match.consumable)
            group.owner = version
            version.register_group(group, match)
            self.stats.groups_created += 1
            self.oplog.record_created(version, group)
        for match, event in feedback.added:
            group = version.group_for_match(match)
            if group is not None and group.is_open:
                group.add(event)
        for completion in feedback.completed:
            group = version.group_for_match(completion.match)
            if group is None:
                group = ConsumptionGroup(self._group_ids.next(),
                                         completion.match,
                                         events=completion.consumed)
                group.owner = version
                version.register_group(group, completion.match)
                self.stats.groups_created += 1
                self.oplog.record_created(version, group)
            else:
                for event in completion.consumed:
                    if group.is_open:
                        group.add(event)
            version.local_consumed_seqs.update(
                event.seq for event in completion.consumed)
            version.buffered.append(self._complex_event(version, completion))
            self.oplog.record_completed(version, group, completion.consumed)
        for match in feedback.abandoned:
            group = version.group_for_match(match)
            if group is not None and group.is_open:
                self.oplog.record_abandoned(version, group)

    def _complex_event(self, version: WindowVersion,
                       completion) -> ComplexEvent:
        return ComplexEvent(
            query_name=self.query.name,
            window_id=version.window.window_id,
            constituents=completion.constituents,
            attributes=completion.attributes,
        )

    def _rollback(self, version: WindowVersion) -> None:
        """Instance-side rollback (already under the version's lock)."""
        was_finished = version.finished
        retired = version.rollback()
        if was_finished:
            with self._counter_lock:
                self._unfinished += 1
        if retired:
            self.oplog.record_retract(version, retired)

    def _rollback_from_splitter(self, version: WindowVersion) -> None:
        """Splitter-side rollback (validation failure at emission); takes
        the lock so a concurrently stepping worker cannot interleave."""
        with version.lock:
            was_finished = version.finished
            retired = version.rollback()
        if was_finished:
            with self._counter_lock:
                self._unfinished += 1
        self.stats.validation_rollbacks += 1
        self.oplog.apply_retract(self.forest, self, version, retired)


class SpectreSession(WindowedSession):
    """Push-based driving of the speculative runtime.

    Eager mode closes the loop per event: the windows the event
    completed are queued, cycled to emission, and their validated
    complex events are returned from ``push``.  Speculation still
    happens whenever several windows are in flight at once (bursts of
    closures, dependent windows closed by one event); a batch run simply
    sees deeper backlogs and therefore more of it — output is identical
    either way by the sequential-equivalence contract.
    """

    def __init__(self, engine: SpectreEngine, *, eager: bool = True,
                 gc: bool | None = None,
                 max_cycles: int = 50_000_000) -> None:
        if engine.splitter is not None:
            raise RuntimeError(
                "engine already driven; use a fresh engine per stream")
        super().__init__(engine.query, eager=eager, gc=gc)
        engine.splitter = self.splitter
        engine._classifier = self.splitter.classifier
        self.engine = engine
        self.max_cycles = max_cycles
        self._handed = 0  # prefix of engine.output already returned

    def _queue_windows(self, windows: list[Window]) -> None:
        self.engine.queue_windows(windows)

    def _run_cycles(self) -> None:
        self.engine.drain(self.max_cycles)

    def _drain(self) -> list[ComplexEvent]:
        self._run_cycles()
        # emission is in window-id order and ids are dense from 0, so
        # everything below the emitted count is final
        self._processed_through = self.engine.stats.windows_emitted - 1
        output = self.engine.output
        new = output[self._handed:]
        self._handed = len(output)
        return new

    def result(self) -> SpectreResult:
        return self.engine.result()

    def consumed_seqs(self) -> frozenset[int]:
        return self.engine._ledger.snapshot()
