"""The per-layer ladder: every layer's public functions timed from
outside, on one workload's own inputs.

Rungs are *cumulative* passes over the same feed prefix, queries and
chunking — batch kernel → ``Session`` → ``StreamHub`` →
``AsyncStreamHub`` → ``DurableHub`` — so a rung's self cost is its
total minus the rung below (``measure.rung_deltas``).  Beside the
ladder proper, single layers are timed alone (codec, sorter, splitter,
speculative engine).  Every rung that produces matches must produce
the batch rung's: a ladder that disagrees with itself counts as
failed operations.

The two baselines the end-to-end run reports — the single-threaded
``sequential_events_per_s`` and the speculative engine's
``virtual_speedup_k8`` — are rungs too and live here.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

import measure
import wire
from measure import Round
from spans import ROOT, Tracer
from workloads import Workload, sequential_pipeline

from repro.durability.manager import DurableHub
from repro.events.ooo import SlackSorter
from repro.hub import StreamHub
from repro.hub.aio import AsyncStreamHub
from repro.server.protocol import (
    decode_frame,
    encode_frame,
    event_from_wire,
    match_frame,
)
from repro.streaming.builder import pipeline
from repro.windows.splitter import Splitter

CHURN_PROBES = 21        # attach/detach probes on the live hub


def chunked(events, size: int):
    return [events[start:start + size]
            for start in range(0, len(events), size)]


def batch_seconds(workload: Workload, events) -> tuple[float, list]:
    """The single-threaded baseline: every query of the job alone,
    ``pipeline(q).engine("sequential").run(events)``."""
    seconds, rows = 0.0, []
    for spec in workload.queries:
        builder = sequential_pipeline(workload, spec)
        before = time.perf_counter()
        result = builder.run(events)
        seconds += time.perf_counter() - before
        rows.append(result.complex_events)
    return seconds, rows


def sequential_sample(workload: Workload, events,
                      min_seconds: float = 0.3) -> float:
    """One ``sequential_events_per_s`` sample: whole batch passes until
    ``min_seconds`` are on the clock."""
    seconds, passes = 0.0, 0
    while seconds < min_seconds:
        seconds += batch_seconds(workload, events)[0]
        passes += 1
    return passes * workload.jobs * len(events) / seconds


def spectre_run(spec, events, engine: str = "spectre", **options):
    """``(result, seconds)`` of one batch run on a fresh engine."""
    builder = pipeline(spec.build()).engine(engine, **options)
    before = time.perf_counter()
    result = builder.run(events)
    return result, time.perf_counter() - before


def in_order(workload: Workload, events) -> list:
    """The stream as the engines see it: behind the workload's slack
    sorter when arrival is out of order (late events dropped)."""
    if workload.slack is None:
        return events
    return list(SlackSorter(workload.slack).sort(events))


def virtual_speedup_k8(workload: Workload, events) -> float:
    """Σ virtual_time(k=1) / Σ virtual_time(k=8) of the speculative
    engine over the job's first and last query — the paper's scaling
    factor; simulated time, so it repeats exactly for equal inputs."""
    points = (workload.queries[0], workload.queries[-1])
    events = in_order(workload, events)
    single = sum(spectre_run(spec, events, k=1)[0].virtual_time
                 for spec in points)
    eight = sum(spectre_run(spec, events, k=8)[0].virtual_time
                for spec in points)
    return single / eight


# -- the traced ladder --------------------------------------------------------

class Ladder:
    def __init__(self, workload: Workload, events, tracer: Tracer,
                 scratch: Path, result: Round) -> None:
        self.workload = workload
        self.events = events
        self.chunks = chunked(events, workload.chunk)
        self.tracer = tracer
        self.scratch = scratch
        self.result = result
        self.layer = result.layer
        self.slack = workload.slack or 0.0
        self.label = f"{workload.name}/ladder"
        self.reference: list[list] = []     # batch rung match streams
        self.totals: dict[str, float] = {}  # cumulative us/event per rung

    def check(self, rows, rung: str, flushed: bool = True) -> None:
        """Every rung must reproduce the batch rung's match streams (a
        pass that crashed before its flush: a prefix of them)."""
        rows = [[match.constituent_seqs for match in row] for row in rows]
        self.result.attempted += sum(len(row) for row in rows)
        if not self.reference:
            self.reference = rows
            return
        for row, expected in zip(rows, self.reference):
            if not flushed:
                expected = expected[:len(row)]
            self.result.fail(measure.sequence_mismatches(row, expected),
                             f"ladder rung {rung} != batch rung")

    def span(self, name: str):
        """A span directly under the ladder's root."""
        return self.tracer.span(name, self.root, self.label)

    def push_pass(self, name: str, root: int, push_many) -> list[float]:
        """One ``push_many`` span per chunk under ``root``."""
        call_ms = []
        for index, chunk in enumerate(self.chunks):
            with self.tracer.span(name, root, f"{self.label}/c{index}"):
                before = time.perf_counter()
                push_many(chunk)
                call_ms.append((time.perf_counter() - before) * 1e3)
        return call_ms

    def run(self) -> None:
        with self.tracer.span("ladder", ROOT, self.label) as root:
            self.root = root
            totals = [
                ("matching.batch_us_per_event", self.rung_batch()),
                ("streaming.session_delta_us_per_event",
                 self.rung_session()),
                ("hub.core_delta_us_per_event", self.rung_hub()),
                ("hub.aio_delta_us_per_event", self.rung_aio()),
                ("durability.wal_delta_us_per_event", self.rung_durable()),
            ]
            per_event = 1e6 / len(self.events)
            self.totals = {name: seconds * per_event
                           for name, seconds in totals}
            self.layer.update(measure.rung_deltas(
                list(self.totals.items())))
            batch, session, hub = (seconds for _n, seconds in totals[:3])
            self.layer["streaming.session_vs_batch_ratio"] = session / batch
            self.layer["hub.vs_independent_speedup"] = session / hub
            self.single_layers()
            self.spectre_rungs()

    # -- cumulative rungs -----------------------------------------------------

    def rung_batch(self) -> float:
        with self.span("matching.batch"):
            seconds, rows = batch_seconds(self.workload, self.events)
        self.check(rows, "matching.batch")
        return seconds

    def rung_session(self) -> float:
        rows, seconds = [], 0.0
        with self.span("streaming.session") as root:
            for spec in self.workload.queries:
                session = sequential_pipeline(self.workload, spec).open()
                row = []
                before = time.perf_counter()
                self.push_pass("Session.push_many", root,
                               lambda chunk: row.extend(
                                   session.push_many(chunk)))
                row.extend(session.close())
                seconds += time.perf_counter() - before
                rows.append(row)
        self.check(rows, "streaming.session")
        return seconds

    def attach_all(self, hub, rows) -> None:
        for spec, row in zip(self.workload.queries, rows):
            hub.attach(spec.build(), engine="sequential", name=spec.name,
                       sink=row.append)

    def rung_hub(self) -> float:
        layer = self.layer
        rows = [[] for _ in self.workload.queries]
        with self.span("hub.core") as root:
            hub = StreamHub(slack=self.slack, share=True)
            self.attach_all(hub, rows)
            before = time.perf_counter()
            call_ms = self.push_pass("StreamHub.push_many", root,
                                     hub.push_many)
            hub.close()
            seconds = time.perf_counter() - before
        self.matches = [(spec.name, match)
                        for spec, row in zip(self.workload.queries, rows)
                        for match in row]
        self.check(rows, "hub.core")
        stats = hub.stats()
        sharing = stats.sharing
        layer["hub.late_events"] = stats.late_events
        layer["hub.prefix_events_saved"] = sharing.prefix_events_saved
        layer["hub.windows_shared"] = sharing.windows_shared
        lookups = sharing.memo_hits + sharing.memo_misses
        layer["hub.memo_hit_share"] = \
            sharing.memo_hits / lookups if lookups else 0.0
        layer["hub.push_many_p50_ms"] = measure.percentile(call_ms, 0.50)
        layer["hub.push_many_p99_ms"] = measure.percentile(call_ms, 0.99)
        layer["hub.matches_per_s"] = len(self.matches) / seconds

        # the optimizer's own contribution: the same pass with it off
        rows = [[] for _ in self.workload.queries]
        with self.span("hub.core.no_share"):
            plain = StreamHub(slack=self.slack, share=False)
            self.attach_all(plain, rows)
            before = time.perf_counter()
            for chunk in self.chunks:
                plain.push_many(chunk)
            plain.close()
            layer["hub.share_speedup"] = \
                (time.perf_counter() - before) / seconds
        self.check(rows, "hub.core.no_share")
        self.probe_attach()
        return seconds

    def probe_attach(self) -> None:
        """One more query joining and leaving the live, loaded hub."""
        hub = StreamHub(slack=self.slack, share=True)
        self.attach_all(hub, [[] for _ in self.workload.queries])
        for chunk in self.chunks[:len(self.chunks) // 2]:
            hub.push_many(chunk)
        extra = self.workload.queries[0].build()
        attach_ms, detach_ms = [], []
        for _probe in range(CHURN_PROBES):
            with self.span("StreamHub.attach"):
                before = time.perf_counter()
                attachment = hub.attach(extra, engine="sequential",
                                        name="probe", sink=_ignore)
                attach_ms.append((time.perf_counter() - before) * 1e3)
            with self.span("Attachment.detach"):
                before = time.perf_counter()
                attachment.detach()
                detach_ms.append((time.perf_counter() - before) * 1e3)
        hub.close()
        self.layer["hub.attach_ms"] = measure.median(attach_ms)
        self.layer["hub.detach_ms"] = measure.median(detach_ms)

    def rung_aio(self) -> float:
        rows = [[] for _ in self.workload.queries]

        async def drive() -> float:
            hub = AsyncStreamHub(slack=self.slack, share=True)
            self.attach_all(hub, rows)
            before = time.perf_counter()
            for index, chunk in enumerate(self.chunks):
                with self.tracer.span("AsyncStreamHub.push_many", root,
                                      f"{self.label}/c{index}"):
                    await hub.push_many(chunk)
            await hub.close()
            return time.perf_counter() - before

        with self.span("hub.aio") as root:
            seconds = asyncio.run(drive())
        self.check(rows, "hub.aio")
        return seconds

    def rung_durable(self) -> float:
        """``DurableHub`` with batch fsync: the WAL rung, then what the
        log is for — crash, recover, checkpoint."""
        layer, n_events = self.layer, len(self.events)
        directory = self.scratch / "ladder-wal"
        # checkpoints after 3/8 and 6/8 of the chunks: the crash below
        # leaves the last quarter in the WAL tail for recovery to replay
        options = dict(
            fsync="batch", slack=self.slack, share=True,
            checkpoint_every=max(1, 3 * len(self.chunks) // 8)
            * self.workload.chunk)
        rows = [[] for _ in self.workload.queries]
        with self.span("durability.wal") as root:
            hub = DurableHub(directory, **options)
            for spec, row in zip(self.workload.queries, rows):
                # hand-built (UDF) queries carry no source text to restore
                hub.attach(spec.build(), engine="sequential",
                           name=spec.name, sink=row.append,
                           durable=spec.q1 is None)
            before = time.perf_counter()
            self.push_pass("DurableHub.push_many", root, hub.push_many)
            seconds = time.perf_counter() - before
        manager = hub.manager
        layer["durability.wal_bytes_per_event"] = \
            manager.wal_bytes() / n_events
        layer["durability.checkpoints"] = manager.checkpoints_total
        layer["durability.snapshot_bytes"] = \
            manager.stats_dict()["snapshot_bytes"]
        # crash: no flush, no final checkpoint
        hub.hub.abort()
        manager.close(checkpoint=False)
        with self.span("DurableHub.recover") as span:
            recovered = DurableHub(directory, **options)
        replayed = recovered.recovery_report.replayed_events
        layer["durability.replayed_events"] = replayed
        layer["durability.replay_events_per_s"] = \
            replayed / self.tracer.seconds(span)
        with self.span("DurableHub.checkpoint") as span:
            recovered.checkpoint()
        layer["durability.checkpoint_ms"] = self.tracer.seconds(span) * 1e3
        recovered.hub.abort()
        recovered.manager.close(checkpoint=False)
        self.check(rows, "durability.wal", flushed=False)
        return seconds

    # -- single layers --------------------------------------------------------

    def single_layers(self) -> None:
        layer, events, seconds = self.layer, self.events, self.tracer.seconds
        n_events = len(events)
        first = self.workload.queries[0]

        frames = [wire.push_frame(index, chunk, "tcp")
                  for index, chunk in enumerate(self.chunks)]
        with self.span("server.decode") as span:
            for frame in frames:
                for obj in decode_frame(frame)["events"]:
                    event_from_wire(obj)
        layer["server.decode_us_per_event"] = seconds(span) * 1e6 / n_events
        layer["server.bytes_in_per_event"] = \
            sum(map(len, frames)) / n_events
        n_matches = max(1, len(self.matches))
        with self.span("server.encode") as span:
            out = sum(len(encode_frame(match_frame(name, match)))
                      for name, match in self.matches)
        layer["server.encode_us_per_match"] = seconds(span) * 1e6 / n_matches
        layer["server.bytes_out_per_match"] = out / n_matches
        self.matches_per_event = len(self.matches) / n_events

        sorter, pending, released = SlackSorter(self.slack), 0, []
        with self.span("events.sorter") as span:
            for event in events:
                released.extend(sorter.push(event))
                if sorter.pending > pending:
                    pending = sorter.pending
        layer["events.sorter_us_per_event"] = seconds(span) * 1e6 / n_events
        layer["events.sorter_pending_max"] = pending
        released.extend(sorter.flush())
        self.ordered = released

        splitter = Splitter(first.build().window)
        with self.span("windows.splitter") as span:
            for event in released:
                splitter.ingest(event)
            splitter.finish()
        layer["windows.splitter_us_per_event"] = \
            seconds(span) * 1e6 / len(released)

        session = sequential_pipeline(self.workload, first).open()
        push_us = []
        with self.span("streaming.push"):
            clock = time.perf_counter_ns
            for event in events:
                before = clock()
                session.push(event)
                push_us.append((clock() - before) / 1e3)
            session.close()
        layer["streaming.push_p50_us"] = measure.percentile(push_us, 0.50)
        layer["streaming.push_p99_us"] = measure.percentile(push_us, 0.99)

        took = {}
        for compile in (True, False):
            builder = sequential_pipeline(self.workload, first, compile)
            with self.span(f"matching.compile={compile}") as span:
                builder.run(events)
            took[compile] = seconds(span)
        layer["matching.compiled_vs_interpreted_ratio"] = \
            took[False] / took[True]

    def spectre_rungs(self) -> None:
        """The speculative engine on the job's first and last query —
        on ``spectre_consumption`` the two operating points the metric
        names carry: completion probability ~1.0 and ~0.76."""
        layer, events = self.layer, self.ordered
        points = {"cp100": self.workload.queries[0],
                  "cp76": self.workload.queries[-1]}
        stats, wall = [], 0.0
        for point, spec in points.items():
            with self.span(f"spectre.k1.{point}"):
                single, single_s = spectre_run(spec, events, k=1)
            with self.span(f"spectre.k8.{point}"):
                eight, eight_s = spectre_run(spec, events, k=8)
            if point == "cp100":
                layer["spectre.events_per_s_k1"] = len(events) / single_s
            layer[f"spectre.events_per_s_{point}_k8"] = \
                len(events) / eight_s
            layer[f"spectre.virtual_speedup_{point}_k8"] = \
                single.virtual_time / eight.virtual_time
            stats.append(eight.stats)
            wall += eight_s
        steps = sum(s.steps_processed for s in stats)
        created = sum(s.versions_created for s in stats)
        layer["spectre.wasted_step_share_k8"] = \
            sum(s.wasted_steps for s in stats) / max(1, steps)
        layer["spectre.versions_dropped_share_k8"] = \
            sum(s.versions_dropped for s in stats) / max(1, created)
        layer["spectre.rollbacks_k8"] = sum(s.rollbacks for s in stats)
        layer["spectre.max_tree_size_k8"] = \
            max(s.max_tree_size for s in stats)
        layer["spectre.cycles_k8"] = sum(s.cycles for s in stats)
        sequential_s = sum(
            spectre_run(spec, events, engine="sequential")[1]
            for spec in points.values())
        layer["spectre.vs_sequential_ratio"] = sequential_s / wall
        with self.span("spectre.threaded.k2"):
            _result, threaded_s = spectre_run(
                points["cp100"], events, engine="threaded", k=2)
        layer["spectre.threaded_events_per_s_k2"] = \
            len(events) / threaded_s


def _ignore(match) -> None:
    return None


def run_ladder(workload: Workload, events, tracer: Tracer,
               scratch: Path) -> tuple[Round, "Ladder"]:
    result = Round()
    ladder = Ladder(workload, events, tracer, scratch, result)
    ladder.run()
    return result, ladder
