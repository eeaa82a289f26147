"""Driver for the served workloads (``serve_tcp_fanout``,
``serve_ws_durable``): one round against one real ``repro serve``
subprocess.

Round = set-up (inputs, oracle, spawn, subscribe, warm-up) →
saturation (pipelined closed loop) → open loop (fixed rate, chunks
stamped with their due time) → churn → SIGKILL → restart (→ resume by
cursor and flush, when durable).  The generator is this one process
with at most two connections at any time: the subscriber that carries
every subscription, plus the pusher or — after the pusher closed —
one churn connection.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

import measure
import wire
from measure import NS, Round
from spans import ROOT, Tracer
from workloads import FLUSH, Oracle, Plan, Workload, build_oracle

from repro.server.protocol import PROTOCOL_VERSION

PIPELINE_DEPTH = 2       # push_many requests in flight (closed loop)
SEGMENT_CHUNKS = 20      # saturation chunks per events_per_s sample
CHURN_SEGMENT = 25       # churn cycles per churn_cycles_per_s sample
ACK_LAG_LIMIT_S = 1.0    # open loop must end with less ack lag than this
SLICE_SECONDS = 0.5      # open-loop time per delivery percentile sample
WAIT_S = 20.0            # patience for frames that must arrive


class ServeRound:
    def __init__(self, workload: Workload, plan: Plan, seed: int,
                 scratch: Path, sut_cpu: Optional[int],
                 tracer: Optional[Tracer], label: str) -> None:
        self.workload = workload
        self.plan = plan
        self.seed = seed
        self.sut_cpu = sut_cpu
        self.tracer = tracer
        self.label = label                      # "<workload>/r<round>"
        self.wal_dir = scratch / "wal" if workload.wal else None
        self.result = Round()
        self.oracle = Oracle()
        self.frames: list[bytes] = []
        self.server: Optional[wire.Server] = None
        self.sub: Optional[wire.Conn] = None
        self.push: Optional[wire.Conn] = None
        n_chunks = len(plan.chunks)
        self.start_ns = [0] * n_chunks          # due (open) or send time
        self.ack_ns = [0] * n_chunks
        self.acked = 0
        self.sent = 0
        self.backlog_max = 0
        self.open_origin = 0                    # open loop: first due time
        self.late_ms: list[float] = []          # ... send lateness per chunk
        self.wake = asyncio.Event()
        n_queries = len(workload.queries)
        self.names = {spec.name: index
                      for index, spec in enumerate(workload.queries)}
        self.got_seqs: list[list[tuple]] = [[] for _ in range(n_queries)]
        self.got_ns: list[list[int]] = [[] for _ in range(n_queries)]
        self.received = 0
        self.finals = 0                         # final watermark frames
        self.subscribe_ms: list[float] = []
        self.root = ROOT
        self.push_span = [ROOT] * n_chunks

    # -- frame handlers ----------------------------------------------------

    def on_ack(self, frame: dict, stamp: int) -> None:
        rid = frame.get("id")
        if frame["type"] == "error" or not isinstance(rid, int):
            self.result.fail(1, f"push answered {frame}")
            return
        if frame.get("accepted") != frame.get("count"):
            self.result.fail(1, "push_many accepted < count")
        self.ack_ns[rid] = stamp
        self.acked += 1
        if self.tracer is not None:
            self.tracer.ends[self.push_span[rid]] = stamp
        self.wake.set()

    def on_sub_frame(self, frame: dict, stamp: int) -> None:
        kind = frame["type"]
        if kind == "match":
            index = self.names[frame["subscription"]]
            got = self.got_seqs[index]
            cursor = frame.get("cursor")
            if cursor is not None and cursor != len(got) + 1:
                self.result.fail(1, f"cursor gap on {frame['subscription']}"
                                    f": {cursor} after {len(got)}")
            got.append(tuple(frame["match"]["seqs"]))
            self.got_ns[index].append(stamp)
            self.received += 1
            if self.tracer is not None:
                triggers = self.oracle.triggers[index]
                position = len(got) - 1
                trigger = triggers[position] \
                    if position < len(triggers) else FLUSH
                if trigger != FLUSH:
                    self.tracer.add(
                        "server.match", self.start_ns[trigger], stamp,
                        self.push_span[trigger],
                        f"{self.label}/c{trigger}")
            self.wake.set()
        elif kind == "watermark" and frame.get("final"):
            self.finals += 1
            self.wake.set()
        elif kind == "error":
            self.result.fail(1, f"subscriber got {frame}")

    async def wait_for(self, condition, what: str,
                       timeout: float = WAIT_S) -> bool:
        deadline = time.monotonic() + timeout
        while not condition():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.result.fail(1, f"timeout waiting for {what}")
                return False
            self.wake.clear()
            try:
                await asyncio.wait_for(self.wake.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        return True

    def expected_before(self, chunk_stop: int) -> int:
        return sum(self.oracle.before(index, chunk_stop)
                   for index in range(len(self.workload.queries)))

    async def wait_matches(self, chunk_stop: int, what: str) -> None:
        """Until every match the chunks before ``chunk_stop`` trigger
        has arrived."""
        target = self.expected_before(chunk_stop)
        await self.wait_for(lambda: self.received >= target, what)

    # -- wire helpers --------------------------------------------------------

    def spawn(self) -> wire.Server:
        return wire.Server(self.workload.transport, wal_dir=self.wal_dir,
                           checkpoint_every=self.workload.checkpoint_every,
                           slack=self.workload.slack, cpu=self.sut_cpu)

    def subscribe_frame(self, index: int,
                        resume_from: Optional[int] = None) -> dict:
        spec = self.workload.queries[index]
        frame = {"type": "subscribe", "query": spec.text,
                 "name": spec.name}
        if spec.params:
            frame["params"] = spec.params
        if self.workload.wal:
            frame["durable"] = True
            if resume_from is not None:
                frame["resume_from"] = resume_from
        return frame

    def send_chunk(self, index: int, start_ns: int, phase: int) -> None:
        self.start_ns[index] = start_ns
        if self.tracer is not None:
            self.push_span[index] = self.tracer.add(
                "server.push_many", start_ns, 0, phase,
                f"{self.label}/c{index}")
        self.push.write(self.frames[index])
        self.sent += 1
        self.backlog_max = max(self.backlog_max, self.sent - self.acked)

    async def closed_loop(self, chunks: range, phase: int) -> None:
        for index in chunks:
            while self.sent - self.acked >= PIPELINE_DEPTH:
                self.wake.clear()
                await self.wake.wait()
            self.send_chunk(index, time.perf_counter_ns(), phase)
        await self.wait_for(lambda: self.acked == self.sent, "acks")

    def phase_span(self, name: str):
        if self.tracer is None:
            return nullcontext(ROOT)
        return self.tracer.span(name, self.root, self.label)

    # -- the round ------------------------------------------------------------

    async def run(self) -> Round:
        try:
            with self.phase_span("round") as root:
                self.root = root
                await self._run()
        finally:
            for conn in (self.push, self.sub):
                if conn is not None:
                    await conn.close()
            if self.server is not None:
                self.server.kill()
            if self.wal_dir is not None:
                shutil.rmtree(self.wal_dir, ignore_errors=True)
        return self.result

    async def _run(self) -> None:
        workload, plan, result = self.workload, self.plan, self.result
        started = time.perf_counter()
        with self.phase_span("setup"):
            events = workload.feed(plan.n_events, self.seed)
            self.frames = [
                wire.push_frame(index, events[start:end],
                                workload.transport)
                for index, (start, end) in enumerate(plan.chunks)]
            self.oracle = build_oracle(workload, events, plan.chunks)
            self.server = self.spawn()
            boot = time.perf_counter()
            port = self.server.start()
            self.sub = await wire.Conn.open(port, workload.transport)
            await self.sub.hello("subscriber")
            result.layer["durability.cold_boot_s"] = \
                time.perf_counter() - boot
            self.sub.on_frame = self.on_sub_frame
            for index in range(len(workload.queries)):
                before = time.perf_counter()
                await self.sub.request(self.subscribe_frame(index))
                self.subscribe_ms.append(
                    (time.perf_counter() - before) * 1000.0)
            self.push = await wire.Conn.open(port, workload.transport)
            await self.push.hello("pusher")
            self.push.on_frame = self.on_ack
            await self.closed_loop(plan.warm, self.root)
            await self.wait_matches(plan.warm.stop, "warm-up matches")
        result.setup_s = time.perf_counter() - started
        rss_warm = self.server.status_mb("VmRSS")

        await self.saturation()
        await self.open_loop()
        await self.wait_matches(plan.open.stop,
                                "matches of the pushed chunks")
        self.collect_delivery()
        await self.push.close()
        self.push = None
        await self.churn(port)

        result.peak_rss_mb = self.server.status_mb("VmHWM")
        result.layer["server.rss_growth_mb"] = \
            self.server.status_mb("VmRSS") - rss_warm
        result.layer["server.subscribe_ms_p50"] = \
            measure.median(self.subscribe_ms)
        result.layer["server.open_backlog_max_chunks"] = self.backlog_max
        await self.crash_and_recover()
        self.account()

    async def saturation(self) -> None:
        plan, result = self.plan, self.result
        sat = plan.sat
        cpu_before = self.server.cpu_seconds()
        own_before = time.process_time()
        matches_before = self.received
        with self.phase_span("saturation") as phase:
            began = time.perf_counter_ns()
            await self.closed_loop(sat, phase)
            edge = began
            for first in range(sat.start, sat.stop, SEGMENT_CHUNKS):
                last = min(first + SEGMENT_CHUNKS, sat.stop) - 1
                n_events = plan.chunks[last][1] - plan.chunks[first][0]
                result.events_per_s.append(
                    n_events * NS / (self.ack_ns[last] - edge))
                edge = self.ack_ns[last]
            await self.wait_matches(sat.stop, "saturation matches")
            elapsed = (time.perf_counter_ns() - began) / NS
        n_events = plan.chunks[sat.stop - 1][1] - plan.chunks[sat.start][0]
        layer = result.layer
        layer["server.cpu_us_per_event"] = \
            (self.server.cpu_seconds() - cpu_before) * 1e6 / n_events
        layer["bench.generator_cpu_us_per_event"] = \
            (time.process_time() - own_before) * 1e6 / n_events
        layer["server.match_frames_per_s"] = \
            (self.received - matches_before) / elapsed
        ack_ms = [(self.ack_ns[i] - self.start_ns[i]) / 1e6 for i in sat]
        layer["server.ack_p50_ms"] = measure.percentile(ack_ms, 0.50)
        layer["server.ack_p99_ms"] = measure.percentile(ack_ms, 0.99)

    async def open_loop(self) -> None:
        """Fixed-rate sender that never waits for an ack: each chunk has
        a due time; the send happens at or after it, and every latency
        is counted from the due time, so a stall anywhere shows."""
        plan, result = self.plan, self.result
        interval_ns = round(self.workload.open_chunk * NS
                            / self.workload.open_rate)
        late_ms = []
        self.backlog_max = 0
        with self.phase_span("open_loop") as phase:
            origin = time.perf_counter_ns() + 20_000_000
            for position, index in enumerate(plan.open):
                due = origin + position * interval_ns
                delay = due - time.perf_counter_ns()
                if delay > 0:
                    await asyncio.sleep(delay / NS)
                late_ms.append((time.perf_counter_ns() - due) / 1e6)
                self.send_chunk(index, due, phase)
            await self.wait_for(lambda: self.acked == self.sent,
                                "open-loop acks")
        last = plan.open.stop - 1
        lag_s = (self.ack_ns[last] - self.start_ns[last]) / NS
        result.layer["bench.generator_late_p99_ms"] = \
            measure.percentile(late_ms, 0.99)
        self.open_origin = origin
        self.late_ms = late_ms
        if lag_s > ACK_LAG_LIMIT_S:
            # a growing backlog: every match of the phase misses the limit
            result.fail(self.expected_before(plan.open.stop)
                        - self.expected_before(plan.open.start),
                        f"open-loop ack lag {lag_s:.2f}s")

    def collect_delivery(self) -> None:
        """``recv(match frame) - due time of its trigger chunk`` for the
        matches the open-loop phase triggered, cut into slices (taken
        now: a durable round re-delivers part of the stream after its
        restart)."""
        plan, samples = self.plan, []
        for index in range(len(self.workload.queries)):
            triggers = self.oracle.triggers[index]
            for trigger, stamp in zip(triggers, self.got_ns[index]):
                if trigger in plan.open:
                    due = self.start_ns[trigger]
                    samples.append(((due - self.open_origin) / NS,
                                    (stamp - due) / 1e6))
        self.result.layer["server.delivery_p99_ms"] = measure.percentile(
            [ms for _at, ms in samples], 0.99)
        # a slice during which the generator ran late is not published
        due_s = [(self.start_ns[index] - self.open_origin) / NS
                 for index in plan.open]
        slices = [(values, [late for at, late in zip(due_s, self.late_ms)
                            if start <= at < end])
                  for start, end, values in measure.time_slices(
                      samples, SLICE_SECONDS)]
        kept, voided = measure.punctual(slices)
        self.result.delivery_p50_ms = [measure.percentile(values, 0.50)
                                       for values in kept]
        self.result.delivery_p90_ms = [measure.percentile(values, 0.90)
                                       for values in kept]
        self.result.valid = voided * 2 <= len(slices)

    async def churn(self, port: int) -> None:
        """connect → hello → subscribe → abrupt drop, one connection at
        a time against the loaded server; then the server must report
        exactly the subscriber's attachments again.  hello and subscribe
        go out back to back and only the subscribe ack is awaited: each
        awaited reply costs two cross-CPU wake-ups whose latency on a
        shared VM swings 2x from one server process to the next, and one
        wait per cycle keeps the cycle bound by the server's work."""
        workload, result = self.workload, self.result
        spec = workload.queries[0]
        hello = wire.frame_bytes(
            {"type": "hello", "version": PROTOCOL_VERSION,
             "client": "churn"}, workload.transport)
        frame = {"type": "subscribe", "query": spec.text}
        if spec.params:
            frame["params"] = spec.params
        with self.phase_span("churn"):
            edge = time.perf_counter()
            for cycle in range(1, self.plan.churn_cycles + 1):
                conn = await wire.Conn.open(port, workload.transport)
                conn.write(hello)
                await conn.request(dict(frame))
                conn.abort()
                if cycle % CHURN_SEGMENT == 0:
                    now = time.perf_counter()
                    result.churn_per_s.append(CHURN_SEGMENT / (now - edge))
                    edge = now
            deadline = time.monotonic() + WAIT_S
            while True:
                stats = await self.sub.request({"type": "stats"})
                leaked = (stats["hub"]["attachments_live"]
                          - len(workload.queries)
                          + stats["server"]["clients_connected"] - 1)
                if leaked == 0 or time.monotonic() > deadline:
                    break
                await asyncio.sleep(0.005)
        result.fail(leaked, "attachments/clients leaked by churn")
        result.attempted += self.plan.churn_cycles

    async def crash_and_recover(self) -> None:
        """SIGKILL, then time ``exec`` → first ``hello`` ack of a new
        server over the same WAL directory; a durable workload then
        resumes every subscription from a mid-run cursor, pushes on and
        flushes, and the delivered stream must be the oracle's."""
        workload, plan, result = self.workload, self.plan, self.result
        n_queries = len(workload.queries)
        delivered = [len(got) for got in self.got_seqs]
        await self.sub.close()
        self.sub = None
        self.server.kill()
        with self.phase_span("recovery"):
            began = time.perf_counter()
            self.server = self.spawn()
            port = self.server.start()
            self.sub = await wire.Conn.open(port, workload.transport)
            await self.sub.hello("subscriber")
            result.recovery_s = time.perf_counter() - began
        if not workload.wal:
            return
        self.sub.on_frame = self.on_sub_frame
        middle = (plan.sat.start + plan.sat.stop) // 2
        for index in range(n_queries):
            cursor = self.oracle.before(index, middle)
            # the resumed stream restarts right after the mid-run cursor
            del self.got_seqs[index][cursor:]
            del self.got_ns[index][cursor:]
            ack = await self.sub.request(
                self.subscribe_frame(index, resume_from=cursor))
            if ack.get("cursor") != delivered[index]:
                result.fail(1, f"{workload.queries[index].name}: durable "
                               f"cursor {ack.get('cursor')} after restart,"
                               f" {delivered[index]} delivered before")
        self.received = sum(len(got) for got in self.got_seqs)
        await self.wait_for(lambda: self.received >= sum(delivered),
                            "resumed matches")
        self.push = await wire.Conn.open(port, workload.transport)
        await self.push.hello("pusher")
        self.push.on_frame = self.on_ack
        await self.closed_loop(plan.post, self.root)
        await self.push.request({"type": "flush"})
        await self.wait_for(lambda: self.finals >= n_queries,
                            "final watermarks")

    def account(self) -> None:
        """Sequential-oracle identity, per subscription, in order."""
        workload, plan, result = self.workload, self.plan, self.result
        pushed = plan.post.stop
        result.attempted += pushed
        for index, spec in enumerate(workload.queries):
            expected = self.oracle.seqs[index]
            if not workload.wal:
                expected = expected[:self.oracle.before(index, pushed)]
            result.attempted += len(expected)
            result.fail(measure.sequence_mismatches(
                self.got_seqs[index], expected),
                f"{spec.name}: delivered != sequential oracle")


def run_round(workload: Workload, plan: Plan, seed: int, scratch: Path,
              sut_cpu: Optional[int], tracer: Optional[Tracer],
              label: str) -> Round:
    return asyncio.run(ServeRound(workload, plan, seed, scratch, sut_cpu,
                                  tracer, label).run())
