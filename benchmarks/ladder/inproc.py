"""Driver for the in-process workloads (``hub_shared_ooo``,
``spectre_consumption``).

The system under test — a ``StreamHub`` serving 64 queries, or the
speculative engine behind ``pipeline()`` — runs in a fresh *child*
process per round (this file run as a script by ``subprocess``), pinned
to its own CPU, so ``peak_rss_mb`` is the SUT's and not the oracle's,
and so a restart of the embedding process can be timed the way a server
restart is.  The parent generates the inputs and the oracle, ships the
inputs over a socket pair, and judges what comes back; the child never
sees the seed.  (Not ``multiprocessing.Process``: its spawn context
starts a resource-tracker process that outlives the run.)

The same feed is pushed repeatedly, each pass into a freshly built
system: saturation passes as fast as the calls return, open-loop
passes with every chunk held until its due time.
"""

from __future__ import annotations

import hashlib
import os
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Optional

import measure
from measure import NS, Round
from spans import ROOT, Tracer
from workloads import FLUSH, Plan, Workload, build_oracle

from repro.hub import StreamHub
from repro.streaming.builder import pipeline

SRC = Path(__file__).resolve().parents[2] / "src"
CHURN_SEGMENTS = 8       # churn_cycles_per_s samples per round
READY_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 150.0


def digest(seq_rows) -> str:
    """Order-sensitive fingerprint of one query's match stream."""
    return hashlib.blake2b(repr(list(seq_rows)).encode(),
                           digest_size=12).hexdigest()


# -- the systems under test (child side) --------------------------------------

class HubSut:
    """``StreamHub(slack, share=True)`` with every query attached; one
    leg per pass."""

    def __init__(self, specs, slack) -> None:
        self.slack = slack
        self.queries = [spec.build() for spec in specs]
        self.names = [spec.name for spec in specs]
        self.attach_ms: list[float] = []

    @staticmethod
    def leg_queries(n_queries: int):
        return [list(range(n_queries))]

    def legs(self):
        return self.leg_queries(len(self.queries))

    def open(self, leg, sinks):
        hub = StreamHub(slack=self.slack, share=True)
        for index in leg:
            before = time.perf_counter()
            hub.attach(self.queries[index], engine="sequential",
                       name=self.names[index], sink=sinks[index])
            self.attach_ms.append((time.perf_counter() - before) * 1e3)
        return hub

    def batch(self, leg, events, chunks, sinks, tracer, label):
        """One pass → (ms per ``push_many``, ms of attach-all and of the
        closing flush)."""
        clock = time.perf_counter_ns
        opened = clock()
        hub = self.open(leg, sinks)
        call_ns = []
        edges = [clock() - opened]
        for index, (start, end) in enumerate(chunks):
            before = clock()
            hub.push_many(events[start:end])
            after = clock()
            call_ns.append(after - before)
            if tracer is not None:
                tracer.add("sut.push_many", before, after, ROOT,
                           f"{label}/c{index}")
        closing = clock()
        hub.close()
        edges.append(clock() - closing)
        return [ns / 1e6 for ns in call_ns], [ns / 1e6 for ns in edges]

    def churn(self, events, chunks, cycles: int):
        """attach → detach of one more query on the live, loaded hub."""
        hub = self.open(self.legs()[0], [_ignore] * len(self.queries))
        for start, end in chunks[:len(chunks) // 2]:
            hub.push_many(events[start:end])
        extra = self.queries[0]
        rates = churn_rates(cycles, lambda: hub.attach(
            extra, engine="sequential", name="churn",
            sink=_ignore).detach())
        leaked = len(hub.attachments) - len(self.queries)
        hub.close()
        return rates, leaked


class SpectreSut:
    """``pipeline(q).engine("spectre", k=8)``, one leg per operating
    point; saturation is the batch ``run(events)``, the open loop a
    live session."""

    K = 8

    def __init__(self, specs, slack) -> None:
        self.specs = specs
        self.attach_ms: list[float] = []

    @staticmethod
    def leg_queries(n_queries: int):
        return [[index] for index in range(n_queries)]

    def legs(self):
        return self.leg_queries(len(self.specs))

    def builder(self, index):
        return pipeline(self.specs[index].build()) \
            .engine("spectre", k=self.K)

    def open(self, leg, sinks):
        (index,) = leg
        before = time.perf_counter()
        session = self.builder(index).sink(sinks[index]).open()
        self.attach_ms.append((time.perf_counter() - before) * 1e3)
        return session

    def batch(self, leg, events, chunks, sinks, tracer, label):
        (index,) = leg
        before = time.perf_counter_ns()
        result = self.builder(index).run(events)
        after = time.perf_counter_ns()
        if tracer is not None:
            tracer.add("sut.run", before, after, ROOT, f"{label}/q{index}")
        for match in result.complex_events:
            sinks[index](match)
        return [(after - before) / 1e6], []

    def churn(self, events, chunks, cycles: int):
        """open → close of one more session (no events pushed)."""
        return churn_rates(
            cycles, lambda: self.builder(0).open().close()), 0


def _ignore(match) -> None:
    return None


def churn_rates(cycles: int, cycle) -> list[float]:
    """Cycles per second, one sample per segment."""
    per_segment = max(1, cycles // CHURN_SEGMENTS)
    rates = []
    for _segment in range(CHURN_SEGMENTS):
        before = time.perf_counter()
        for _cycle in range(per_segment):
            cycle()
        rates.append(per_segment / (time.perf_counter() - before))
    return rates


SUTS = {"hub": HubSut, "spectre": SpectreSut}


def saturation_pass(sut, events, chunks, tracer: Optional[Tracer],
                    label: str) -> dict:
    """Every leg once, as fast as the calls return."""
    n_queries = sum(len(leg) for leg in sut.legs())
    rows = [[] for _ in range(n_queries)]
    sinks = [row.append for row in rows]
    seconds, call_ms, edge_ms = 0.0, [], []
    for leg in sut.legs():
        before = time.perf_counter()
        calls, edges = sut.batch(leg, events, chunks, sinks, tracer, label)
        seconds += time.perf_counter() - before
        call_ms.extend(calls)
        edge_ms.extend(edges)
    return {"seconds": seconds, "call_ms": call_ms, "edge_ms": edge_ms,
            "events": len(events) * len(sut.legs()),
            "counts": [len(row) for row in rows],
            "digests": [digest(m.constituent_seqs for m in row)
                        for row in rows]}


def open_pass(sut, events, chunks, rates, chunk: int,
              tracer: Optional[Tracer], label: str) -> dict:
    """Every leg once on its fixed-rate schedule: chunk ``i`` is due at
    ``origin + i * chunk / rate`` and pushed at or after that; each
    match is stamped in its sink."""
    n_queries = sum(len(leg) for leg in sut.legs())
    rows = [[] for _ in range(n_queries)]
    stamps = [[] for _ in range(n_queries)]
    clock = time.perf_counter_ns

    def make_sink(index):
        row, stamp = rows[index].append, stamps[index].append

        def sink(match):
            row(match)
            stamp(clock())
        return sink

    sinks = [make_sink(index) for index in range(n_queries)]
    due_by_query, span_by_query, late_ms, backlog_max = {}, {}, [], 0
    for leg, rate in zip(sut.legs(), rates):
        interval_ns = round(chunk * NS / rate)
        live = sut.open(leg, sinks)
        origin = clock() + 5_000_000
        due = [origin + i * interval_ns for i in range(len(chunks))]
        span_ids = []
        for index, (start, end) in enumerate(chunks):
            delay = due[index] - clock()
            if delay > 0:
                time.sleep(delay / NS)
            began = clock()
            if delay > 0:
                # the caller is synchronous: when the previous push was
                # still running at the due time that is the system's
                # backlog, not the generator's lateness
                late_ms.append((began - due[index]) / 1e6)
            backlog_max = max(backlog_max,
                              (began - due[index]) // interval_ns)
            live.push_many(events[start:end])
            if tracer is not None:
                span_ids.append(tracer.add(
                    "sut.push_many", due[index], clock(), ROOT,
                    f"{label}/c{index}"))
        live.close()
        for query in leg:
            due_by_query[query] = due
            span_by_query[query] = span_ids
    return {"due": [due_by_query[q] for q in range(n_queries)],
            "push_span": [span_by_query[q] for q in range(n_queries)],
            "stamps": stamps, "late_ms": late_ms,
            "backlog_max": backlog_max,
            "counts": [len(row) for row in rows],
            "digests": [digest(m.constituent_seqs for m in row)
                        for row in rows]}


def child_main(conn: Connection) -> None:
    """The child process: build the SUT, say ``ready``, then run the
    work the parent sends (``None`` = just exit: that was a restart
    probe)."""
    job = conn.recv()
    sut = SUTS[job["kind"]](job["queries"], job["slack"])
    conn.send("ready")
    work = conn.recv()
    if work is None:
        return
    events, chunks = work["events"], work["chunks"]
    tracer = Tracer() if work["traced"] else None
    pid = os.getpid()
    label = work["label"]
    conn.send(saturation_pass(sut, events, chunks, None, label))
    rss_warm = measure.proc_status_mb(pid, "VmRSS")
    cpu_before = time.process_time()
    saturation = [saturation_pass(sut, events, chunks, tracer,
                                  f"{label}/s{index}")
                  for index in range(work["passes_sat"])]
    cpu_seconds = time.process_time() - cpu_before
    opens = [open_pass(sut, events, chunks, work["open_rates"],
                       work["open_chunk"], tracer, f"{label}/o{index}")
             for index in range(work["passes_open"])]
    churn, leaked = sut.churn(events, chunks, work["churn_cycles"])
    conn.send({
        "saturation": saturation, "open": opens, "churn_per_s": churn,
        "leaked": leaked, "cpu_seconds": cpu_seconds,
        "attach_ms": sut.attach_ms,
        "peak_rss_mb": measure.proc_status_mb(pid, "VmHWM"),
        "rss_growth_mb": measure.proc_status_mb(pid, "VmRSS") - rss_warm,
        "spans": None if tracer is None else tracer.to_dict()["spans"],
    })


# -- the round (parent side) --------------------------------------------------

class Child:
    """One SUT process (``python3 inproc.py <fd>``) and its pipe."""

    def __init__(self, workload: Workload, cpu: Optional[int]) -> None:
        ours, theirs = socket.socketpair()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), env=env)
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        measure.pin_to_cpu(self.proc.pid, cpu)
        self.conn = Connection(ours.detach())
        try:
            self.conn.send({"kind": workload.kind, "slack": workload.slack,
                            "queries": workload.queries})
            self.recv(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def recv(self, timeout: float):
        if not self.conn.poll(timeout):
            raise RuntimeError("the SUT child did not answer in time")
        return self.conn.recv()

    def stop(self, patience: float = 0.0) -> None:
        """Let the child ``patience`` seconds to exit by itself, then
        SIGKILL; reap it either way (idempotent)."""
        try:
            self.proc.wait(patience)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.conn.close()


def check_pass(result: Round, report: dict, oracle, what: str) -> None:
    """Sequential-oracle identity of one pass, per query, in order."""
    for index, rows in enumerate(oracle.seqs):
        expected, n_expected = digest(rows), len(rows)
        result.attempted += n_expected
        if report["digests"][index] != expected:
            result.fail(max(1, n_expected),
                        f"{what}: query {index} delivered "
                        f"{report['counts'][index]} matches != sequential "
                        f"oracle's {n_expected}")


def run_round(workload: Workload, plan: Plan, seed: int, scratch: Path,
              sut_cpu: Optional[int], tracer: Optional[Tracer],
              label: str) -> Round:
    result = Round()
    layer = result.layer
    started = time.perf_counter()
    events = workload.feed(plan.n_events, seed)
    oracle = build_oracle(workload, events, plan.chunks)
    boot = time.perf_counter()
    child = Child(workload, sut_cpu)
    try:
        layer["durability.cold_boot_s"] = time.perf_counter() - boot
        own_before = time.process_time()
        child.conn.send({
            "events": events, "chunks": plan.chunks,
            "passes_sat": plan.passes_sat, "passes_open": plan.passes_open,
            "open_rates": workload.open_rates,
            "open_chunk": workload.open_chunk,
            "churn_cycles": plan.churn_cycles,
            "traced": tracer is not None, "label": label})
        check_pass(result, child.recv(RESULT_TIMEOUT_S), oracle,
                   "warm-up pass")
        result.setup_s = time.perf_counter() - started
        report = child.recv(RESULT_TIMEOUT_S)
        own_cpu = time.process_time() - own_before
    finally:
        child.stop()

    # the embedding process died; time its restart to "ready"
    began = time.perf_counter()
    restart = Child(workload, sut_cpu)
    try:
        result.recovery_s = time.perf_counter() - began
        restart.conn.send(None)
    finally:
        restart.stop(READY_TIMEOUT_S)

    call_ms = []
    for index, leg in enumerate(report["saturation"]):
        check_pass(result, leg, oracle, f"saturation pass {index}")
        call_ms.extend(leg["call_ms"])
    # every pass makes the same calls on the same inputs, so the passes
    # differ only by what the machine did meanwhile: each call counts
    # with its fastest pass
    timed_ms = sum(map(min, zip(*(leg["call_ms"] + leg["edge_ms"]
                                  for leg in report["saturation"]))))
    result.events_per_s.append(
        report["saturation"][0]["events"] * 1e3 / timed_ms)
    n_sat_events = sum(leg["events"] for leg in report["saturation"])
    matches = sum(sum(leg["counts"]) for leg in report["saturation"])
    seconds = sum(leg["seconds"] for leg in report["saturation"])
    late_ms, slices = [], []
    for index, leg in enumerate(report["open"]):
        check_pass(result, leg, oracle, f"open-loop pass {index}")
        late_ms.extend(leg["late_ms"])
        # sink stamp - due time of the oracle's trigger chunk: per pass
        # one list per query, in the oracle's order
        slices.append((
            [[(stamp - leg["due"][query][trigger]) / 1e6
              for trigger, stamp in zip(oracle.triggers[query], stamps)
              if trigger != FLUSH]
             for query, stamps in enumerate(leg["stamps"])],
            leg["late_ms"]))
    kept, voided = measure.punctual(slices)
    result.valid = voided * 2 <= len(slices)
    if kept:
        # likewise each match counts with its promptest punctual pass;
        # the legs run at different rates and their shares of the
        # matches move with the inputs, so a percentile is taken per leg
        # and the legs are averaged
        best = [list(map(min, zip(*passes))) for passes in zip(*kept)]
        legs = [[ms for query in leg for ms in best[query]]
                for leg in SUTS[workload.kind].leg_queries(len(best))]
        for fraction, samples in ((0.50, result.delivery_p50_ms),
                                  (0.90, result.delivery_p90_ms)):
            samples.append(statistics.fmean(
                measure.percentile(values, fraction)
                for values in legs if values))
    passes = 1 + plan.passes_sat + plan.passes_open
    result.attempted += len(plan.chunks) * passes + plan.churn_cycles
    result.fail(report["leaked"], "attachments leaked by churn")
    result.churn_per_s = report["churn_per_s"]
    result.peak_rss_mb = report["peak_rss_mb"]

    layer["bench.generator_late_p99_ms"] = \
        measure.percentile(late_ms or [0.0], 0.99)
    # the caller's side of an in-process workload: shipping the inputs
    # to the SUT's process and collecting what it reports
    layer["bench.generator_cpu_us_per_event"] = own_cpu * 1e6 / (
        workload.jobs * plan.n_events * passes)
    layer["server.cpu_us_per_event"] = \
        report["cpu_seconds"] * 1e6 / n_sat_events
    layer["server.match_frames_per_s"] = matches / seconds
    layer["server.ack_p50_ms"] = measure.percentile(call_ms, 0.50)
    layer["server.ack_p99_ms"] = measure.percentile(call_ms, 0.99)
    layer["server.delivery_p99_ms"] = measure.percentile(
        [ms for queries, _late in slices for values in queries
         for ms in values], 0.99)
    layer["server.open_backlog_max_chunks"] = max(
        leg["backlog_max"] for leg in report["open"])
    layer["server.subscribe_ms_p50"] = measure.median(report["attach_ms"])
    layer["server.rss_growth_mb"] = report["rss_growth_mb"]
    if tracer is not None:
        root = tracer.add("round", round(started * NS),
                          time.perf_counter_ns(), ROOT, label)
        offset = len(tracer)
        tracer.extend(Tracer.from_dict({"spans": report["spans"]}), root)
        # one span per match: due time of its trigger chunk → sink stamp,
        # child of that chunk's push_many span
        for index, leg in enumerate(report["open"]):
            for query, stamps in enumerate(leg["stamps"]):
                for trigger, stamp in zip(oracle.triggers[query], stamps):
                    if trigger != FLUSH:
                        tracer.add("sut.match", leg["due"][query][trigger],
                                   stamp,
                                   offset + leg["push_span"][query][trigger],
                                   f"{label}/o{index}/c{trigger}")
    return result


if __name__ == "__main__":
    child_main(Connection(int(sys.argv[1])))
