"""The four workloads: seeded inputs, queries, push plans and the oracle.

Everything the system under test receives is built here from the
``--seed`` argument — feeds, arrival order, query texts — and handed
over as plain inputs; the seed itself never crosses to the program.

A *round* is one self-contained trial: fresh inputs (``round_seed``),
fresh oracle, fresh system under test.  A run is a few rounds, and
every timed metric is a median over the rounds' segments, so set-up is
paid — and measured — once per round.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.datasets import generate_nyse, leading_symbols
from repro.events.event import Event
from repro.patterns.parser import parse_query
from repro.queries.fig9 import q1_text
from repro.queries.q1 import make_q1
from repro.streaming.builder import pipeline

NOMINAL_SECONDS = 15.0   # --seconds the plan sizes below are written for
ROUNDS = 3               # rounds per run (set-up is the median of these)
WARM_CHUNKS = 8          # unmeasured chunks that fill caches and queues
POST_CHUNKS = 4          # pushed after crash recovery (durable workload)

N_TYPES = 12
TYPED_WINDOW = "WITHIN 60 events FROM every 20 events\n"

BAND_TEXT = """
PATTERN (A B+ C)
DEFINE
    A AS (A.change < dropLimit),
    B AS (B.change > riseFloor),
    C AS (C.closePrice >= bandLow AND C.closePrice <= bandHigh)
WITHIN 200 events FROM every 50 events
"""


# -- queries ------------------------------------------------------------------

@dataclass(frozen=True)
class QuerySpec:
    """One query as *input data*: picklable, buildable on either side.

    ``text``/``params`` is the MATCH-RECOGNIZE form every layer from the
    hub upwards accepts (and the only form that crosses the wire).
    ``q1`` — ``(q, window, n_leading)`` — marks the paper's hand-written
    Q1 detector: ``build()`` then returns ``make_q1(...)``, the UDF form
    SPECTRE was evaluated with, while ``text`` holds the same query in
    Fig. 9 notation for the layers that need source text."""

    name: str
    text: str
    params: Optional[dict] = None
    q1: Optional[tuple] = None

    def build(self, compile: Optional[bool] = None):
        if self.q1 is not None and compile is None:
            q, window, n_leading = self.q1
            return make_q1(q, window_size=window,
                           leading_symbols=leading_symbols(n_leading),
                           consume=True)
        kwargs = {} if compile is None else {"compile": compile}
        return parse_query(self.text, name=self.name, params=self.params,
                           **kwargs)


def typed_queries(count: int) -> tuple[QuerySpec, ...]:
    """``PATTERN (tI tJ+)`` over neighbouring types — the committed
    ``BENCH_server_load`` job (0.385 matches/event at 8 queries)."""
    return tuple(
        QuerySpec(f"q{index}",
                  f"PATTERN (t{index % N_TYPES} "
                  f"t{(index + 1) % N_TYPES}+)\n" + TYPED_WINDOW)
        for index in range(count))


def q1_text_queries(sizes, window: int) -> tuple[QuerySpec, ...]:
    """The paper's Q1 *with its consumption policy*, Fig. 9 text form."""
    return tuple(
        QuerySpec(f"q1x{q}", q1_text(q, window, leading_symbols(2)))
        for q in sizes)


def q1_udf_queries(sizes, window: int) -> tuple[QuerySpec, ...]:
    return tuple(
        QuerySpec(f"q1u{q}", q1_text(q, window, leading_symbols(2)),
                  q1=(q, window, 2))
        for q in sizes)


def band_queries(count: int) -> tuple[QuerySpec, ...]:
    """``bench_multi_query``'s *similar* family: one shared ``(A B+)``
    head, a closing price band that sweeps the range per tenant."""
    specs = []
    for index in range(count):
        low = 47.5 + 4.0 * index / max(1, count - 1)
        specs.append(QuerySpec(
            f"sim{index}", BAND_TEXT,
            params={"dropLimit": -0.21, "riseFloor": 0.0,
                    "bandLow": low, "bandHigh": low + 1.0}))
    return tuple(specs)


# -- feeds --------------------------------------------------------------------

def typed_feed(n_events: int, seed: int) -> list[Event]:
    """Uniform draw over 12 types, one float attribute (85 B/event on
    the wire)."""
    rng = random.Random(seed)
    return [Event(seq=index, etype=f"t{rng.randrange(N_TYPES)}",
                  timestamp=float(index), attributes={"v": rng.random()})
            for index in range(n_events)]


def nyse150_feed(n_events: int, seed: int) -> list[Event]:
    return generate_nyse(n_events, n_symbols=150, n_leading=2, seed=seed)


def nyse150_flat_feed(n_events: int, seed: int) -> list[Event]:
    """40 % flat quotes: lets Q1's ratio sweep reach low completion
    probabilities (the paper's 1-minute data has many)."""
    return generate_nyse(n_events, n_symbols=150, n_leading=2, seed=seed,
                         unchanged_probability=0.4)


def nyse100_displaced_feed(n_events: int, seed: int) -> list[Event]:
    return displace(
        generate_nyse(n_events, n_symbols=100, n_leading=2, seed=seed),
        seed)


def displace(events: list[Event], seed: int, *, near_share: float = 0.05,
             near_max: int = 20, far_share: float = 0.005,
             far: int = 200) -> list[Event]:
    """Arrival order with bounded displacement: ``near_share`` of the
    events arrive up to ``near_max`` positions late (inside a slack of
    50 time units on the NYSE-100 clock), ``far_share`` arrive ``far``
    positions late — behind the slack horizon, so the sorter drops and
    counts them."""
    rng = random.Random(seed)
    keys = []
    for index in range(len(events)):
        draw = rng.random()
        if draw < far_share:
            keys.append((index + far, 1, index))
        elif draw < far_share + near_share:
            keys.append((index + rng.randint(1, near_max), 1, index))
        else:
            keys.append((index, 0, index))
    return [events[key[2]] for key in sorted(keys)]


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                    # "serve" | "hub" | "spectre"
    queries: tuple[QuerySpec, ...]
    chunk: int                   # events per push_many (saturation)
    open_chunk: int              # events per push_many (open loop)
    open_rate: float             # open-loop events per second
    slack: Optional[float] = None
    transport: str = "tcp"       # serve: "tcp" | "ws"
    wal: bool = False            # serve: --wal + durable subscriptions
    checkpoint_every: int = 0
    # nominal sizes (at NOMINAL_SECONDS; scaled by --seconds)
    sat_chunks: int = 0          # serve: saturation chunks per round
    sat_passes: int = 0          # in-process: saturation passes per round
    open_seconds: float = 0.0    # open-loop time per round
    feed_events: int = 0         # in-process: events per pass
    leg_rates: tuple = ()        # in-process: open-loop ev/s per leg, when
    #                              the legs differ (default: open_rate)
    churn_cycles: int = 0
    ladder_events: int = 0       # feed prefix the per-layer ladder uses
    baseline_events: int = 0     # ... and the end-to-end run's baselines
    feed: Callable[[int, int], list[Event]] = typed_feed
    """``feed(n_events, seed)``: the round's events in arrival order."""

    @property
    def jobs(self) -> int:
        """Stream passes one unit of the workload's work stands for: the
        speculative workload runs each operating point over the whole
        feed, the others serve all their queries in one pass."""
        return len(self.queries) if self.kind == "spectre" else 1

    @property
    def open_rates(self) -> tuple:
        """Open-loop events per second, one per leg."""
        return self.leg_rates or (self.open_rate,) * self.jobs


WORKLOADS = {w.name: w for w in (
    Workload(
        name="serve_tcp_fanout",
        why="match-dense NDJSON/TCP fan-out (0.385 matches/event, 8 "
            "subscriptions): the only workload where the per-match "
            "output path shows",
        kind="serve", transport="tcp", queries=typed_queries(8),
        feed=typed_feed,
        chunk=256, open_chunk=64, open_rate=8000.0,
        sat_chunks=160, open_seconds=2.5, churn_cycles=800,
        ladder_events=12_288, baseline_events=8_192),
    Workload(
        name="serve_ws_durable",
        why="WebSocket + WAL + durable subscriptions on cheap Q1 "
            "matching: decode, WS framing and WAL append dominate; "
            "SIGKILL, recover, resume by cursor",
        kind="serve", transport="ws", wal=True, checkpoint_every=64_000,
        queries=q1_text_queries((4, 6, 8), 120), feed=nyse150_feed,
        chunk=256, open_chunk=64, open_rate=12000.0,
        sat_chunks=240, open_seconds=2.5, churn_cycles=600,
        ladder_events=12_288, baseline_events=8_192),
    Workload(
        name="hub_shared_ooo",
        why="in-process StreamHub, 64 prefix-sharing queries, "
            "out-of-order arrival with a late tail: optimizer, sorter "
            "and fan-out do all the work, server and WAL none",
        kind="hub", slack=50.0, queries=band_queries(64),
        feed=nyse100_displaced_feed,
        # a feed's cost hangs on its ~2 % of A events, so it differs by
        # ~9 % from one 12k-event feed to the next (12 % at 6k events)
        chunk=256, open_chunk=256, open_rate=8000.0,
        feed_events=12_288, sat_passes=3, open_seconds=4.6,
        churn_cycles=6000, ladder_events=2_048, baseline_events=1_024),
    Workload(
        name="spectre_consumption",
        why="the paper's job: Q1 with consumption on the speculative "
            "engine at completion probability ~1.0 (q=8) and ~0.75 "
            "(q=110); hub and server do nothing",
        kind="spectre", queries=q1_udf_queries((8, 110), 400),
        feed=nyse150_flat_feed,
        chunk=256, open_chunk=256, open_rate=10000.0,
        # a third of each point's saturation rate (~95k and ~30k ev/s)
        leg_rates=(30000.0, 10000.0),
        # three open-loop passes a round: the speculative engine's call
        # times swing with the machine, and only repeats show that
        feed_events=16_384, sat_passes=2, open_seconds=6.6,
        churn_cycles=3000, ladder_events=6_144, baseline_events=16_384),
)}


def sequential_pipeline(workload: Workload, spec: QuerySpec,
                        compile: Optional[bool] = None):
    """``pipeline(q).engine("sequential")`` for one query of the
    workload, behind the workload's slack sorter if it has one — the
    oracle's session and the ladder's first rungs."""
    builder = pipeline(spec.build(compile)).engine("sequential")
    if workload.slack is not None:
        builder = builder.out_of_order(workload.slack)
    return builder


# -- plans --------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """What one round pushes, as chunk index ranges over the feed."""

    n_events: int
    chunks: tuple[tuple[int, int], ...]   # (start, end) event slices
    warm: range
    sat: range
    open: range
    post: range
    passes_sat: int = 0                   # in-process only
    passes_open: int = 0
    churn_cycles: int = 0


def _scaled(value: float, scale: float, floor: int = 1) -> int:
    return max(floor, round(value * scale))


def make_plan(workload: Workload, seconds: float) -> Plan:
    scale = seconds / NOMINAL_SECONDS
    churn = _scaled(workload.churn_cycles, scale, 20)
    if workload.kind == "serve":
        sat = _scaled(workload.sat_chunks / 20, scale) * 20
        n_open = _scaled(workload.open_rate * workload.open_seconds
                         / workload.open_chunk, scale, 50)
        post = POST_CHUNKS if workload.wal else 0
        sizes = ([workload.chunk] * (WARM_CHUNKS + sat)
                 + [workload.open_chunk] * n_open
                 + [workload.chunk] * post)
        chunks, position = [], 0
        for size in sizes:
            chunks.append((position, position + size))
            position += size
        warm = range(0, WARM_CHUNKS)
        sat_range = range(WARM_CHUNKS, WARM_CHUNKS + sat)
        open_range = range(sat_range.stop, sat_range.stop + n_open)
        return Plan(position, tuple(chunks), warm, sat_range, open_range,
                    range(open_range.stop, open_range.stop + post),
                    churn_cycles=churn)
    n_events = workload.feed_events
    chunks = tuple((start, min(start + workload.chunk, n_events))
                   for start in range(0, n_events, workload.chunk))
    pass_seconds = sum(n_events / rate for rate in workload.open_rates)
    everything = range(0, len(chunks))
    return Plan(n_events, chunks, range(0), everything, everything,
                range(0),
                passes_sat=_scaled(workload.sat_passes, scale, 2),
                passes_open=_scaled(workload.open_seconds / pass_seconds,
                                    scale),
                churn_cycles=churn)


def round_seed(seed: int, round_index: int) -> int:
    return (seed * 1_000_003 + round_index * 7919 + 11) % (2 ** 31)


# -- the oracle ---------------------------------------------------------------

# trigger "chunk" of the matches only the end-of-stream flush emits:
# after every real chunk, so a query's triggers stay sorted
FLUSH = sys.maxsize


@dataclass
class Oracle:
    """Per query, in emission order: the expected matches' constituent
    seqs and each one's *trigger chunk* — the chunk whose push makes an
    alone-run sequential session emit it."""

    seqs: list[list[tuple]] = field(default_factory=list)
    triggers: list[list[int]] = field(default_factory=list)

    def before(self, query: int, chunk_stop: int) -> int:
        """How many of ``query``'s matches trigger in chunks
        ``< chunk_stop``."""
        return bisect_left(self.triggers[query], chunk_stop)


def build_oracle(workload: Workload, events: list[Event],
                 chunks) -> Oracle:
    """Each query alone on a sequential session, pushed in the run's own
    chunking — the reference every workload's output is checked against
    (for out-of-order arrival: behind its own slack sorter)."""
    oracle = Oracle()
    for spec in workload.queries:
        session = sequential_pipeline(workload, spec).open()
        seqs, triggers = [], []
        for index, (start, end) in enumerate(chunks):
            for match in session.push_many(events[start:end]):
                seqs.append(match.constituent_seqs)
                triggers.append(index)
        for match in session.flush():
            seqs.append(match.constituent_seqs)
            triggers.append(FLUSH)
        session.close()
        oracle.seqs.append(seqs)
        oracle.triggers.append(triggers)
    return oracle
