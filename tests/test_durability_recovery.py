"""Crash-recovery parity: a DurableHub that dies mid-stream and is
recovered over the same WAL directory must deliver exactly the matches
of an uninterrupted run — none lost, none duplicated — across engines,
sharing settings, checkpoint cadences, and randomized crash points.

The in-process "crash" is ``hub.abort()`` with *no* checkpoint and no
graceful close: everything the recovered instance knows comes from the
WAL segments and whatever snapshot the checkpoint cadence happened to
leave behind (``python -m pytest tests/test_durability_crash.py``
repeats this with a real SIGKILL)."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SpectreConfig
from repro.datasets import generate_nyse
from repro.datasets.nyse import leading_symbols
from repro.durability import DurableHub
from repro.durability.journal import attach_from_record
from repro.durability.wal import (
    WalWriter,
    read_snapshot,
    segment_path,
    snapshot_path,
)
from repro.events.event import Event
from repro.events.wire import pack_event
from repro.hub import StreamHub
from repro.patterns.parser import parse_query
from repro.queries.fig9 import q1_text
from repro.streaming import Session
from repro.windows import Splitter

BAND_TEXT = """PATTERN (A B)
DEFINE
    A AS (A.closePrice > lowerLimit AND A.closePrice < upperLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit)
WITHIN 40 events FROM every 20 events"""

BAND_CONSUME_TEXT = BAND_TEXT + "\nCONSUME (A B)"

WIDE_TEXT = """PATTERN (A B)
DEFINE
    A AS (A.closePrice > lowerLimit AND A.closePrice < upperLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit)
WITHIN 60 events FROM every 20 events"""

PARAMS = {"lowerLimit": 49.95, "upperLimit": 50.3}

EVENTS = generate_nyse(900, n_symbols=12, n_leading=8, seed=23)


def band_query(name="band", text=BAND_TEXT):
    return parse_query(text, name=name, params=PARAMS)


def reference_matches(queries, *, engine="sequential", share=None):
    """Uninterrupted run → {name: [identity]}."""
    sinks = {name: [] for name, _query in queries}
    hub = StreamHub(share=share)
    for name, query in queries:
        hub.attach(query, engine=engine, name=name,
                   sink=lambda ce, _n=name: sinks[_n].append(ce.identity()))
    hub.push_many(EVENTS)
    hub.close()
    return sinks


def crash_and_recover(tmp_path, queries, crash_at, *,
                      engine="sequential", share=None,
                      checkpoint_every=150, tear_tail_bytes=0):
    """Push ``crash_at`` events, die, recover, push the rest.

    Returns ``(delivered, report)`` where ``delivered`` maps each
    attachment to the identity sequence a subscriber saw across both
    incarnations."""
    delivered = {name: [] for name, _query in queries}

    def sink_for(name):
        return lambda ce: delivered[name].append(ce.identity())

    first = DurableHub(tmp_path, checkpoint_every=checkpoint_every,
                       fsync="never", share=share)
    for name, query in queries:
        first.attach(query, engine=engine, name=name, sink=sink_for(name))
    for event in EVENTS[:crash_at]:
        first.push(event)
    first.hub.abort()  # crash: no flush record, no final checkpoint

    if tear_tail_bytes:
        segments = sorted(tmp_path.glob("wal-*.log"))
        with segments[-1].open("r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(max(10, handle.tell() - tear_tail_bytes))

    second = DurableHub(
        tmp_path, checkpoint_every=checkpoint_every, fsync="never",
        share=share,
        sink_provider=lambda record: sink_for(record["name"]))
    report = second.recovery_report
    assert report.recovered
    # resume from however far the durable log actually got (a torn
    # tail legitimately loses un-synced suffix appends)
    for event in EVENTS[second.hub.events_pushed:]:
        second.push(event)
    second.close()
    return delivered, report


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(crash_at=st.integers(min_value=1, max_value=len(EVENTS) - 1),
       engine=st.sampled_from(["sequential", "spectre"]))
def test_recovery_parity_randomized(tmp_path, crash_at, engine):
    directory = tmp_path / f"wal-{crash_at}-{engine}"
    queries = [("band", band_query())]
    reference = reference_matches(queries, engine=engine)
    delivered, report = crash_and_recover(directory, queries, crash_at,
                                          engine=engine)
    assert delivered["band"] == reference["band"]
    assert report.residual_debt == 0


@pytest.mark.parametrize("crash_at", [1, 149, 150, 151, 899])
def test_recovery_parity_checkpoint_boundaries(tmp_path, crash_at):
    """Crash right around the checkpoint cadence (before, at, after)."""
    queries = [("band", band_query())]
    reference = reference_matches(queries)
    delivered, _report = crash_and_recover(tmp_path, queries, crash_at)
    assert delivered["band"] == reference["band"]


@pytest.mark.parametrize("share", [True, False])
def test_recovery_parity_multi_query_sharing(tmp_path, share):
    """Two band queries (one shares the other's prefix) under both
    optimizer settings, on the speculative engine."""
    queries = [("band", band_query("band")),
               ("wide", band_query("wide", WIDE_TEXT))]
    reference = reference_matches(queries, engine="spectre", share=share)
    delivered, _report = crash_and_recover(tmp_path, queries, 457,
                                           engine="spectre", share=share)
    for name in ("band", "wide"):
        assert delivered[name] == reference[name], name


def test_recovery_parity_consumption_ledger(tmp_path):
    """A CONSUME query's ledger survives recovery: consumed events must
    not be reused by post-recovery windows."""
    queries = [("consume", band_query("consume", BAND_CONSUME_TEXT))]
    reference = reference_matches(queries)
    delivered, _report = crash_and_recover(tmp_path, queries, 433)
    assert delivered["consume"] == reference["consume"]


def test_recovery_tolerates_torn_tail(tmp_path):
    """Truncating the live segment mid-frame (a torn write) loses only
    the torn suffix; re-pushing from the recovered position restores
    full parity with no duplicates."""
    queries = [("band", band_query())]
    reference = reference_matches(queries)
    delivered, report = crash_and_recover(tmp_path, queries, 620,
                                          tear_tail_bytes=13)
    assert delivered["band"] == reference["band"]
    assert report.recovered
    stats = report.to_dict()
    assert stats["replayed_events"] > 0
    assert stats["replay_seconds"] > 0
    assert stats["replay_events_per_s"] > 0


def test_repeated_crashes_converge(tmp_path):
    """Crash → recover → crash → recover ... still exactly-once (each
    recovery checkpoint prevents re-replaying the same tail)."""
    query = band_query()
    reference = reference_matches([("band", query)])["band"]
    delivered = []
    sink = delivered.append

    hub = DurableHub(tmp_path, checkpoint_every=150, fsync="never")
    hub.attach(query, engine="sequential", name="band",
               sink=lambda ce: sink(ce.identity()))
    position = 0
    for stop in (230, 231, 510, 880):
        for event in EVENTS[position:stop]:
            hub.push(event)
        position = stop
        hub.hub.abort()
        hub = DurableHub(
            tmp_path, checkpoint_every=150, fsync="never",
            sink_provider=lambda record: (
                lambda ce: sink(ce.identity())))
        position = hub.hub.events_pushed
    for event in EVENTS[position:]:
        hub.push(event)
    hub.close()
    assert delivered == reference


def test_exactly_once_is_multiset_exact(tmp_path):
    """No duplicates even when distinct windows emit identical
    identity tuples — the dedup ledger is a multiset, not a set."""
    queries = [("band", band_query())]
    reference = reference_matches(queries)["band"]
    delivered, _report = crash_and_recover(tmp_path, queries, 300)
    assert Counter(map(tuple, map(repr, delivered["band"]))) == \
        Counter(map(tuple, map(repr, reference)))


def test_flushed_run_recovers_terminal(tmp_path):
    """A gracefully flushed + closed run reopens as a terminal hub:
    state intact, cursors readable, further pushes refused."""
    query = band_query()
    first = DurableHub(tmp_path, checkpoint_every=150, fsync="never")
    first.attach(query, engine="sequential", name="band")
    first.push_many(EVENTS[:400])
    first.close()

    second = DurableHub(tmp_path, fsync="never")
    assert second.recovery_report.recovered
    assert second.hub.is_flushed
    emits = list(second.manager.read_emits("band"))
    assert emits and emits[-1][0] == second.manager.cursor("band")
    with pytest.raises(Exception):
        second.push(EVENTS[400])
    second.manager.close(checkpoint=False)


def test_cursors_are_contiguous_across_recovery(tmp_path):
    queries = [("band", band_query())]
    crash_and_recover(tmp_path, queries, 365)
    reopened = DurableHub(tmp_path, fsync="never")
    cursors = [cursor for cursor, _wire in
               reopened.manager.read_emits("band")]
    assert cursors == list(range(1, len(cursors) + 1))
    reopened.manager.close(checkpoint=False)


# -- pre-crash consumption on the batched replay path -----------------------

CONSUME_TIME_TEXT = ("PATTERN (tA tB)\n"
                     "WITHIN 8 seconds FROM tA\n"
                     "CONSUME (tA tB)\n")


def _typed_events(count=200, seed=3):
    rng = random.Random(seed)
    return [Event(seq=index, etype=rng.choice(["tA", "tB", "tB", "tX"]),
                  timestamp=float(index), attributes={})
            for index in range(count)]


@pytest.mark.parametrize("share", [True, False])
def test_replay_drops_precrash_consumed_events(tmp_path, share):
    """A consuming query checkpointed while windows overlap the cut: the
    snapshot carries the seqs its ledger already spent, and the batched
    replay must drop them (uncounted) before the session sees the
    suffix — or an open window re-binds an event a closed one consumed.
    ``share=True`` makes the attachment type-routed (time scope, typed
    start), ``share=False`` leaves it on the offer-all path."""
    events = _typed_events()
    checkpoint_at, crash_at = 76, 106

    reference = []
    plain = StreamHub(share=share)
    plain.attach(parse_query(CONSUME_TIME_TEXT, name="c"),
                 engine="sequential", name="c",
                 sink=lambda ce: reference.append(ce.identity()))
    plain.push_many(events)
    plain.close()

    delivered = []
    sink = lambda ce: delivered.append(ce.identity())  # noqa: E731
    first = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never",
                       share=share)
    first.attach(parse_query(CONSUME_TIME_TEXT, name="c"),
                 engine="sequential", name="c", sink=sink)
    first.push_many(events[:checkpoint_at])
    segment = first.checkpoint()
    first.push_many(events[checkpoint_at:crash_at])
    first.hub.abort()

    body = read_snapshot(snapshot_path(tmp_path, segment))
    consumed = body["attachments"][0]["consumed"]
    suffix = body["suffix"]["events"]
    assert consumed, "scenario must checkpoint with spent events in reach"

    second = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never",
                        sink_provider=lambda record: sink)
    attachment, = second.attachments
    second.push_many(events[crash_at:])
    second.close()

    assert delivered == reference
    routed = attachment._routed_types
    if share and attachment.query.plan.compiled:
        assert routed is not None
    assert attachment.events_delivered == \
        len(suffix) - len(consumed) + sum(
            1 for event in events[checkpoint_at:]
            if routed is None or event.etype in routed)


def test_routed_window_open_at_checkpoint_closes_on_foreign_event(tmp_path):
    """``recovered ≡ uncrashed``, push by push, for a type-routed time
    window that is open at the checkpoint and is closed after recovery
    by an event of a type the attachment is not routed: the match
    surfaces on the push of that event, in both runs."""
    text = "PATTERN (tA tB+)\nWITHIN 3 seconds FROM tA\n"
    events = [Event(seq=index, etype=etype, timestamp=float(index),
                    attributes={})
              for index, etype in enumerate(
                  ["tX", "tA", "tB", "tX", "tX", "tX", "tX", "tA", "tB"])]
    checkpoint_at, crash_at, closing = 3, 4, 5

    reference = []
    plain = StreamHub(share=True)
    plain.attach(parse_query(text, name="r"), engine="sequential",
                 name="r", sink=lambda ce: reference.append(ce.identity()))
    uncrashed = [plain.push(event) for event in events]
    assert uncrashed[closing] == 1 and sum(uncrashed[:closing]) == 0

    delivered = []
    sink = lambda ce: delivered.append(ce.identity())  # noqa: E731
    first = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never",
                       share=True)
    first.attach(parse_query(text, name="r"), engine="sequential",
                 name="r", sink=sink)
    recovered = [first.push(event) for event in events[:checkpoint_at]]
    first.checkpoint()  # the tA window is open across the cut
    recovered += [first.push(event)
                  for event in events[checkpoint_at:crash_at]]
    first.hub.abort()

    second = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never",
                        share=True, sink_provider=lambda record: sink)
    attachment, = second.attachments
    if attachment.query.plan.compiled:
        assert attachment._routed_types == {"tA", "tB"}
    recovered += [second.push(event) for event in events[crash_at:]]
    assert recovered == uncrashed
    assert delivered == reference[:1]
    plain.close()
    second.close()
    assert delivered == reference and len(reference) == 2


# -- the batch is the unit of replay (counts, no clocks) --------------------


def test_recovery_replays_each_logged_push_as_one_batch(tmp_path,
                                                        monkeypatch):
    """A tail of N events logged as R ``push`` records enters every
    attachment's engine session R times and its splitter R times — not
    N: recovery rides the live batched fan-out, there is no per-event
    sibling to fall back to."""
    records, size = 6, 50
    names = ("c1", "c2")  # consuming queries keep private engine sessions
    first = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never")
    for name in names:
        first.attach(band_query(name, BAND_CONSUME_TEXT),
                     engine="sequential", name=name)
    for record in range(records):
        first.push_many(EVENTS[record * size:(record + 1) * size])
    first.hub.abort()

    entered, split = Counter(), Counter()

    def counting(counter, method):
        def wrapper(self, *args):
            counter[id(self)] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(Session, "push", counting(entered, Session.push))
    monkeypatch.setattr(Session, "push_many",
                        counting(entered, Session.push_many))
    monkeypatch.setattr(Splitter, "ingest_many",
                        counting(split, Splitter.ingest_many))
    second = DurableHub(tmp_path, checkpoint_every=10**9, fsync="never")
    monkeypatch.undo()

    assert second.recovery_report.replayed_events == records * size
    assert [a.name for a in second.attachments] == list(names)
    for attachment in second.attachments:
        assert attachment._member is None
        engine_session = attachment.session.inner
        assert entered[id(attachment.session)] == records
        assert entered[id(engine_session)] == records
        assert split[id(engine_session.splitter)] == records
        assert engine_session.events_pushed == records * size
    second.manager.close(checkpoint=False)


# -- tail attach records: none may vanish -----------------------------------


def test_non_json_engine_option_survives_tail_recovery(tmp_path):
    """A durable attachment whose engine option is not JSON (a config
    object) comes back from a *tail* record on the engine's defaults,
    exactly as it does from a snapshot — it used to be lost without a
    trace when the crash came before the first checkpoint."""
    text = q1_text(8, 200, leading_symbols(16))
    events = generate_nyse(600, n_symbols=40, n_leading=16, seed=5)
    crash_at = 300

    reference: list = []
    plain = StreamHub()
    plain.attach(parse_query(text, name="q1"), engine="spectre", name="q1",
                 sink=lambda ce: reference.append(ce.identity()),
                 config=SpectreConfig(k=2))
    plain.push_many(events)
    plain.close()
    assert reference

    delivered: list = []
    first = DurableHub(tmp_path, checkpoint_every=10**9)
    first.attach(text, engine="spectre", name="q1",
                 sink=lambda ce: delivered.append(ce.identity()),
                 config=SpectreConfig(k=2))
    first.push_many(events[:crash_at])
    first.hub.abort()
    first.manager.close(checkpoint=False)

    second = DurableHub(
        tmp_path, checkpoint_every=10**9, sink_provider=lambda record:
        lambda ce: delivered.append(ce.identity()))
    report = second.recovery_report
    assert report.snapshot_segment is None      # tail-only recovery
    assert report.restored_attachments == ["q1"]
    assert report.skipped_attachments == []
    assert [a.name for a in second.attachments] == ["q1"]
    second.push_many(events[crash_at:])
    second.close()
    assert delivered == reference
    assert second.cursor("q1") == len(reference)


def test_unrestorable_tail_attach_is_listed_as_skipped(tmp_path):
    """A hand-written tail: a good attach, one whose query text does
    not parse, one whose engine refuses its option, another good one.
    Recovery proceeds past the bad ones and names them."""
    def attach(name, **fields):
        return {"t": "attach", "name": name, "query": BAND_TEXT,
                "params": [[k, v] for k, v in PARAMS.items()],
                "engine": "sequential", "options": {}, "durable": True,
                "pos": 0, **fields}

    writer = WalWriter(segment_path(tmp_path, 1), "never")
    for record in (
            {"t": "meta", "segment": 1, "hub": {}},
            attach("good1"),
            attach("garbled", query="PATTERN (A B WITHIN nonsense"),
            attach("refused", engine="spectre", options={"k": 0}),
            attach("good2"),
            {"t": "push", "events": [pack_event(e) for e in EVENTS[:200]]}):
        writer.append(record)
    writer.close()

    hub = DurableHub(tmp_path, checkpoint_every=10**9)
    report = hub.recovery_report
    assert report.restored_attachments == ["good1", "good2"]
    assert report.skipped_attachments == ["garbled", "refused"]
    assert [a.name for a in hub.attachments] == ["good1", "good2"]
    assert report.replayed_events == 200
    reference = reference_matches([("good1", band_query("good1"))])
    hub.push_many(EVENTS[200:])
    hub.close()
    assert hub.cursor("good1") == hub.cursor("good2") == \
        len(reference["good1"])


@pytest.mark.parametrize("removed", ["sharded", "elastic", "approximate"])
def test_tail_attach_of_a_removed_engine_name_is_skipped(tmp_path, removed):
    """A WAL written while these were engines: the attach record meets
    the registry's one ``unknown engine`` error, which recovery reports
    as a skipped attachment — no half-built attachment is left."""
    record = {"t": "attach", "name": "old", "query": BAND_TEXT,
              "params": [[k, v] for k, v in PARAMS.items()],
              "engine": removed, "options": {"k": 2}, "durable": True,
              "pos": 0}
    writer = WalWriter(segment_path(tmp_path, 1), "never")
    for entry in ({"t": "meta", "segment": 1, "hub": {}}, record,
                  {"t": "push",
                   "events": [pack_event(e) for e in EVENTS[:50]]}):
        writer.append(entry)
    writer.close()

    hub = DurableHub(tmp_path, checkpoint_every=10**9)
    assert hub.recovery_report.skipped_attachments == ["old"]
    assert hub.recovery_report.replayed_events == 50
    assert hub.attachments == ()
    with pytest.raises(ValueError, match=f"unknown engine '{removed}'"):
        attach_from_record(hub, record)
    assert hub.attachments == ()
    # nothing of the refused attachment holds its name
    attach_from_record(hub, dict(record, engine="sequential"))
    assert [a.name for a in hub.attachments] == ["old"]
    hub.close()
