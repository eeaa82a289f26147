"""Committed golden runs (``tests/golden/``): the journal's record
grammar pinned by files, both ways — logs written by an older commit
must still replay, verify and recover here, and the records this
checkout writes for the same workloads must decode equal to theirs.

* ``band_sequential.wal`` / ``q1_spectre_k4.wal`` — ``repro record``
  run logs over 400 seeded NYSE quotes (the CI smoke band query; Q1
  with consumption, 14 matches),
* ``crashed_wal/`` — a ``DurableHub`` directory abandoned without
  ``close``: two durable attachments, segment 1 + its snapshot, and a
  non-empty tail in segment 2 (see :func:`write_crashed_wal`).

Regenerate only when the format changes on purpose (from the repo
root; everything is seeded, nothing is downloaded)::

    cd tests/golden
    export PYTHONPATH=../../src
    python -m repro generate --kind nyse --events 400 --seed 7 \\
        --out /tmp/quotes.csv
    python -m repro record --out band_sequential.wal \\
        --query band=band.sql --data /tmp/quotes.csv \\
        --engine sequential --param lowerLimit=49.9 \\
        --param upperLimit=50.1 --quiet
    python -m repro record --out q1_spectre_k4.wal --query q1=q1.sql \\
        --data /tmp/quotes.csv --engine spectre --k 4 --quiet
    rm -rf crashed_wal && PYTHONPATH=../../src:../.. python -c \\
        "from tests.test_golden_runs import write_crashed_wal as w; \\
         w('crashed_wal')"

(``q1.sql`` is ``q1_text(8, 100, leading_symbols(16))``.)
"""

from __future__ import annotations

import dataclasses
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.datasets import generate_nyse
from repro.datasets.nyse import leading_symbols
from repro.durability import DurableHub, replay_run, verify_run
from repro.durability.wal import encode_record, list_segments, read_wal
from repro.hub import StreamHub
from repro.patterns.parser import parse_query
from repro.queries.fig9 import q1_text
from repro.queries.q1 import make_q1
from repro.spectre.elasticity import ElasticityPolicy
from repro.streaming.builder import build_engine
from tests.helpers import fingerprint

GOLDEN = Path(__file__).parent / "golden"
BAND_PARAMS = {"lowerLimit": 49.9, "upperLimit": 50.1}
# what `generate --kind nyse --events 400 --seed 7` writes
EVENTS = generate_nyse(400, n_symbols=300, n_leading=16, seed=7)
CHECKPOINT_AT, CRASH_AT, CHUNK = 200, 300, 25

RUN_LOGS = {
    "band_sequential.wal": (
        ["--query", f"band={GOLDEN / 'band.sql'}",
         "--engine", "sequential", "--param", "lowerLimit=49.9",
         "--param", "upperLimit=50.1"], 8),
    "q1_spectre_k4.wal": (
        ["--query", f"q1={GOLDEN / 'q1.sql'}",
         "--engine", "spectre", "--k", "4"], 14),
}


def _queries():
    return [
        ("band", parse_query((GOLDEN / "band.sql").read_text(),
                             name="band", params=BAND_PARAMS),
         "sequential", {}),
        ("q1", parse_query((GOLDEN / "q1.sql").read_text(), name="q1"),
         "spectre", {"k": 4}),
    ]


def write_crashed_wal(directory) -> None:
    """Drive the golden durable run and abandon it: 200 events, one
    checkpoint, 100 more events, no ``close``."""
    hub = DurableHub(directory, checkpoint_every=10**9)
    for name, query, engine, options in _queries():
        hub.attach(query, engine=engine, name=name, **options)
    for start in range(0, CRASH_AT, CHUNK):
        if start == CHECKPOINT_AT:
            hub.checkpoint()
        hub.push_many(EVENTS[start:start + CHUNK])
    hub.hub.abort()
    hub.manager.close(checkpoint=False)


def test_record_grammar_has_one_home():
    """Guard: under ``src/`` only ``durability/journal.py`` reads or
    writes the records' ``"t"`` field."""
    literal = re.compile(r"""\.get\(["']t["']\)|\[["']t["']\]|["']t["']:""")
    src = Path(__file__).parent.parent / "src"
    offenders = [
        f"{path.relative_to(src)}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path.name != "journal.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if literal.search(line)]
    assert not offenders, "\n".join(offenders)


def test_q1_text_is_the_committed_query():
    assert (GOLDEN / "q1.sql").read_text() == \
        q1_text(8, 100, leading_symbols(16))


@pytest.mark.parametrize("name", sorted(RUN_LOGS))
def test_golden_run_log_verifies(name):
    report = verify_run(GOLDEN / name)
    assert report.ok, report.divergences[:3]
    assert report.matches_recorded == RUN_LOGS[name][1]
    replayed = replay_run(GOLDEN / name)
    assert sum(len(v) for v in replayed.values()) == RUN_LOGS[name][1]


@pytest.mark.parametrize("name", sorted(RUN_LOGS))
def test_rerecording_yields_the_golden_records(tmp_path, name):
    data = tmp_path / "quotes.csv"
    assert cli_main(["generate", "--kind", "nyse", "--events", "400",
                     "--seed", "7", "--out", str(data)]) == 0
    out = tmp_path / name
    assert cli_main(["record", "--out", str(out), "--data", str(data),
                     "--quiet", *RUN_LOGS[name][0]]) == 0
    got, want = read_wal(out).records, read_wal(GOLDEN / name).records
    assert got == want
    # the hot-path records are byte-identical, key order included
    assert [encode_record(r) for r in got if r["t"] in ("push", "emit")] \
        == [encode_record(r) for r in want if r["t"] in ("push", "emit")]


# engine-native counters of the golden workloads, recorded at commit
# 2d0eb3a (before the session scaffold): every field, not just matches
GOLDEN_COUNTERS = {
    ("band", "sequential"): dict(
        windows=8, groups_created=8, groups_completed=8, events_fed=100,
        events_skipped_consumed=0, events_prefiltered=0),
    ("band", "trex"): dict(windows=8, events_fed=100, input_events=400),
    ("q1", "sequential"): dict(
        windows=22, groups_created=15, groups_completed=14, events_fed=680,
        events_skipped_consumed=63, events_prefiltered=0),
    ("q1", "spectre"): dict(
        input_events=400, virtual_time=472.0, stats=dict(
            cycles=59, windows_total=22, windows_emitted=22,
            versions_created=133, versions_dropped=111, max_tree_size=35,
            groups_created=22, groups_completed=15, groups_abandoned=1,
            rollbacks=3, validation_rollbacks=0, steps_processed=1765,
            steps_suppressed=77, wasted_steps=50,
            window_latencies=[
                104.0, 112.0, 128.0, 128.0, 200.0, 216.0, 224.0, 240.0,
                296.0, 216.0, 232.0, 192.0, 240.0, 224.0, 224.0, 200.0,
                208.0, 160.0, 144.0, 72.0, 72.0, 64.0])),
}


@pytest.mark.parametrize("name,engine", sorted(GOLDEN_COUNTERS))
def test_engine_counters_on_the_golden_workloads(name, engine):
    """``SequentialResult``/``TRexResult``/``RunStats`` fields and
    ``virtual_time`` are bit-identical to the recorded run, lazy (batch)
    and eager alike for the in-order engines."""
    query, options = next(
        (query, options if engine == wired else {})
        for label, query, wired, options in _queries() if label == name)
    want = dict(GOLDEN_COUNTERS[name, engine])
    stats = want.pop("stats", None)
    results = [build_engine(query, engine, **options).run(EVENTS)]
    if stats is None:
        session = build_engine(query, engine, **options).open()
        session.push_many(EVENTS)
        session.flush()
        results.append(session.result())
    for result in results:
        assert {field: getattr(result, field) for field in want} == want
        if stats is not None:
            assert dataclasses.asdict(result.stats) == stats


# The paper's UDF Q1 at the ladder's two operating points (q=8: completion
# probability ~1.0; q=110: ~0.75, hundreds of rollbacks at k=8), ws=400,
# consumption on, NYSE-150 with 40 % flat quotes.  Recorded at commit
# e0069d8, before the instance loop ran a cycle per call: the
# ``tests.helpers.fingerprint`` of each run (identities, every RunStats
# field, virtual_time, adaptations, early emissions) must not move.
UDF_Q1_EVENTS = generate_nyse(4096, n_symbols=150, n_leading=2, seed=3,
                              unchanged_probability=0.4)
UDF_Q1_PINS = {
    "q8-k1-topk": (8, "lazy", dict(k=1, scheduler="topk"),
                   ("38cd81241bd758d0", 27, 11832.0, [], 0)),
    "q8-k1-fifo": (8, "lazy", dict(k=1, scheduler="fifo"),
                   ("38cd81241bd758d0", 27, 11832.0, [], 0)),
    "q8-k1-roundrobin": (8, "lazy", dict(k=1, scheduler="roundrobin"),
                         ("38cd81241bd758d0", 27, 11832.0, [], 0)),
    "q8-k8-topk": (8, "lazy", dict(k=8, scheduler="topk"),
                   ("3a91975bc45e5e60", 27, 1672.0, [], 0)),
    "q8-k8-fifo": (8, "lazy", dict(k=8, scheduler="fifo"),
                   ("c5c843ef32412b6f", 27, 1744.0, [], 0)),
    "q8-k8-roundrobin": (8, "lazy", dict(k=8, scheduler="roundrobin"),
                         ("c5c843ef32412b6f", 27, 1744.0, [], 0)),
    "q110-k1-topk": (110, "lazy", dict(k=1, scheduler="topk"),
                     ("8b6bb6cff41ff1d3", 14, 10192.0, [], 0)),
    "q110-k1-fifo": (110, "lazy", dict(k=1, scheduler="fifo"),
                     ("8b6bb6cff41ff1d3", 14, 10192.0, [], 0)),
    "q110-k1-roundrobin": (110, "lazy", dict(k=1, scheduler="roundrobin"),
                           ("8b6bb6cff41ff1d3", 14, 10192.0, [], 0)),
    "q110-k8-topk": (110, "lazy", dict(k=8, scheduler="topk"),
                     ("33277b8790b28026", 14, 3336.0, [], 0)),
    "q110-k8-fifo": (110, "lazy", dict(k=8, scheduler="fifo"),
                     ("742802d9fb39279a", 14, 4760.0, [], 0)),
    "q110-k8-roundrobin": (110, "lazy", dict(k=8, scheduler="roundrobin"),
                           ("742802d9fb39279a", 14, 4760.0, [], 0)),
    "q110-elastic": (110, "lazy", dict(k=4, elasticity=ElasticityPolicy(
        max_k=16, plateau_k=4, period=50, min_resolved=5)),
        ("1dbed09943c94dc1", 14, 3560.0, [(200, 1.0, 16)], 0)),
    "q110-emission": (110, "lazy", dict(k=8, emission_threshold=0.6),
                      ("76088c4bd96fdf52", 14, 3336.0, [], 14)),
    "q8-k8-eager": (8, "eager", dict(k=8),
                    ("28c449f29021342c", 27, 6272.0, [], 0)),
    "q110-k8-eager": (110, "eager", dict(k=8),
                      ("e936af6845ec3f31", 14, 6384.0, [], 0)),
}


@pytest.mark.parametrize("name", list(UDF_Q1_PINS))
def test_udf_q1_runs_are_pinned(name):
    """Batch runs and an eager session pushed 256-event chunks (the
    ladder's chunk) reproduce the recorded runs bit-for-bit."""
    q, mode, options, pinned = UDF_Q1_PINS[name]
    query = make_q1(q, window_size=400, leading_symbols=leading_symbols(2))
    engine = build_engine(query, "spectre", **options)
    if mode == "lazy":
        result = engine.run(UDF_Q1_EVENTS)
    else:
        session = engine.open()
        for start in range(0, len(UDF_Q1_EVENTS), 256):
            session.push_many(UDF_Q1_EVENTS[start:start + 256])
        session.flush()
        result = session.result()
    assert fingerprint(engine, result) == pinned


def test_rewriting_the_crashed_wal_yields_the_golden_records(tmp_path):
    write_crashed_wal(tmp_path / "wal")
    golden = list_segments(GOLDEN / "crashed_wal")
    fresh = list_segments(tmp_path / "wal")
    assert [index for index, _p in fresh] == \
        [index for index, _p in golden] == [1, 2]
    for (_i, want), (_j, got) in zip(golden, fresh):
        assert read_wal(got).records == read_wal(want).records


def test_crashed_wal_is_a_run_log_until_its_checkpoint():
    """Segment 1 was never superseded while it was written: it is a
    run log of the first 200 events."""
    assert verify_run(GOLDEN / "crashed_wal" / "wal-00000001.log").ok


def test_golden_crashed_wal_recovers_to_the_uncrashed_run(tmp_path):
    reference = {name: [] for name, *_rest in _queries()}
    plain = StreamHub()
    for name, query, engine, options in _queries():
        plain.attach(query, engine=engine, name=name,
                     sink=lambda ce, _n=name:
                     reference[_n].append(ce.identity()), **options)
    for start in range(0, len(EVENTS), CHUNK):
        plain.push_many(EVENTS[start:start + CHUNK])
    plain.close()
    assert all(reference.values())

    precrash = {name: 0 for name in reference}
    for _index, path in list_segments(GOLDEN / "crashed_wal"):
        for record in read_wal(path).records:
            if record["t"] == "emit":
                precrash[record["a"]] += 1

    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN / "crashed_wal", directory)
    after = {name: [] for name in reference}
    hub = DurableHub(directory, sink_provider=lambda record:
                     lambda ce: after[record["name"]].append(
                         ce.identity()))
    report = hub.recovery_report
    assert report.recovered and report.snapshot_segment == 1
    assert sorted(report.restored_attachments) == ["band", "q1"]
    assert report.skipped_attachments == []
    assert report.replayed_events >= CRASH_AT - CHECKPOINT_AT
    assert hub.hub.events_pushed == CRASH_AT
    for start in range(CRASH_AT, len(EVENTS), CHUNK):
        hub.push_many(EVENTS[start:start + CHUNK])
    hub.close()
    for name, want in reference.items():
        assert after[name] == want[precrash[name]:], name
        assert hub.cursor(name) == len(want)


def test_golden_files_hold_under_either_codec(json_codec, tmp_path):
    """The committed logs verify, re-record and recover on the orjson
    path and on the standard-library path alike."""
    for name in sorted(RUN_LOGS):
        test_golden_run_log_verifies(name)
        (tmp_path / name).mkdir()
        test_rerecording_yields_the_golden_records(tmp_path / name, name)
    test_crashed_wal_is_a_run_log_until_its_checkpoint()
    test_golden_crashed_wal_recovers_to_the_uncrashed_run(tmp_path)
