"""LIVE/REPLAY/VERIFY run recording: determinism as a testable
artifact.  A recorded run must replay bit-identically on match
identities; ``verify_run`` must accept the genuine log and reject any
injected divergence; the CLI must surface that as its exit code."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.datasets import generate_nyse, save_events_csv
from repro.durability import (
    DurableHub,
    ReplayError,
    recording_hub,
    replay_run,
    verify_run,
)
from repro.durability.journal import apply_record
from repro.durability.wal import WalWriter, iter_records, read_wal
from repro.events.wire import pack_event
from repro.hub import StreamHub
from repro.patterns.parser import parse_query

BAND_TEXT = """PATTERN (A B)
DEFINE
    A AS (A.closePrice > lowerLimit AND A.closePrice < upperLimit),
    B AS (B.closePrice > lowerLimit AND B.closePrice < upperLimit)
WITHIN 40 events FROM every 20 events"""

WIDE_TEXT = BAND_TEXT.replace("WITHIN 40", "WITHIN 60")
PARAMS = {"lowerLimit": 49.95, "upperLimit": 50.3}
EVENTS = generate_nyse(700, n_symbols=12, n_leading=8, seed=41)


def record_run(path, *, share=None, engines=("sequential", "spectre"),
               detach_mid=False):
    """One LIVE run over the shared workload; returns the live match
    wires per attachment (cursor order)."""
    hub, log = recording_hub(path, share=share)
    live: dict[str, list] = {"band": [], "wide": []}
    hub.attach(parse_query(BAND_TEXT, name="band", params=PARAMS),
               engine=engines[0], name="band",
               sink=lambda ce: live["band"].append(ce))
    hub.attach(parse_query(WIDE_TEXT, name="wide", params=PARAMS),
               engine=engines[1], name="wide",
               sink=lambda ce: live["wide"].append(ce))
    for index, event in enumerate(EVENTS):
        if detach_mid and index == 400:
            for attachment in list(hub._attachments):
                if attachment.name == "wide":
                    attachment.detach(drain=False)
        hub.push(event)
    hub.close()
    log.close()
    return live


def test_record_then_replay_bit_identical(tmp_path):
    path = tmp_path / "run.wal"
    live = record_run(path)
    replayed = replay_run(path)
    for name in ("band", "wide"):
        want = [list(ce.constituent_seqs) for ce in live[name]]
        got = [wire["seqs"] for _cursor, wire in replayed[name]]
        assert got == want, name
        cursors = [cursor for cursor, _wire in replayed[name]]
        assert cursors == list(range(1, len(cursors) + 1))
    assert verify_run(path).ok


def test_verify_reports_clean_run(tmp_path):
    path = tmp_path / "run.wal"
    live = record_run(path)
    report = verify_run(path)
    assert report.ok and not report.divergences
    assert report.matches_recorded == sum(len(v) for v in live.values())
    assert report.matches_recorded == report.matches_replayed
    assert report.attachments == 2
    assert report.to_dict()["ok"] is True


def test_replay_share_override_preserves_identities(tmp_path):
    """Replaying under the opposite optimizer setting is itself an
    equivalence check — identities must not move."""
    path = tmp_path / "run.wal"
    record_run(path, share=True)
    assert [w["seqs"] for _c, w in replay_run(path, share=False)["band"]] \
        == [w["seqs"] for _c, w in replay_run(path, share=True)["band"]]


def test_detach_mid_stream_replays_faithfully(tmp_path):
    path = tmp_path / "run.wal"
    live = record_run(path, detach_mid=True)
    replayed = replay_run(path)
    assert [w["seqs"] for _c, w in replayed.get("wide", [])] == \
        [list(ce.constituent_seqs) for ce in live["wide"]]
    assert [w["seqs"] for _c, w in replayed["band"]] == \
        [list(ce.constituent_seqs) for ce in live["band"]]


def _rewrite_log(path, mutate):
    """Round-trip the run log through ``mutate(records) -> records``."""
    records = read_wal(path).records
    records = mutate(records)
    path.unlink()
    writer = WalWriter(path, "never")
    for record in records:
        writer.append(record)
    writer.close()


def test_verify_detects_forged_emit(tmp_path):
    path = tmp_path / "run.wal"
    record_run(path)

    def forge(records):
        for record in records:
            if record.get("t") == "emit" and record.get("a") == "band":
                record["m"]["seqs"] = [9999] + record["m"]["seqs"][1:]
                break
        return records

    _rewrite_log(path, forge)
    report = verify_run(path)
    assert not report.ok
    assert any(d["kind"] == "mismatch" for d in report.divergences)


def test_verify_detects_missing_and_extra(tmp_path):
    path = tmp_path / "run.wal"
    record_run(path)

    def drop_last_emit(records):
        for index in range(len(records) - 1, -1, -1):
            if records[index].get("t") == "emit":
                del records[index]
                return records
        return records

    _rewrite_log(path, drop_last_emit)
    report = verify_run(path)
    assert not report.ok
    assert any(d["kind"] == "extra" for d in report.divergences)

    def add_bogus_emit(records):
        records.append({"t": "emit", "a": "band", "c": 9_999,
                        "m": {"query": "band", "window": 9_999,
                              "seqs": [1, 2], "etypes": ["quote", "quote"],
                              "attributes": {}}})
        return records

    _rewrite_log(path, add_bogus_emit)
    report = verify_run(path)
    assert any(d["kind"] == "missing" for d in report.divergences)


def test_replay_rejects_non_run_log(tmp_path):
    path = tmp_path / "not-a-run.wal"
    writer = WalWriter(path, "never")
    writer.append({"t": "push", "events": []})
    writer.close()
    with pytest.raises(ReplayError):
        replay_run(path)


def test_cli_record_replay_verify_roundtrip(tmp_path, capsys):
    data = tmp_path / "quotes.csv"
    save_events_csv(EVENTS, data)
    qfile = tmp_path / "band.sql"
    qfile.write_text(BAND_TEXT)
    run_log = tmp_path / "run.wal"

    assert cli_main(["record", "--out", str(run_log),
                     "--query", f"band={qfile}", "--data", str(data),
                     "--quiet", "--param", "lowerLimit=49.95",
                     "--param", "upperLimit=50.3"]) == 0
    recorded = capsys.readouterr().out
    assert "recorded 700 events" in recorded

    assert cli_main(["replay", "--run", str(run_log)]) == 0
    assert cli_main(["verify-run", "--run", str(run_log)]) == 0
    out = capsys.readouterr().out
    assert "OK: replay identical" in out

    # forge the log: the CLI must exit non-zero and say why
    def forge(records):
        for record in records:
            if record.get("t") == "emit":
                record["m"]["seqs"] = [123456]
                break
        return records

    _rewrite_log(run_log, forge)
    assert cli_main(["verify-run", "--run", str(run_log)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_run_log_meta_is_first_record(tmp_path):
    path = tmp_path / "run.wal"
    record_run(path)
    first = read_wal(path).records[0]
    assert first["t"] == "meta" and first["mode"] == "live"
    assert json.dumps(first["hub"])  # hub config is JSON-able


# -- a WAL segment is a run log ---------------------------------------------

CONSUME_TEXT = BAND_TEXT + "\nCONSUME (A B)"
NAMES = ("a", "b", "c")

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("attach"), st.sampled_from(NAMES),
              st.sampled_from((BAND_TEXT, WIDE_TEXT, CONSUME_TEXT)),
              st.sampled_from(("sequential", "spectre"))),
    st.tuples(st.just("push"), st.integers(1, 120)),
    st.tuples(st.just("push"), st.integers(1, 120)),  # twice as likely
    st.tuples(st.just("detach"), st.sampled_from(NAMES), st.booleans()),
), min_size=2, max_size=12)


def drive(hub, operations, flush):
    """Run one drawn operation sequence against a hub face; returns
    the live emit streams ``{name: [seqs]}``."""
    live: dict[str, list] = {}
    position = 0
    for op in operations:
        attached = {a.name: a for a in hub.attachments}
        if op[0] == "attach" and op[1] not in attached:
            _op, name, text, engine = op
            hub.attach(parse_query(text, name=name, params=PARAMS),
                       engine=engine, name=name,
                       sink=lambda ce, _n=name: live.setdefault(
                           _n, []).append(list(ce.constituent_seqs)))
        elif op[0] == "push":
            hub.push_many(EVENTS[position:position + op[1]])
            position += op[1]
        elif op[0] == "detach" and op[1] in attached:
            attached[op[1]].detach(drain=op[2])
    if flush:
        hub.flush()
    return live


def comparable(records):
    """A record list modulo what tells a WAL segment from a run log:
    the ``meta`` extras and the ``durable`` flag."""
    return [{"t": "meta", "hub": r["hub"]} if r["t"] == "meta" else
            {k: v for k, v in r.items() if k != "durable"}
            for r in records]


def streams(records):
    out: dict[str, list] = {}
    for record in records:
        if record["t"] == "emit":
            out.setdefault(record["a"], []).append(
                (record["c"], list(record["m"]["seqs"])))
    return out


@settings(max_examples=15, deadline=None)
@given(operations=OPERATIONS, share=st.booleans(), flush=st.booleans())
def test_wal_segment_is_a_run_log(operations, share, flush):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        hub, log = recording_hub(scratch / "run.wal", share=share)
        live = drive(hub, operations, flush)
        hub.abort()
        log.close()

        durable = DurableHub(scratch / "wal", checkpoint_every=10**9,
                             share=share)
        assert drive(durable, operations, flush) == live
        durable.hub.abort()
        durable.manager.close(checkpoint=False)
        segment = scratch / "wal" / "wal-00000001.log"

        # one grammar, one writer
        recorded = read_wal(scratch / "run.wal").records
        assert comparable(read_wal(segment).records) == \
            comparable(recorded)

        # one interpreter: either file replays to the live streams
        replayed = replay_run(segment)
        assert replayed == replay_run(scratch / "run.wal")
        assert {name: [wire["seqs"] for _c, wire in stream]
                for name, stream in replayed.items()} == live
        assert verify_run(segment).ok

        # ... and recovery is the same interpretation: strip the emit
        # records so a recovery has to regenerate (and log) them all
        stripped = scratch / "stripped"
        stripped.mkdir()
        writer = WalWriter(stripped / segment.name, "never")
        for record in read_wal(segment).records:
            if record["t"] != "emit":
                writer.append(record)
        writer.close()
        recovered = DurableHub(stripped, checkpoint_every=10**9)
        assert recovered.recovery_report.skipped_attachments == []
        recovered.hub.abort()
        recovered.manager.close(checkpoint=False)
        assert streams(r for _i, r in iter_records(stripped)) == {
            name: [(cursor, wire["seqs"]) for cursor, wire in stream]
            for name, stream in replayed.items()}


def test_apply_record_reingests_push_and_ignores_outputs():
    hub = StreamHub()
    attached: list = []
    batch = EVENTS[:5]
    for record in (
            {"t": "meta", "mode": "live", "hub": {}},
            {"t": "emit", "a": "band", "c": 1,
             "m": {"query": "band", "window": 0, "seqs": [1, 2],
                   "etypes": ["quote", "quote"], "attributes": {}}}):
        assert apply_record(hub, record, attached.append) == []
    assert hub.events_pushed == 0 and not attached

    push = {"t": "push", "events": [pack_event(e) for e in batch]}
    assert [e.seq for e in apply_record(hub, push, attached.append)] \
        == [e.seq for e in batch]
    assert hub.events_pushed == 5

    for record in ({"t": "attach", "name": "band"},
                   {"t": "detach", "name": "nobody", "drain": True},
                   {"t": "flush"}):
        assert apply_record(hub, record, attached.append) == []
    assert attached == [{"t": "attach", "name": "band"}]
    assert hub.is_flushed
