"""The one JSON codec (``repro.events.wire.dumps``/``loads``) and the
batch event decoder built on it.

Every test that takes ``json_codec`` runs twice: on the orjson path and
on the standard-library path (the fixture sets the codec's
``_fastjson`` to ``None``).  The edge semantics pinned here are the ones
where orjson is stricter than the stdlib — each must still be accepted,
by the per-call fallback — and the two places where the codecs write
different bytes for the same value.
"""

from __future__ import annotations

import asyncio
import dataclasses
import datetime
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.wal import decode_record, encode_record
from repro.events import wire
from repro.events.wire import (
    WireError,
    event_from_wire,
    events_from_wire,
    pack_event,
    unpack_event,
)
from repro.server import ServerConfig, ServerCore
from repro.server.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    match_frame,
)
from repro.server.protocol import event_from_wire as protocol_event

BIG = 1 << 70


def as_tuple(event):
    return (event.seq, event.etype, event.timestamp, event.attributes,
            type(event.timestamp))


# -- codec edges ------------------------------------------------------------

class TestCodecEdges:
    def test_one_import_of_orjson_under_src(self):
        import pathlib
        import re
        src = pathlib.Path(wire.__file__).parents[1]
        hits = [str(path.relative_to(src))
                for path in sorted(src.rglob("*.py"))
                if re.search(r"^\s*(import|from)\s+orjson\b",
                             path.read_text(), re.M)]
        assert hits == ["events/wire.py"]

    @pytest.mark.parametrize("literal, check", [
        ("NaN", math.isnan),
        ("Infinity", lambda x: x == math.inf),
        ("-Infinity", lambda x: x == -math.inf),
    ])
    def test_non_finite_literals_in_a_pushed_frame_decode(
            self, json_codec, literal, check):
        raw = ('{"type":"push","event":{"etype":"A","seq":1,'
               '"attributes":{"x":%s}}}' % literal).encode()
        frame = decode_frame(raw)
        assert check(frame["event"]["attributes"]["x"])
        assert check(protocol_event(frame["event"]).attributes["x"])

    def test_non_finite_floats_encode_as_null_or_literal(self, json_codec):
        """orjson path: ``null``, exactly what the WAL's ``emit`` record
        of the same match stores; stdlib path: the literals."""
        frame = {"type": "match", "match": {"attributes": {
            "nan": math.nan, "inf": math.inf}}}
        line = encode_frame(frame)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert encode_record(frame) + b"\n" == line  # WAL == protocol
        back = decode_frame(line)["match"]["attributes"]
        if json_codec == "orjson":
            assert back == {"nan": None, "inf": None}
        else:
            assert math.isnan(back["nan"]) and back["inf"] == math.inf

    def test_non_str_keys_and_big_ints_still_encode(self, json_codec):
        frame = {"type": "match", "match": {"attributes": {
            1: "int key", "big": BIG, "neg": -BIG}}}
        back = json.loads(encode_frame(frame))["match"]["attributes"]
        assert back == {"1": "int key", "big": BIG, "neg": -BIG}
        assert json.loads(encode_record({"k": {2.5: BIG}})) == \
            {"k": {"2.5": BIG}}

    def test_exotic_leaves_are_equal_after_a_round_trip(self, json_codec):
        @dataclasses.dataclass
        class Leaf:
            x: int = 1

        when = datetime.datetime(2024, 1, 2, 3, 4, 5)
        value = {"seqs": (1, 2, (3, 4)), "leaf": Leaf(), "when": when,
                 "set": frozenset({7}), "text": "snow ☃ é",
                 "float": 1e16, "small": 1e-7, "int": (1 << 63) - 1}
        want = {"seqs": [1, 2, [3, 4]], "leaf": str(Leaf()),
                "when": str(when), "set": str(frozenset({7})),
                "text": "snow ☃ é", "float": 1e16,
                "small": 1e-7, "int": (1 << 63) - 1}
        assert wire.loads(wire.dumps(value)) == want
        assert decode_record(encode_record(value)) == want

    def test_lone_surrogates_survive(self, json_codec):
        assert wire.loads(b'"\\ud800"') == "\ud800"
        assert wire.loads(wire.dumps({"s": "\ud800"})) == {"s": "\ud800"}

    def test_codecs_read_each_other(self, monkeypatch):
        if wire._fastjson is None:
            pytest.skip("orjson is not installed")
        value = {"t": "x", "events": [[1, "A", 1.5, {"p": 1e16,
                                                      "s": "é"}]],
                 "m": {"seqs": (1, 2)}}
        want = {"t": "x", "events": [[1, "A", 1.5, {"p": 1e16,
                                                     "s": "é"}]],
                "m": {"seqs": [1, 2]}}
        fast = wire.dumps(value)
        with monkeypatch.context() as patch:
            patch.setattr(wire, "_fastjson", None)
            plain = wire.dumps(value)
            assert plain != fast        # \\u00e9 and 1e+16 vs é and 1e16
            assert wire.loads(fast) == want
        assert wire.loads(plain) == want

    @pytest.mark.parametrize("raw", [
        b"", b"{", b"[1,]", b"\xff\xfe", b'{"type":', b"nope"])
    def test_malformed_is_a_typed_protocol_error(self, json_codec, raw):
        with pytest.raises(ProtocolError) as err:
            decode_frame(raw)
        assert err.value.code == "protocol"

    def test_error_text_is_the_stdlib_decoders(self, json_codec):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"[1,]")
        with pytest.raises(ValueError) as want:
            json.loads(b"[1,]")
        assert str(err.value) == f"frame is not valid JSON: {want.value}"

    def test_oversize_answers_too_large_before_any_parse(
            self, json_codec, monkeypatch):
        def no_parse(_data):
            raise AssertionError("parsed an oversize frame")
        monkeypatch.setattr(wire, "loads", no_parse)
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{" + b" " * 64, max_bytes=32)
        assert err.value.code == "too_large"

    @pytest.mark.parametrize("seq", [BIG, -BIG, 1 << 63, -(1 << 63) - 1])
    def test_a_seq_beyond_64_bits_is_a_typed_protocol_error(
            self, json_codec, seq):
        raw = ('{"type":"push","event":{"etype":"A","seq":%d}}'
               % seq).encode()
        with pytest.raises(ProtocolError) as err:
            protocol_event(decode_frame(raw)["event"])
        assert err.value.code == "protocol"

    def test_the_64_bit_bounds_themselves_are_accepted(self, json_codec):
        for seq in ((1 << 63) - 1, -(1 << 63)):
            raw = '{"etype":"A","seq":%d,"timestamp":0.5}' % seq
            assert event_from_wire(wire.loads(raw)).seq == seq

    def test_match_frames_are_the_same_json(self, monkeypatch):
        """A typical match frame is byte-identical under both codecs
        (compact separators, ASCII, short floats)."""
        if wire._fastjson is None:
            pytest.skip("orjson is not installed")
        frame = match_frame("q", {"query": "q", "window": 3,
                                  "seqs": [5, 7], "etypes": ["A", "B"],
                                  "attributes": {"p": 10.5, "n": 2}},
                            cursor=9)
        fast = encode_frame(frame)
        monkeypatch.setattr(wire, "_fastjson", None)
        assert encode_frame(frame) == fast


# -- batch decode -----------------------------------------------------------

seqs = st.one_of(st.integers(-5, 40), st.booleans(), st.none(),
                 st.just(BIG), st.text(max_size=2), st.floats(0, 9))
etypes = st.one_of(st.sampled_from(["A", "B", "", "quote"]), st.none(),
                   st.integers(0, 3))
timestamps = st.one_of(st.floats(-5, 50), st.integers(-5, 50),
                       st.booleans(), st.none(), st.text(max_size=2))
attributes = st.one_of(st.dictionaries(st.text(max_size=3),
                                       st.integers(0, 9), max_size=2),
                       st.none(), st.lists(st.integers(), max_size=2))


@st.composite
def wire_objects(draw):
    """Wire ``event`` objects, mostly well-formed: any field may be
    missing, mistyped or joined by extra keys; some are not objects."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                              st.lists(st.integers(), max_size=4)))
    obj = {"seq": draw(st.integers(0, 40)), "etype": "A",
           "timestamp": draw(st.floats(0, 50)), "attributes": {}}
    for key, strategy in (("seq", seqs), ("etype", etypes),
                          ("timestamp", timestamps),
                          ("attributes", attributes)):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            del obj[key]
        elif roll == 1:
            obj[key] = draw(strategy)
    if draw(st.integers(0, 9)) == 0:
        obj["extra"] = draw(st.integers())
    return obj


def per_event(objs, default_seq):
    """What the server's per-event loop did before the batch decoder:
    ``(events, next_seq, error text or None)``."""
    events, next_seq = [], default_seq
    for obj in objs:
        try:
            event = event_from_wire(obj, default_seq=next_seq)
        except WireError as error:
            return events, next_seq, str(error)
        if next_seq is not None and event.seq >= next_seq:
            next_seq = event.seq + 1
        events.append(event)
    return events, next_seq, None


class TestBatchDecode:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(wire_objects(), max_size=8),
           st.one_of(st.none(), st.integers(0, 30)))
    def test_batch_equals_per_event(self, objs, default_seq):
        want, want_next, want_error = per_event(objs, default_seq)
        try:
            got, got_next = events_from_wire(objs, default_seq)
        except WireError as error:
            assert str(error) == want_error
            assert error.next_seq == want_next
        else:
            assert want_error is None
            assert [as_tuple(e) for e in got] == \
                [as_tuple(e) for e in want]
            assert got_next == want_next

    def test_missing_seqs_are_numbered_consecutively(self):
        events, next_seq = events_from_wire(
            [{"etype": "A"}, {"etype": "B", "seq": 9}, {"etype": "C"}], 4)
        assert [e.seq for e in events] == [4, 9, 10] and next_seq == 11

    def test_an_int_timestamp_comes_out_a_float(self):
        (event,), _ = events_from_wire(
            [{"etype": "A", "seq": 1, "timestamp": 3}])
        assert event.timestamp == 3.0 and type(event.timestamp) is float

    def test_a_null_timestamp_is_refused_not_defaulted(self):
        with pytest.raises(WireError):
            events_from_wire([{"etype": "A", "seq": 1, "timestamp": None}])

    def test_rows_are_the_wals_alone(self):
        row = pack_event(event_from_wire({"etype": "A", "seq": 3}))
        with pytest.raises(WireError) as err:
            events_from_wire([row], 0)       # the server's call
        assert str(err.value) == "event must be a JSON object"
        (event,), _ = events_from_wire([row], packed=True)
        assert as_tuple(event) == as_tuple(unpack_event(row))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        wire_objects(),
        st.tuples(seqs, etypes, timestamps, attributes).map(list)),
        max_size=6))
    def test_packed_batch_equals_unpack_event(self, objs):
        want, error = [], None
        for obj in objs:
            try:
                want.append(unpack_event(obj))
            except WireError as exc:
                error = str(exc)
                break
        try:
            got, next_seq = events_from_wire(objs, packed=True)
        except WireError as exc:
            assert str(exc) == error
        else:
            assert error is None and next_seq is None
            assert [as_tuple(e) for e in got] == \
                [as_tuple(e) for e in want]

    def test_next_seq_after_a_mid_batch_error(self, json_codec):
        """The elements before the offender consumed their sequence
        numbers, exactly as the per-event loop left it."""
        objs = [{"etype": "A"}, {"etype": "B", "seq": 20},
                {"etype": "", "seq": 99}, {"etype": "C", "seq": 50}]
        _events, want_next, error = per_event(objs, 7)
        assert error and want_next == 21

        async def scenario():
            core = ServerCore(ServerConfig(engine="sequential"))
            core._next_seq = 7
            with pytest.raises(ProtocolError) as err:
                core._decode_events(objs)
            assert err.value.code == "protocol"
            assert str(err.value) == error
            assert core._next_seq == want_next
            events = core._decode_events([{"etype": "D"}])
            assert [e.seq for e in events] == [21]
            assert core._next_seq == 22
            await core.shutdown("test-teardown")

        asyncio.run(scenario())
