"""The windowed session scaffold (``streaming.session.WindowedSession``):
one splitter, one closed-window hand-off, one *processed through* cursor
from which garbage collection and time progress are both derived.

* time does not depend on memory: ``watermark`` is the same with ``gc``
  on and off, on every windowed engine;
* ``Splitter.min_live_start()`` / ``earliest_live_start()`` are the
  brute-force minimum over unprocessed windows, in O(1);
* T-REX is the sequential window loop plus a type check;
* guard: nothing outside the scaffold builds a ``Splitter`` for an
  engine session or names the removed private spellings.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser
from repro.durability.wal import FSYNC_POLICIES
from repro.events import make_event
from repro.hub import StreamHub
from repro.patterns.parser import parse_query
from repro.queries import make_q1
from repro.server.core import SLOW_CONSUMER_POLICIES
from repro.streaming import Session
from repro.streaming.session import WindowedSession
from repro.windows import Splitter
from tests.helpers import ENGINE_CASES
from tests.test_streaming_sessions import (
    WINDOW_SPECS,
    abc_query,
    abc_stream,
    chunked,
    make_engine,
    spec_query,
)

SRC = Path(__file__).parent.parent / "src"

streams = st.lists(
    st.tuples(st.sampled_from("ABCX"), st.integers(0, 3)),
    min_size=0, max_size=60,
).map(lambda rows: [
    make_event(seq, etype, float(sum(gap for _t, gap in rows[:seq + 1])))
    for seq, (etype, _gap) in enumerate(rows)])
sizes = st.lists(st.integers(1, 17), min_size=1, max_size=5)


# -- time progress does not depend on garbage collection ---------------------

@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_watermark_is_the_same_with_gc_on_and_off(name):
    """Regression: "live" used to be spelled "not yet retired", so a
    ``gc=False`` session's watermark stayed at its first window."""
    query = parse_query("PATTERN (A B C) WITHIN 12 events FROM every 4 "
                        "events", name="abc")
    events = [make_event(i, "ABCX"[i % 4], float(i)) for i in range(200)]
    collecting = make_engine(name, query).open(gc=True)
    keeping = make_engine(name, query).open(gc=False)
    assert isinstance(keeping, WindowedSession)
    for event in events:
        assert collecting.push(event) == keeping.push(event)
        assert keeping.watermark == collecting.watermark
        assert keeping.earliest_live_start() == \
            collecting.earliest_live_start()
    assert keeping.splitter.stream.offset == 0  # gc=False kept everything
    assert keeping.watermark == 188.0
    collecting.close()
    keeping.close()


# -- O(1) liveness ≡ brute force ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(stream=streams, sizes=sizes,
       spec_name=st.sampled_from(sorted(WINDOW_SPECS)),
       retire_lag=st.integers(0, 3))
def test_min_live_start_is_the_brute_force_minimum(stream, sizes, spec_name,
                                                   retire_lag):
    splitter = Splitter(WINDOW_SPECS[spec_name])
    processed = -1
    for chunk in chunked(stream, sizes):
        splitter.ingest_many(chunk)
        for window in splitter.drain_closed():
            processed = window.window_id
        splitter.retire(processed - retire_lag)
        starts = [window.start_pos for window in splitter.windows]
        assert splitter.min_live_start() == \
            min(starts, default=len(splitter.stream))
        live = [window for window in splitter.windows
                if window.window_id > processed]
        assert splitter.windows[splitter.live_index(processed):] == live


@settings(max_examples=60, deadline=None)
@given(stream=streams, sizes=sizes,
       spec_name=st.sampled_from(sorted(WINDOW_SPECS)),
       classified=st.booleans(), gc=st.booleans(),
       name=st.sampled_from(["sequential", "trex", "spectre"]))
def test_earliest_live_start_is_the_brute_force_minimum(
        stream, sizes, spec_name, classified, gc, name):
    """An eager in-order or speculative session has processed exactly
    the closed windows after every push, so the live ones are the
    not-yet-closed ones of a reference splitter that never retires."""
    query = spec_query(spec_name, classified)
    session = make_engine(name, query).open(gc=gc)
    reference, processed = Splitter(query.window), set()
    for chunk in chunked(stream, sizes):
        session.push_many(chunk)
        reference.ingest_many(chunk)
        processed.update(w.window_id for w in reference.drain_closed())
        starts = [window.start_event.timestamp
                  for window in reference.windows
                  if window.window_id not in processed]
        assert session.earliest_live_start() == min(starts, default=None)
        assert session.watermark == min(starts, default=chunk[-1].timestamp)
    session.flush()
    assert session.earliest_live_start() is None


def test_sessions_that_window_nothing_have_no_live_window():
    class Windowless(Session):
        def _ingest_many(self, events):
            pass

        def _drain(self):
            return []

        def _finish(self):
            pass

        def result(self):
            return None

    session = Windowless()
    assert session.earliest_live_start() is None
    assert session.watermark == float("-inf")
    session.push(make_event(0, "A", 3.0))
    assert session.watermark == 3.0


def test_pipeline_session_and_hub_read_the_scaffold():
    from repro.streaming.builder import pipeline
    session = pipeline(abc_query(12, 4)).engine("sequential").open()
    for event in abc_stream(30):
        session.push(event)
    assert session.earliest_live_start() == \
        session.inner.earliest_live_start() == session.watermark
    hub = StreamHub()
    assert not hub.is_flushed
    hub.flush()
    assert hub.is_flushed and not hub.is_closed


# -- T-REX is the sequential loop plus a type check --------------------------

@pytest.fixture(params=["compiled", "interpreted"])
def compile_mode(request, monkeypatch):
    if request.param == "interpreted":
        monkeypatch.setenv("REPRO_COMPILE", "0")
    return request.param


class TestTRexIsTheSequentialLoop:
    @pytest.mark.parametrize("spec_name", sorted(WINDOW_SPECS))
    @pytest.mark.parametrize("classified", [True, False])
    @pytest.mark.parametrize("sizes", [[1], [3, 1, 7], [500]])
    def test_identities_and_counters_per_push(self, compile_mode, spec_name,
                                              classified, sizes):
        query = spec_query(spec_name, classified)
        stream = [make_event(i, etype, 0.7 * i) for i, etype in
                  enumerate(e.etype for e in abc_stream(160, seed=3))]
        sequential = make_engine("sequential", query).open()
        trex = make_engine("trex", query).open()
        for chunk in chunked(stream, sizes):
            assert [ce.identity() for ce in trex.push_many(chunk)] == \
                [ce.identity() for ce in sequential.push_many(chunk)]
            self.assert_same_counters(trex, sequential)
            assert trex.watermark == sequential.watermark
        assert [ce.identity() for ce in trex.flush()] == \
            [ce.identity() for ce in sequential.flush()]
        self.assert_same_counters(trex, sequential)
        assert trex.consumed_seqs() == sequential.consumed_seqs()
        assert trex.result().identities()  # the workload is not vacuous

    @staticmethod
    def assert_same_counters(trex, sequential):
        ours, theirs = trex.result(), sequential.result()
        assert ours.identities() == theirs.identities()
        assert (ours.windows, ours.events_fed) == \
            (theirs.windows, theirs.events_fed)
        assert ours.input_events == trex.events_pushed

    def test_batch_run_is_timed(self, compile_mode):
        query, stream = abc_query(12, 4), abc_stream(200)
        result = make_engine("trex", query).run(stream)
        expected = make_engine("sequential", query).run(stream)
        assert result.identities() == expected.identities()
        assert (result.windows, result.events_fed, result.input_events) == \
            (expected.windows, expected.events_fed, len(stream))
        assert result.wall_seconds > 0 and result.events_per_second > 0

    def test_udf_queries_are_refused(self, compile_mode):
        query = make_q1(q=2, window_size=10, leading_symbols=["L0000"])
        events = [make_event(i, "quote", symbol="L0000", openPrice=1.0,
                             closePrice=2.0) for i in range(12)]
        with pytest.raises(TypeError, match="automaton queries"):
            make_engine("trex", query).run(events)
        session = make_engine("trex", query).open()
        with pytest.raises(TypeError, match="automaton queries"):
            for event in events:  # raised by the first closed window
                session.push(event)


# -- one home per policy string ----------------------------------------------

def test_cli_policy_choices_read_the_owning_constants():
    serve = next(action for action in build_parser()._actions
                 if action.dest == "command").choices["serve"]
    choices = {action.dest: action.choices for action in serve._actions}
    assert choices["wal_fsync"] is FSYNC_POLICIES
    assert choices["slow_consumer"] is SLOW_CONSUMER_POLICIES


# -- guards -------------------------------------------------------------------

def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC / "repro").as_posix(), \
            ast.parse(path.read_text())


def _enclosing_functions(tree):
    """``(function name or None, node)`` for every node of ``tree``."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inside = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield inside, child
            yield from walk(child, inside)
    return walk(tree, None)


def test_only_the_scaffold_builds_an_engine_sessions_splitter():
    """``Splitter(...)`` is constructed by the windows package, the
    session scaffold and the hub's ``SharedGroup`` — no engine or
    session module."""
    allowed = {("streaming/session.py", "__init__"),
               ("hub/optimizer.py", "admit")}
    offenders = [
        f"{module}:{node.lineno} in {function}"
        for module, tree in _modules() if not module.startswith("windows/")
        for function, node in _enclosing_functions(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "Splitter"
        and (module, function) not in allowed]
    assert not offenders, "\n".join(offenders)


def test_removed_private_spellings_stay_removed():
    """Nothing under ``src/`` reaches for ``._splitter`` or
    ``_live_window_starts``: the scaffold's ``splitter`` attribute and
    ``earliest_live_start()`` are the public forms."""
    banned = {"_splitter", "_live_window_starts"}

    def spelled(node):
        if isinstance(node, ast.Constant):  # getattr(x, "_splitter")
            return node.value if isinstance(node.value, str) else None
        return getattr(node, "attr", None) or getattr(node, "name", None)

    offenders = [f"{module}:{node.lineno}: {spelled(node)}"
                 for module, tree in _modules() for node in ast.walk(tree)
                 if spelled(node) in banned]
    assert not offenders, "\n".join(offenders)
    assert not hasattr(Session, "_live_window_starts")
