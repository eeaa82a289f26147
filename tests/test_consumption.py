"""Unit tests for consumption groups and the ledger."""

import pytest

from repro.consumption import ConsumptionGroup, ConsumptionLedger, GroupState
from repro.events import make_event


class _StubMatch:
    """Minimal PartialMatch stand-in."""

    def __init__(self, delta):
        self.match_id = 0
        self._delta = delta

    @property
    def delta(self):
        return self._delta

    @property
    def consumable(self):
        return ()


class TestConsumptionGroup:
    def test_initial_state(self):
        group = ConsumptionGroup(1)
        assert group.is_open
        assert group.state is GroupState.OPEN
        assert group.version == 0

    def test_add_bumps_version(self):
        group = ConsumptionGroup(1)
        group.add(make_event(0, "A"))
        assert group.version == 1
        assert 0 in group.event_seqs

    def test_event_seqs_reference_is_a_snapshot(self):
        """An update publishes a new set (copy-on-write), so readers in
        other threads never see one mid-mutation."""
        group = ConsumptionGroup(1, events=[make_event(0, "A")])
        before = group.event_seqs
        group.add(make_event(1, "A"))
        assert before == {0} and group.event_seqs == {0, 1}
        group.complete([make_event(1, "A")])
        assert group.event_seqs == {1}

    def test_add_duplicate_is_noop(self):
        group = ConsumptionGroup(1)
        event = make_event(0, "A")
        group.add(event)
        group.add(event)
        assert group.version == 1
        assert len(group.events) == 1

    def test_initial_events_counted(self):
        group = ConsumptionGroup(1, events=[make_event(0, "A"),
                                            make_event(1, "B")])
        assert group.event_seqs == frozenset({0, 1})

    def test_complete_finalizes_events(self):
        group = ConsumptionGroup(1, events=[make_event(0, "A")])
        group.complete(final_events=[make_event(0, "A"), make_event(1, "B")])
        assert group.state is GroupState.COMPLETED
        assert group.event_seqs == frozenset({0, 1})
        assert group.delta == 0

    def test_complete_twice_rejected(self):
        group = ConsumptionGroup(1)
        group.complete()
        with pytest.raises(RuntimeError):
            group.complete()

    def test_abandon(self):
        group = ConsumptionGroup(1)
        group.abandon()
        assert group.state is GroupState.ABANDONED
        with pytest.raises(RuntimeError):
            group.abandon()

    def test_add_after_resolution_rejected(self):
        group = ConsumptionGroup(1)
        group.complete()
        with pytest.raises(RuntimeError):
            group.add(make_event(0, "A"))

    def test_retract_from_completed(self):
        group = ConsumptionGroup(1)
        group.complete()
        group.retract()
        assert group.state is GroupState.ABANDONED

    def test_delta_tracks_match(self):
        match = _StubMatch(delta=3)
        group = ConsumptionGroup(1, match=match)
        assert group.delta == 3
        match._delta = 1
        assert group.delta == 1

    def test_delta_without_match(self):
        assert ConsumptionGroup(1).delta == 1

    def test_overlaps_seqs(self):
        group = ConsumptionGroup(1, events=[make_event(5, "A")])
        assert group.overlaps_seqs([5, 9])
        assert not group.overlaps_seqs([1, 2])


class TestConsumptionLedger:
    def test_consume_and_lookup(self):
        ledger = ConsumptionLedger()
        event = make_event(3, "A")
        assert not ledger.is_consumed(event)
        ledger.consume([event])
        assert ledger.is_consumed(event)
        assert event in ledger
        assert 3 in ledger.seqs

    def test_seqs_is_the_live_set(self):
        ledger = ConsumptionLedger()
        seqs = ledger.seqs
        ledger.consume_seqs([2])
        assert ledger.seqs is seqs and 2 in seqs

    def test_consume_seqs(self):
        ledger = ConsumptionLedger()
        ledger.consume_seqs([1, 2, 3])
        assert len(ledger) == 3

    def test_snapshot_is_frozen(self):
        ledger = ConsumptionLedger()
        ledger.consume_seqs([1])
        snapshot = ledger.snapshot()
        ledger.consume_seqs([2])
        assert snapshot == frozenset({1})
