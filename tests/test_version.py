"""Unit tests for window versions (speculative processing state)."""

from repro.consumption import ConsumptionGroup
from repro.events import EventStream, make_event
from repro.spectre.version import WindowVersion
from repro.windows import Window

from tests.helpers import ab_query


def make_version(assumes_completed=(), assumes_abandoned=(), ledger=None,
                 size=10):
    stream = EventStream(make_event(i, "A") for i in range(50))
    window = Window(0, stream, start_pos=0, end_pos=size)
    return WindowVersion(0, window, ab_query(),
                         assumes_completed=tuple(assumes_completed),
                         assumes_abandoned=tuple(assumes_abandoned),
                         ledger=ledger)


class TestConsistencyChecks:
    def test_no_violation_without_overlap(self):
        group = ConsumptionGroup(0, events=[make_event(5, "A")])
        version = make_version(assumes_completed=[group])
        version.used_seqs.add(1)
        assert not version.consistency_violations()

    def test_violation_on_late_update(self):
        group = ConsumptionGroup(0)
        version = make_version(assumes_completed=[group])
        version.used_seqs.add(5)
        assert not version.consistency_violations()  # records version
        group.add(make_event(5, "A"))                # late update
        assert version.consistency_violations()

    def test_unchanged_group_not_rechecked(self):
        group = ConsumptionGroup(0, events=[make_event(5, "A")])
        version = make_version(assumes_completed=[group])
        assert not version.consistency_violations()
        # now the version erroneously uses event 5, but the group did not
        # change since the last check -> the Fig. 8 check skips it
        version.used_seqs.add(5)
        assert not version.consistency_violations()


class TestRollback:
    def test_rollback_resets_state(self):
        version = make_version()
        version.position = 7
        version.used_seqs.add(3)
        version.finished = True
        group = ConsumptionGroup(0)
        version.register_group(group, object())
        retired = version.rollback()
        assert retired == [group]
        assert version.position == 0
        assert version.used_seqs == set()
        assert version.own_groups == []
        assert not version.finished
        assert version.rollbacks == 1


class TestFinalValidation:
    def test_ok_when_assumptions_hold(self):
        completed = ConsumptionGroup(0, events=[make_event(5, "A")])
        completed.complete()
        abandoned = ConsumptionGroup(1)
        abandoned.abandon()
        version = make_version(assumes_completed=[completed],
                               assumes_abandoned=[abandoned])
        version.used_seqs.update({1, 2})
        assert version.final_validation_ok()

    def test_fails_on_used_suppressed_event(self):
        completed = ConsumptionGroup(0, events=[make_event(5, "A")])
        completed.complete()
        version = make_version(assumes_completed=[completed])
        version.used_seqs.add(5)
        assert not version.final_validation_ok()

    def test_fails_on_unresolved_assumption(self):
        open_group = ConsumptionGroup(0)
        version = make_version(assumes_completed=[open_group])
        assert not version.final_validation_ok()

    def test_fails_on_wrong_outcome(self):
        group = ConsumptionGroup(0)
        group.complete()
        version = make_version(assumes_abandoned=[group])
        assert not version.final_validation_ok()


class TestLifecycle:
    def test_detector_created_lazily(self):
        version = make_version()
        assert version.detector is None
        detector = version.ensure_detector()
        assert detector is version.ensure_detector()
