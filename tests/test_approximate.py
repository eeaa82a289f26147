"""Tests for approximate early emission (the Sec. 5 future-work feature)."""

import pytest

from repro.datasets import generate_nyse, leading_symbols
from repro.queries import make_q1
from repro.spectre import SpectreConfig, SpectreEngine
from repro.spectre.approximate import survival_probability
from repro.spectre.version import WindowVersion
from repro.streaming.builder import pipeline
from tests.helpers import TreeHarness, fingerprint


@pytest.fixture(scope="module")
def nyse():
    return generate_nyse(2000, n_symbols=60, n_leading=2, seed=11)


@pytest.fixture(scope="module")
def query():
    return make_q1(q=8, window_size=300, leading_symbols=leading_symbols(2))


def approximate(query, events, threshold=0.9, k=4):
    """The final stream with the early one on ``result.early``."""
    return SpectreEngine(query, SpectreConfig(
        k=k, emission_threshold=threshold)).run(events)


class TestApproximateEmission:
    def test_final_output_unchanged(self, nyse, query):
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = approximate(query, nyse, 0.7)
        assert result.identities() == expected

    def test_high_threshold_high_precision(self, nyse, query):
        result = approximate(query, nyse, 0.95)
        assert result.precision >= 0.9

    def test_early_emissions_exist(self, nyse, query):
        result = approximate(query, nyse, 0.7)
        assert len(result.early) > 0
        for emission in result.early:
            assert emission.survival_probability >= 0.7

    def test_recall_complete_at_any_threshold(self, nyse, query):
        # every final event passes through a version whose survival
        # probability reaches 1.0 at the latest when it becomes root
        result = approximate(query, nyse, 1.0)
        assert result.recall == 1.0

    def test_lower_threshold_not_less_early(self, nyse, query):
        strict = approximate(query, nyse, 0.99)
        loose = approximate(query, nyse, 0.5)
        assert len(loose.early) >= len(strict.early)

    def test_no_duplicate_early_emissions(self, nyse, query):
        result = approximate(query, nyse, 0.6)
        identities = [e.complex_event.identity() for e in result.early]
        assert len(identities) == len(set(identities))

    def test_threshold_validation(self, query):
        with pytest.raises(ValueError, match="emission_threshold"):
            SpectreConfig(emission_threshold=0.0)
        with pytest.raises(ValueError, match="emission_threshold"):
            SpectreConfig(emission_threshold=1.5)

    @pytest.mark.parametrize("threshold", [-0.1, float("nan"), 1.0001])
    def test_threshold_out_of_range(self, threshold):
        with pytest.raises(ValueError, match="emission_threshold"):
            SpectreConfig(emission_threshold=threshold)

    @pytest.mark.parametrize("scheduler", ["topk", "fifo", "roundrobin"])
    def test_every_scheduler_releases_early_and_stays_correct(
            self, nyse, query, scheduler):
        """The release step runs in the splitter cycle whichever
        strategy picks the versions; the final output is unchanged."""
        expected = pipeline(query).engine("sequential").run(nyse).identities()
        result = SpectreEngine(query, SpectreConfig(
            k=4, scheduler=scheduler, emission_threshold=0.7)).run(nyse)
        assert result.identities() == expected
        assert result.early
        assert all(0.7 <= e.survival_probability <= 1.0
                   for e in result.early)
        assert result.recall == 1.0

    def test_unset_threshold_emits_nothing_early(self, nyse, query):
        result = SpectreEngine(query, SpectreConfig(k=4)).run(nyse)
        assert result.early == []

    def test_empty_run_perfect_scores(self, query):
        result = approximate(query, [], k=2)
        assert result.precision == 1.0
        assert result.recall == 1.0


@pytest.mark.parametrize("resolve, factor", [
    (None, 0.8), ("complete", 1.0), ("abandon", 0.0)])
def test_survival_probability_prices_resolved_groups_as_certain(
        resolve, factor):
    """Open groups are priced by the model; a resolved group whose
    version is not yet pruned contributes certainty, exactly as the
    top-k selection prices it."""
    harness = TreeHarness()
    completed, abandoned = harness.group([1]), harness.group([2])
    if resolve is not None:
        getattr(completed, resolve)()
    version = WindowVersion(version_id=0, window=harness.window(),
                            query=harness.query,
                            assumes_completed=(completed,),
                            assumes_abandoned=(abandoned,))
    priced = {completed.group_id: 0.8, abandoned.group_id: 0.3}
    probability = survival_probability(
        version, lambda group: priced[group.group_id])
    assert probability == pytest.approx(factor * (1.0 - 0.3))


# Recorded from the ApproximateSpectreEngine subclass this config field
# replaced: the same threshold on the same events must reproduce its
# runs — and its early emissions' (identity, survival_probability,
# cycle) — bit-for-bit.
@pytest.mark.parametrize("threshold, options, pinned", [
    (0.6, {"k": 4}, ("6eb2686502b0cbf4", 55, 5288.0, [], 55)),
    (1.0, {"k": 4}, ("6eb2686502b0cbf4", 55, 5288.0, [], 55)),
    (0.3, {"k": 16, "probability_model": "fixed", "fixed_probability": 0.7},
     ("a8d6afe80eea9eab", 55, 1464.0, [], 58)),
    (0.95, {"k": 16, "probability_model": "fixed",
            "fixed_probability": 0.7},
     ("4ced3fdc9a7490e1", 55, 1464.0, [], 58)),
], ids=["markov-0.6", "markov-1.0", "fixed-0.3", "fixed-0.95"])
def test_pinned_runs(nyse, query, threshold, options, pinned):
    engine = SpectreEngine(query, SpectreConfig(
        **options, emission_threshold=threshold))
    assert fingerprint(engine, engine.run(nyse)) == pinned
