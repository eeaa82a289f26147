"""Tests for the process-parallel sharded runtime.

The shard boundary rule is the Forest independence rule applied
statically, so shards are dependency-closed and the merged output must
be exactly the sequential engine's — in-process, forked, with more
workers than shards, and on the degenerate single-shard stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_nyse, leading_symbols
from repro.events import make_event
from repro.queries import make_q1, make_qe
from repro.runtime.sharding import (
    ShardedSpectreEngine,
    merge_run_stats,
    plan_shards,
)
from repro.spectre import RunStats, SpectreConfig, SpectreEngine
from repro.streaming.builder import pipeline
from repro.windows import WindowSpec

from tests.helpers import ab_query


def tumbling_ab_stream(n=40):
    """A/B alternation: every tumbling window holds a match."""
    return [make_event(i, "A" if i % 2 == 0 else "B") for i in range(n)]


class TestPlanShards:
    def test_tumbling_windows_shard_per_window(self):
        spec = WindowSpec.count_sliding(4, 4)
        events = tumbling_ab_stream(16)
        plan = plan_shards(spec, events)
        assert plan.total_windows == 4
        assert len(plan) == 4
        assert [s.window_count for s in plan] == [1, 1, 1, 1]
        assert [s.window_id_offset for s in plan] == [0, 1, 2, 3]

    def test_event_ranges_partition_the_stream(self):
        spec = WindowSpec.count_sliding(4, 4)
        events = tumbling_ab_stream(18)  # trailing partial window
        plan = plan_shards(spec, events)
        assert plan.shards[0].start_pos == 0
        assert plan.shards[-1].end_pos == len(events)
        for left, right in zip(plan.shards, plan.shards[1:]):
            assert left.end_pos == right.start_pos
        assert sum(s.event_count for s in plan) == len(events)
        assert sum(s.window_count for s in plan) == plan.total_windows

    def test_overlapping_windows_collapse_to_one_shard(self):
        spec = WindowSpec.count_sliding(6, 3)  # slide < size: all chained
        plan = plan_shards(spec, tumbling_ab_stream(30))
        assert len(plan) == 1
        assert plan.shards[0].window_count == plan.total_windows

    def test_windowless_stream_is_one_covering_shard(self):
        spec = WindowSpec.count_on(5, lambda event: False)
        plan = plan_shards(spec, tumbling_ab_stream(10))
        assert len(plan) == 1
        assert plan.total_windows == 0
        assert plan.shards[0].event_count == 10

    def test_empty_stream(self):
        plan = plan_shards(WindowSpec.count_sliding(4, 4), [])
        assert len(plan) == 1
        assert plan.total_events == 0

    def test_time_window_islands_cut_at_island_starts(self):
        spec = WindowSpec.time_on(12.0, lambda event: event.etype == "A")
        events = []
        for island in range(3):
            base = island * 1000.0
            for j in range(6):
                events.append(make_event(len(events),
                                         "A" if j % 3 == 0 else "B",
                                         timestamp=base + j))
        plan = plan_shards(spec, events)
        assert len(plan) == 3
        # every non-first shard starts exactly at its first window's start
        assert [s.start_pos for s in plan.shards] == [0, 6, 12]


class TestMergeRunStats:
    def test_counters_add_peaks_max_latencies_concat(self):
        a = RunStats(cycles=3, windows_emitted=2, max_tree_size=5,
                     window_latencies=[1.0, 2.0])
        b = RunStats(cycles=4, windows_emitted=1, max_tree_size=9,
                     window_latencies=[3.0])
        merged = merge_run_stats([a, b])
        assert merged.cycles == 7
        assert merged.windows_emitted == 3
        assert merged.max_tree_size == 9
        assert merged.window_latencies == [1.0, 2.0, 3.0]

    def test_empty(self):
        merged = merge_run_stats([])
        assert merged.cycles == 0
        assert merged.window_latencies == []


class TestShardedEquivalence:
    @pytest.fixture(scope="class")
    def nyse(self):
        # sparse leading quotes + small windows: island-heavy stream
        return generate_nyse(2000, n_symbols=150, n_leading=2, seed=13)

    @pytest.fixture(scope="class")
    def q1(self):
        return make_q1(q=8, window_size=60,
                       leading_symbols=leading_symbols(2))

    def test_plan_actually_shards(self, nyse, q1):
        plan = plan_shards(q1.window, nyse)
        assert len(plan) > 1  # the workload must exercise the merge

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, nyse, q1, workers):
        expected = pipeline(q1).engine("sequential").run(nyse)
        engine = ShardedSpectreEngine(q1, SpectreConfig(k=2),
                                      workers=workers)
        result = engine.run(nyse)
        assert result.identities() == expected.identities()
        # window ids are remapped onto the *global* decomposition, so
        # they must agree with the sequential engine's window ids too
        assert [ce.window_id for ce in result.complex_events] == \
            [ce.window_id for ce in expected.complex_events]

    def test_merged_stats_cover_all_windows(self, nyse, q1):
        engine = ShardedSpectreEngine(q1, SpectreConfig(k=2), workers=2)
        result = engine.run(nyse)
        assert engine.plan is not None
        assert result.stats.windows_total == engine.plan.total_windows
        assert result.stats.windows_emitted == result.stats.windows_total
        assert result.input_events == len(nyse)
        assert result.virtual_time > 0

    def test_consumed_ledger_matches_unsharded_engine(self, nyse, q1):
        unsharded = SpectreEngine(q1, SpectreConfig(k=2))
        unsharded.run(nyse)
        sharded = ShardedSpectreEngine(q1, SpectreConfig(k=2), workers=2)
        sharded.run(nyse)
        assert sharded.consumed_seqs == unsharded._ledger.snapshot()

    def test_single_shard_stream_with_many_workers(self):
        """Degenerate: fully chained windows → one shard; extra workers
        must fold to in-process execution and stay exact."""
        query = ab_query(window=6, slide=3)
        events = tumbling_ab_stream(40)
        expected = pipeline(query).engine("sequential").run(events)
        engine = ShardedSpectreEngine(query, SpectreConfig(k=2), workers=4)
        result = engine.run(events)
        assert len(engine.plan) == 1
        assert engine.workers_used == 1
        assert result.identities() == expected.identities()

    def test_more_workers_than_shards(self):
        query = ab_query(window=4, slide=4)
        events = tumbling_ab_stream(12)  # 3 shards
        expected = pipeline(query).engine("sequential").run(events)
        engine = ShardedSpectreEngine(query, SpectreConfig(k=2), workers=8)
        result = engine.run(events)
        assert len(engine.plan) == 3
        assert engine.workers_used == 3
        assert result.identities() == expected.identities()

    def test_empty_stream(self):
        result = pipeline(ab_query()).engine("sharded", workers=2).run([])
        assert result.complex_events == []
        assert result.input_events == 0

    def test_worker_failure_propagates(self, nyse, q1):
        engine = ShardedSpectreEngine(q1, SpectreConfig(k=2), workers=2)

        def exploding_shard(shard):
            raise RuntimeError("boom in shard %d" % shard.index)

        engine._run_shard = exploding_shard  # inherited by forked workers
        with pytest.raises(RuntimeError, match="failed in a worker"):
            engine.run(nyse)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ShardedSpectreEngine(ab_query(), workers=0)

    def test_workers_default_from_config(self):
        engine = ShardedSpectreEngine(ab_query(),
                                      SpectreConfig(workers=3))
        assert engine.workers == 3


@st.composite
def island_streams(draw):
    """Streams of 1..5 timestamp-islands for the QE time-window query.

    Within an island consecutive events are < 4s apart (windows chain);
    islands are 1000s apart (far beyond the 12s window duration), so
    each island that opens at least one window becomes its own shard.
    """
    n_islands = draw(st.integers(min_value=1, max_value=5))
    events = []
    timestamp = 0.0
    for island in range(n_islands):
        timestamp += 1000.0
        for _ in range(draw(st.integers(min_value=2, max_value=12))):
            timestamp += draw(st.integers(min_value=1, max_value=3))
            events.append(make_event(
                len(events),
                draw(st.sampled_from(["A", "B", "X"])),
                timestamp=timestamp,
                change=float(draw(st.integers(min_value=1, max_value=5)))))
    return events


class TestShardedProperty:
    @settings(max_examples=15, deadline=None)
    @given(events=island_streams())
    def test_sharded_identical_to_sequential(self, events):
        """Complex events, consumed ledger and match counts of the
        sharded runtime equal the baselines on randomized island
        streams — including the 1-island (single-shard) degenerate case
        and worker counts exceeding the island count."""
        query = make_qe("selected-b", window_seconds=12.0)
        expected = pipeline(query).engine("sequential").run(events)
        unsharded = SpectreEngine(query, SpectreConfig(k=2))
        unsharded.run(events)
        sharded = ShardedSpectreEngine(query, SpectreConfig(k=2),
                                       workers=4)
        result = sharded.run(events)
        assert result.identities() == expected.identities()
        assert len(result.complex_events) == len(expected.complex_events)
        assert sharded.consumed_seqs == unsharded._ledger.snapshot()
