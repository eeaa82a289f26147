"""Shared test helpers (importable; conftest.py re-exports fixtures)."""

from __future__ import annotations

import dataclasses
import hashlib

from repro.consumption.group import ConsumptionGroup
from repro.events import EventStream, make_event
from repro.patterns import Atom, ConsumptionPolicy, make_query
from repro.patterns.ast import sequence
from repro.spectre.elasticity import ElasticityPolicy
from repro.spectre.tree import DependencyTree
from repro.spectre.version import WindowVersion
from repro.streaming.builder import ENGINES, build_engine
from repro.windows import Window, WindowSpec

# Every engine configuration the parity suites run, by case name: each
# ENGINES row, plus the speculative engine under each of its two
# optional policies (an elasticity policy that re-sizes the pool every
# few cycles, and early emission).
ENGINE_CASES = {
    "sequential": ("sequential", {}),
    "trex": ("trex", {}),
    "spectre": ("spectre", {"k": 3}),
    "threaded": ("threaded", {"k": 2}),
    "elastic": ("spectre", {"k": 2, "elasticity": ElasticityPolicy(
        max_k=4, plateau_k=2, period=5, min_resolved=1)}),
    "approximate": ("spectre", {"k": 2, "emission_threshold": 0.9}),
}
# the cases whose engine takes a SpectreConfig
SPECULATIVE_CASES = [case for case, (engine, _) in ENGINE_CASES.items()
                     if ENGINES[engine].takes_config]


def build_case(query, case: str):
    """The engine of ``ENGINE_CASES[case]`` for ``query``."""
    engine, options = ENGINE_CASES[case]
    return build_engine(query, engine, **options)


def ab_query(consumption=None, window=6, slide=3):
    """Tiny A-then-B query used across engine/tree tests."""
    pattern = sequence(Atom("A", etype="A"), Atom("B", etype="B"))
    return make_query(
        "ab", pattern, WindowSpec.count_sliding(window, slide),
        consumption=consumption or ConsumptionPolicy.all())


class TreeHarness:
    """A DependencyTree wired to a trivial version factory."""

    def __init__(self):
        self.query = ab_query()
        self.stream = EventStream(make_event(i, "A") for i in range(100))
        self._next_version = 0
        self._next_window = 0
        self._next_group = 0
        self.tree = DependencyTree(0, self._make_version)

    def _make_version(self, window, completed, abandoned):
        version = WindowVersion(
            version_id=self._next_version, window=window, query=self.query,
            assumes_completed=completed, assumes_abandoned=abandoned)
        self._next_version += 1
        return version

    def window(self, start=0, size=10):
        window = Window(self._next_window, self.stream, start_pos=start,
                        end_pos=start + size)
        self._next_window += 1
        return window

    def group(self, events=()):
        group = ConsumptionGroup(self._next_group,
                                 events=[make_event(s, "A") for s in events])
        self._next_group += 1
        return group


def fingerprint(engine, result):
    """Digest of everything a run reports — identities, every
    ``RunStats`` field, ``virtual_time``, the adaptation records and the
    early emissions — plus the readable parts."""
    early = [(e.complex_event.identity(), e.survival_probability, e.cycle)
             for e in result.early]
    adaptations = [(r.cycle, r.completion_probability, r.k)
                   for r in engine.adaptations]
    run = (result.identities(), dataclasses.asdict(result.stats),
           result.virtual_time, adaptations, early)
    return (hashlib.sha256(repr(run).encode()).hexdigest()[:16],
            len(result.identities()), result.virtual_time, adaptations,
            len(early))
