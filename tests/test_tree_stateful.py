"""Stateful property test: the dependency tree under random op sequences.

Hypothesis drives arbitrary interleavings of the Fig. 4 operations —
window admission, group creation, resolution, retraction, root
advancement — and checks structural invariants after every step:

* parent/child links are mutually consistent;
* ``version_count`` equals the number of live versions in the tree;
* every live version's ``assumes_completed`` matches the completion-edge
  groups on its root path;
* resolved group vertices retain only their valid edge;
* group vertices always have resolvable registry entries;
* the Fig. 6 scan picks the same ``(version, probability)`` list as
  the closure-based reference below, for k in {1, 3, 8}.
"""

import heapq
import itertools

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import hypothesis.strategies as st

from repro.consumption.group import GroupState
from repro.spectre.topk import completion_probability, find_top_k
from repro.spectre.tree import GroupVertex, VersionVertex, path_assumptions

from tests.helpers import TreeHarness

# open-group prices: ties, zero-probability edges and certain completion
PRICES = (0.0, 0.25, 0.5, 1.0)


def reference_find_top_k(trees, k, group_probability):
    """The Fig. 6 scan as a closure over ``heapq`` and
    ``itertools.count`` — the formulation ``find_top_k`` inlines."""
    counter = itertools.count()  # deterministic tie-break
    heap = []

    def push(vertex, probability: float) -> None:
        if vertex is None or probability <= 0.0:
            return
        heapq.heappush(heap, (-probability, next(counter), vertex))

    for tree in trees:
        push(tree.root, 1.0)

    result = []
    while heap and len(result) < k:
        neg_probability, _tie, vertex = heapq.heappop(heap)
        probability = -neg_probability
        if isinstance(vertex, VersionVertex):
            version = vertex.version
            if version.alive and not version.finished:
                result.append((version, probability))
            push(vertex.child, probability)
        else:
            assert isinstance(vertex, GroupVertex)
            complete_p = completion_probability(vertex.group,
                                                group_probability)
            push(vertex.completion_child, probability * complete_p)
            push(vertex.abandon_child, probability * (1.0 - complete_p))
    return result


class DependencyTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.harness = TreeHarness()
        self.tree = self.harness.tree
        self.next_start = 0
        self.open_groups = []
        self.prices = {}
        self.tree.seed(self._window())

    def _window(self):
        window = self.harness.window(start=self.next_start, size=10)
        self.next_start += 3
        return window

    def _live_versions(self):
        return [v for v in self.tree.iter_versions() if v.alive]

    # -- rules -----------------------------------------------------------

    @rule()
    def new_window(self):
        if self.tree.is_exhausted:
            return
        self.tree.new_window(self._window())

    @rule(data=st.data())
    def create_group(self, data):
        if self.tree.is_exhausted:
            return
        candidates = [v for v in self._live_versions()
                      if not any(g.owner is v for g in self.open_groups)]
        if not candidates:
            return
        owner = data.draw(st.sampled_from(candidates))
        group = self.harness.group(events=[owner.window.start_pos])
        group.owner = owner
        self.prices[group.group_id] = data.draw(st.sampled_from(PRICES))
        owner.own_groups.append(group)
        self.tree.group_created(owner, group)
        self.open_groups.append(group)

    @rule(data=st.data(), completed=st.booleans())
    def resolve_group(self, data, completed):
        live = [g for g in self.open_groups
                if g.owner is not None and g.owner.alive]
        if not live:
            return
        group = data.draw(st.sampled_from(live))
        self.open_groups.remove(group)
        if completed:
            group.complete()
        else:
            group.abandon()
        self.tree.group_resolved(group, completed=completed)

    @rule(data=st.data())
    def retract_group(self, data):
        live = [g for g in self.open_groups
                if g.owner is not None and g.owner.alive]
        if not live:
            return
        group = data.draw(st.sampled_from(live))
        self.open_groups.remove(group)
        group.retract()
        self.tree.retract_group(group)

    @rule(data=st.data())
    def finish_version(self, data):
        """A finished version keeps its vertex but needs no instance."""
        live = self._live_versions()
        if live:
            data.draw(st.sampled_from(live)).finished = True

    @rule()
    def advance_root(self):
        if self.tree.is_exhausted:
            return
        if not self.tree.root_groups_resolved():
            return
        root = self.tree.root_version()
        if any(g.is_open for g in root.own_groups):
            return
        self.tree.advance_root()

    # -- invariants --------------------------------------------------------

    @invariant()
    def parent_links_consistent(self):
        for vertex in self.tree.iter_vertices():
            if vertex.parent is None:
                assert vertex is self.tree.root
                continue
            parent = vertex.parent
            if isinstance(parent, VersionVertex):
                assert parent.child is vertex
            else:
                assert vertex in (parent.completion_child,
                                  parent.abandon_child)

    @invariant()
    def version_count_matches(self):
        assert self.tree.version_count == len(self._live_versions())

    @invariant()
    def reachable_versions_alive(self):
        for version in self.tree.iter_versions():
            assert version.alive

    @invariant()
    def assumptions_match_paths(self):
        for vertex in self.tree.iter_vertices():
            if not isinstance(vertex, VersionVertex):
                continue
            completed, _abandoned = path_assumptions(vertex.parent,
                                                     vertex.parent_edge)
            assert tuple(g.group_id for g in completed) == tuple(
                g.group_id for g in vertex.version.assumes_completed)

    @invariant()
    def resolved_vertices_keep_valid_edge_only(self):
        for vertex in self.tree.iter_vertices():
            if not isinstance(vertex, GroupVertex):
                continue
            if vertex.group.state is GroupState.COMPLETED:
                assert vertex.abandon_child is None
            elif vertex.group.state is GroupState.ABANDONED:
                assert vertex.completion_child is None

    @invariant()
    def top_k_scan_matches_reference(self):
        def price(group):
            return self.prices[group.group_id]
        for k in (1, 3, 8):
            assert find_top_k([self.tree], k, price) == \
                reference_find_top_k([self.tree], k, price)


TestDependencyTreeStateful = DependencyTreeMachine.TestCase
TestDependencyTreeStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
