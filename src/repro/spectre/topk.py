"""Top-k window-version selection (Sec. 3.2.2, Fig. 6).

Survival probabilities decrease root-to-leaf, so the dependency tree is
already a max-heap over versions: the top-k can be found by a best-first
traversal with a priority queue seeded at the root — visiting only the
minimal number of vertices.

``find_top_k`` generalises Fig. 6 in two harmless ways:

* it traverses a *forest* (independent windows each root a tree; every
  root enters the queue with probability 1.0), and
* finished or dead versions are passed through without occupying one of
  the k result slots (they need no operator instance, but their subtrees
  still hold the most probable speculative work).

The scan runs every splitter cycle, so it is one loop with no helper
call per vertex (an integer tie counter, ``type(v) is VersionVertex``,
resolved groups priced inline) that pushes what a closure-based push
would, in the same order and with the same tie-breaks.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.consumption.group import ConsumptionGroup, GroupState
from repro.spectre.tree import DependencyTree, VersionVertex
from repro.spectre.version import WindowVersion

GroupProbability = Callable[[ConsumptionGroup], float]
COMPLETED, ABANDONED = GroupState.COMPLETED, GroupState.ABANDONED


def completion_probability(group: ConsumptionGroup,
                           group_probability: GroupProbability) -> float:
    """Resolved groups have certain outcomes (pruning may lag by a
    cycle); open ones are priced by ``group_probability``."""
    if group.state is COMPLETED:
        return 1.0
    if group.state is ABANDONED:
        return 0.0
    return group_probability(group)


def find_top_k(trees: Iterable[DependencyTree], k: int,
               group_probability: GroupProbability
               ) -> list[tuple[WindowVersion, float]]:
    """The k schedulable versions with the highest survival probability.

    ``group_probability`` prices an *open* group's completion; resolved
    groups contribute certainty (:func:`completion_probability`, inlined).
    Returns ``(version, probability)`` pairs in decreasing probability
    order; equal probabilities leave the queue in push order.
    """
    heap: list[tuple[float, int, object]] = []
    push, pop = heapq.heappush, heapq.heappop
    tie = 0  # deterministic tie-break: one per push
    for tree in trees:
        if tree.root is not None:
            push(heap, (-1.0, tie, tree.root))
            tie += 1

    result: list[tuple[WindowVersion, float]] = []
    while heap and len(result) < k:
        neg_probability, _tie, vertex = pop(heap)
        probability = -neg_probability
        if type(vertex) is VersionVertex:
            version = vertex.version
            if version.alive and not version.finished:
                result.append((version, probability))
            if vertex.child is not None:  # probability > 0, as pushed
                push(heap, (neg_probability, tie, vertex.child))
                tie += 1
            continue
        group = vertex.group
        state = group.state
        complete_p = (1.0 if state is COMPLETED else
                      0.0 if state is ABANDONED else group_probability(group))
        for child, child_p in (
                (vertex.completion_child, probability * complete_p),
                (vertex.abandon_child, probability * (1.0 - complete_p))):
            if child is not None and child_p > 0.0:
                push(heap, (-child_p, tie, child))
                tie += 1
    return result
