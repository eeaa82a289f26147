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
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable

from repro.consumption.group import ConsumptionGroup, GroupState
from repro.spectre.tree import DependencyTree, GroupVertex, VersionVertex
from repro.spectre.version import WindowVersion

GroupProbability = Callable[[ConsumptionGroup], float]


def completion_probability(group: ConsumptionGroup,
                           group_probability: GroupProbability) -> float:
    """Resolved groups have certain outcomes (pruning may lag by a
    cycle); open ones are priced by ``group_probability``."""
    if group.state is GroupState.COMPLETED:
        return 1.0
    if group.state is GroupState.ABANDONED:
        return 0.0
    return group_probability(group)


def find_top_k(trees: Iterable[DependencyTree], k: int,
               group_probability: GroupProbability
               ) -> list[tuple[WindowVersion, float]]:
    """The k schedulable versions with the highest survival probability.

    ``group_probability`` prices an *open* group's completion; resolved
    groups contribute certainty.  Returns ``(version, probability)`` pairs
    in decreasing probability order.
    """
    counter = itertools.count()  # deterministic tie-break
    heap: list[tuple[float, int, object]] = []

    def push(vertex, probability: float) -> None:
        if vertex is None or probability <= 0.0:
            return
        heapq.heappush(heap, (-probability, next(counter), vertex))

    for tree in trees:
        push(tree.root, 1.0)

    result: list[tuple[WindowVersion, float]] = []
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
