"""The dependency tree (Sec. 3.1, Figs. 3 and 4).

Vertices are window versions or consumption groups:

* a :class:`VersionVertex` has at most one child — the root of the
  sub-hierarchy of everything depending on that version;
* a :class:`GroupVertex` has two children: the *completion edge* links the
  subtree of versions that assume the group completes (and therefore
  suppress its events), the *abandon edge* links the subtree that assumes
  it is abandoned.

The four management algorithms of Fig. 4 map to:

========================  ======================================
paper                      here
========================  ======================================
``newWindow``              :meth:`DependencyTree.new_window`
``consumptionGroupCreated``:meth:`DependencyTree.group_created`
``consumptionGroupCompleted`` / ``...Abandoned``
                           :meth:`DependencyTree.group_resolved`
(rollback retraction)      :meth:`DependencyTree.retract_group`
========================  ======================================

Subtree copies (on group creation) start from *fresh* window versions:
a copy suppresses a different event set than the original, so inherited
partial matches would be speculative fiction — the copy re-derives its
own matches when scheduled.  Group vertices owned by the *creating*
version itself (a version with several open groups) are cloned sharing
the group object, so that resolving the group prunes every clone.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from repro.consumption.group import ConsumptionGroup, GroupState
from repro.spectre.version import WindowVersion
from repro.windows.window import Window

# parent_edge values
EDGE_CHILD = "child"
EDGE_COMPLETION = "completion"
EDGE_ABANDON = "abandon"

VersionFactory = Callable[
    [Window, tuple[ConsumptionGroup, ...], tuple[ConsumptionGroup, ...]],
    WindowVersion,
]


class VersionVertex:
    """v(WV): vertex of one window version."""

    __slots__ = ("version", "parent", "parent_edge", "child")

    def __init__(self, version: WindowVersion) -> None:
        self.version = version
        self.parent: Optional[Vertex] = None
        self.parent_edge: str = EDGE_CHILD
        self.child: Optional[Vertex] = None

    def __repr__(self) -> str:
        return f"v({self.version!r})"


class GroupVertex:
    """v(CG): vertex of one consumption group (two outcome edges).

    A resolved vertex (its group completed or abandoned) stays in the tree
    with only its valid edge until the tree root advances past it: new
    dependent windows attached below must still inherit the assumption,
    because the group's consumption enters the global ledger only when its
    owner window is emitted.
    """

    __slots__ = ("group", "owner", "parent", "parent_edge",
                 "completion_child", "abandon_child")

    def __init__(self, group: ConsumptionGroup, owner: WindowVersion) -> None:
        self.group = group
        self.owner = owner
        self.parent: Optional[Vertex] = None
        self.parent_edge: str = EDGE_CHILD
        self.completion_child: Optional[Vertex] = None
        self.abandon_child: Optional[Vertex] = None

    @property
    def resolved_outcome(self) -> Optional[bool]:
        """None while open; True once completed; False once abandoned."""
        if self.group.state is GroupState.COMPLETED:
            return True
        if self.group.state is GroupState.ABANDONED:
            return False
        return None

    def valid_child(self) -> Optional["Vertex"]:
        """The surviving child of a resolved vertex."""
        outcome = self.resolved_outcome
        assert outcome is not None, "vertex not resolved yet"
        return self.completion_child if outcome else self.abandon_child

    def __repr__(self) -> str:
        return f"v({self.group!r})"


Vertex = Union[VersionVertex, GroupVertex]


def _attach(parent: Optional[Vertex], edge: str,
            child: Optional[Vertex]) -> None:
    """Link ``child`` under ``parent`` via ``edge`` (both may be None)."""
    if parent is not None:
        if isinstance(parent, VersionVertex):
            assert edge == EDGE_CHILD
            parent.child = child
        elif edge == EDGE_COMPLETION:
            parent.completion_child = child
        else:
            parent.abandon_child = child
    if child is not None:
        child.parent = parent
        child.parent_edge = edge


def path_assumptions(
    parent: Optional[Vertex], edge: str
) -> tuple[tuple[ConsumptionGroup, ...], tuple[ConsumptionGroup, ...]]:
    """Groups assumed completed/abandoned on the root path that enters a
    new vertex below ``parent`` via ``edge``."""
    completed: list[ConsumptionGroup] = []
    abandoned: list[ConsumptionGroup] = []
    node, via = parent, edge
    while node is not None:
        if isinstance(node, GroupVertex):
            if via == EDGE_COMPLETION:
                completed.append(node.group)
            elif via == EDGE_ABANDON:
                abandoned.append(node.group)
        via = node.parent_edge
        node = node.parent
    return tuple(reversed(completed)), tuple(reversed(abandoned))


class DependencyTree:
    """One dependency tree, rooted at an independent window's version."""

    def __init__(self, tree_id: int, version_factory: VersionFactory) -> None:
        self.tree_id = tree_id
        self._make_version = version_factory
        self.root: Optional[VersionVertex] = None
        # group_id -> live vertices referencing the group (clones share)
        self._group_vertices: dict[int, list[GroupVertex]] = {}
        # version_id -> vertex (O(1) lookup on group creation)
        self._version_vertices: dict[int, VersionVertex] = {}
        self.version_count = 0
        self.windows: list[Window] = []

    # -- traversal helpers -------------------------------------------------

    def iter_vertices(self) -> Iterator[Vertex]:
        stack: list[Vertex] = [self.root] if self.root else []
        while stack:
            vertex = stack.pop()
            yield vertex
            if isinstance(vertex, VersionVertex):
                if vertex.child is not None:
                    stack.append(vertex.child)
            else:
                if vertex.completion_child is not None:
                    stack.append(vertex.completion_child)
                if vertex.abandon_child is not None:
                    stack.append(vertex.abandon_child)

    def iter_versions(self) -> Iterator[WindowVersion]:
        for vertex in self.iter_vertices():
            if isinstance(vertex, VersionVertex):
                yield vertex.version

    def leaves(self) -> list[tuple[Vertex, str]]:
        """All open attachment points: ``(vertex, edge)`` pairs where a new
        dependent window version can hang (Fig. 4 lines 2–9).

        Resolved group vertices offer only their valid edge — attaching a
        version on the pruned side would revive a dead hypothesis."""
        result: list[tuple[Vertex, str]] = []
        for vertex in self.iter_vertices():
            if isinstance(vertex, VersionVertex):
                if vertex.child is None:
                    result.append((vertex, EDGE_CHILD))
                continue
            outcome = vertex.resolved_outcome
            if outcome is None:
                if vertex.completion_child is None:
                    result.append((vertex, EDGE_COMPLETION))
                if vertex.abandon_child is None:
                    result.append((vertex, EDGE_ABANDON))
            elif outcome and vertex.completion_child is None:
                result.append((vertex, EDGE_COMPLETION))
            elif not outcome and vertex.abandon_child is None:
                result.append((vertex, EDGE_ABANDON))
        return result

    def _subtree_windows(self, vertex: Optional[Vertex]) -> list[Window]:
        """Distinct windows below (and including) ``vertex``, id order."""
        seen: dict[int, Window] = {}
        stack = [vertex] if vertex is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, VersionVertex):
                seen[node.version.window.window_id] = node.version.window
                if node.child is not None:
                    stack.append(node.child)
            else:
                if node.completion_child is not None:
                    stack.append(node.completion_child)
                if node.abandon_child is not None:
                    stack.append(node.abandon_child)
        return [seen[wid] for wid in sorted(seen)]

    def collect_versions(self, vertex: Optional[Vertex]) -> list[WindowVersion]:
        """All window versions in the subtree rooted at ``vertex``."""
        result: list[WindowVersion] = []
        stack = [vertex] if vertex is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, VersionVertex):
                result.append(node.version)
                if node.child is not None:
                    stack.append(node.child)
            else:
                if node.completion_child is not None:
                    stack.append(node.completion_child)
                if node.abandon_child is not None:
                    stack.append(node.abandon_child)
        return result

    # -- construction -------------------------------------------------------

    def _new_version_vertex(self, window: Window, parent: Optional[Vertex],
                            edge: str) -> VersionVertex:
        completed, abandoned = path_assumptions(parent, edge)
        version = self._make_version(window, completed, abandoned)
        vertex = VersionVertex(version)
        _attach(parent, edge, vertex)
        self.version_count += 1
        self._version_vertices[version.version_id] = vertex
        return vertex

    def seed(self, window: Window) -> WindowVersion:
        """Create the root: the single version of the independent window."""
        assert self.root is None, "tree already seeded"
        self.root = self._new_version_vertex(window, None, EDGE_CHILD)
        self.windows.append(window)
        return self.root.version

    def new_window(self, window: Window) -> list[WindowVersion]:
        """Fig. 4, ``newWindow``: attach versions of ``window`` at every
        leaf (one per open edge)."""
        assert self.root is not None
        created = []
        for vertex, edge in self.leaves():
            created.append(self._new_version_vertex(window, vertex, edge)
                           .version)
        self.windows.append(window)
        return created

    # -- group creation (with subtree copy) ----------------------------------

    def group_created(self, owner: WindowVersion,
                      group: ConsumptionGroup) -> list[WindowVersion]:
        """Fig. 4, ``consumptionGroupCreated``.

        The owner vertex's old subtree becomes the abandon edge; a
        modified copy — fresh versions that suppress ``group``'s events —
        becomes the completion edge.  Returns the fresh versions created.
        """
        owner_vertex = self._find_version_vertex(owner)
        assert owner_vertex is not None, f"owner {owner!r} not in tree"
        old_child = owner_vertex.child

        group_vertex = GroupVertex(group, owner)
        self._group_vertices.setdefault(group.group_id, []).append(group_vertex)
        _attach(owner_vertex, EDGE_CHILD, group_vertex)
        _attach(group_vertex, EDGE_ABANDON, old_child)
        # the original subtree now sits on the abandon edge: record the
        # assumption on its versions so validation can check it later
        for version in self.collect_versions(old_child):
            if group not in version.assumes_abandoned:
                version.assumes_abandoned = version.assumes_abandoned + (group,)

        fresh: list[WindowVersion] = []
        copy = self._copy_for_completion(old_child, owner, group_vertex,
                                         EDGE_COMPLETION, fresh)
        _attach(group_vertex, EDGE_COMPLETION, copy)
        return fresh

    def _copy_for_completion(self, original: Optional[Vertex],
                             owner: WindowVersion,
                             parent: Vertex, edge: str,
                             out_fresh: list[WindowVersion]
                             ) -> Optional[Vertex]:
        """Modified copy of ``original`` for a new group's completion edge.

        Group vertices owned by ``owner`` itself are cloned (sharing the
        group object); dependent-window structure is replaced by a chain
        of fresh versions, one per distinct window in the original.
        """
        if original is None:
            return None
        if isinstance(original, GroupVertex) and original.owner is owner:
            clone = GroupVertex(original.group, owner)
            self._group_vertices.setdefault(original.group.group_id,
                                            []).append(clone)
            _attach(parent, edge, clone)
            completion = self._copy_for_completion(
                original.completion_child, owner, clone, EDGE_COMPLETION,
                out_fresh)
            _attach(clone, EDGE_COMPLETION, completion)
            abandon = self._copy_for_completion(
                original.abandon_child, owner, clone, EDGE_ABANDON, out_fresh)
            _attach(clone, EDGE_ABANDON, abandon)
            return clone
        # dependent-window subtree → fresh chain
        return self._fresh_chain(self._subtree_windows(original), parent,
                                 edge, out_fresh)

    def _fresh_chain(self, windows: list[Window], parent: Vertex, edge: str,
                     out_fresh: Optional[list[WindowVersion]] = None
                     ) -> Optional[Vertex]:
        """A chain of fresh versions (one per window) below ``parent``."""
        head: Optional[Vertex] = None
        current_parent, current_edge = parent, edge
        for window in windows:
            vertex = self._new_version_vertex(window, current_parent,
                                              current_edge)
            if out_fresh is not None:
                out_fresh.append(vertex.version)
            if head is None:
                head = vertex
            current_parent, current_edge = vertex, EDGE_CHILD
        return head

    def _find_version_vertex(self, version: WindowVersion
                             ) -> Optional[VersionVertex]:
        return self._version_vertices.get(version.version_id)

    # -- resolution / pruning ----------------------------------------------

    def group_resolved(self, group: ConsumptionGroup,
                       completed: bool) -> list[WindowVersion]:
        """Fig. 4, ``consumptionGroupCompleted``/``...Abandoned``: prune
        the invalid subtree of every vertex of ``group``.

        The vertex itself *stays* in the tree (with its valid edge only)
        until the root advances past it: the group's consumption reaches
        the global ledger only when its owner window is emitted, so
        windows admitted in between must still find the assumption on
        their root path.  Returns the versions dropped with the invalid
        subtrees."""
        dropped: list[WindowVersion] = []
        for vertex in list(self._group_vertices.get(group.group_id, ())):
            if completed:
                dropped.extend(self._drop_subtree(vertex.abandon_child))
                vertex.abandon_child = None
            else:
                dropped.extend(self._drop_subtree(vertex.completion_child))
                vertex.completion_child = None
        return dropped

    def retract_group(self, group: ConsumptionGroup) -> list[WindowVersion]:
        """Rollback retraction: the owner is reprocessing from scratch, so
        the group's speculative structure is discarded as if abandoned
        (``group.retract()`` has already forced the ABANDONED state).

        If the group had already *completed* its abandon subtree was
        pruned back then; dropping the completion subtree now would leave
        the branch without any version of the dependent windows, and root
        advancement would silently skip them.  Those windows are re-seeded
        as a fresh chain on the abandon edge."""
        dropped: list[WindowVersion] = []
        for vertex in list(self._group_vertices.get(group.group_id, ())):
            lost_windows = self._subtree_windows(vertex.completion_child)
            dropped.extend(self._drop_subtree(vertex.completion_child))
            vertex.completion_child = None
            if vertex.abandon_child is None and lost_windows:
                self._fresh_chain(lost_windows, vertex, EDGE_ABANDON)
        return dropped

    def _drop_subtree(self, vertex: Optional[Vertex]) -> list[WindowVersion]:
        """Mark every version in the subtree dead; unregister groups whose
        vertices all lie inside it."""
        dropped: list[WindowVersion] = []
        stack = [vertex] if vertex is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, VersionVertex):
                node.version.alive = False
                dropped.append(node.version)
                self.version_count -= 1
                self._version_vertices.pop(node.version.version_id, None)
                if node.child is not None:
                    stack.append(node.child)
            else:
                registry = self._group_vertices.get(node.group.group_id)
                if registry is not None:
                    try:
                        registry.remove(node)
                    except ValueError:
                        pass
                    if not registry:
                        del self._group_vertices[node.group.group_id]
                if node.completion_child is not None:
                    stack.append(node.completion_child)
                if node.abandon_child is not None:
                    stack.append(node.abandon_child)
        return dropped

    # -- root advancement ------------------------------------------------------

    def root_version(self) -> Optional[WindowVersion]:
        return self.root.version if self.root is not None else None

    def root_groups_resolved(self) -> bool:
        """Are all of the root version's own groups resolved?

        The root's group vertices form a chain below it (resolved vertices
        keep their valid edge); any still-open vertex blocks emission."""
        if self.root is None:
            return True
        node = self.root.child
        while isinstance(node, GroupVertex):
            outcome = node.resolved_outcome
            if outcome is None:
                return False
            node = node.valid_child()
        return True

    def advance_root(self, on_stale: Optional[
            Callable[[WindowVersion], None]] = None
            ) -> Optional[WindowVersion]:
        """Pop the (finished, resolved, emitted) root.

        The resolved group vertices of the old root are spliced out here —
        their consumption is in the global ledger from now on — and the
        surviving version of the next window becomes the new root.

        Because the spliced groups leave the tree, they are also removed
        from the ``assumes_completed``/``assumes_abandoned`` tuples of
        every surviving version: the assumption became a certainty the
        moment the owner window was emitted (suppression now flows from
        the global ledger), and keeping it would let a version's recorded
        assumptions drift from its actual root path.  A surviving version
        that *used* an event of a completed spliced group violated its
        assumption without being caught by a consistency check; each such
        version is passed to ``on_stale`` so the engine can roll it back
        before the violation can reach the output.

        Returns the new root version, or None if the tree is exhausted."""
        assert self.root is not None
        node = self.root.child
        spliced: list[GroupVertex] = []
        while isinstance(node, GroupVertex):
            registry = self._group_vertices.get(node.group.group_id)
            if registry is not None:
                try:
                    registry.remove(node)
                except ValueError:
                    pass
                if not registry:
                    del self._group_vertices[node.group.group_id]
            spliced.append(node)
            next_node = node.valid_child()
            node = next_node
        assert node is None or isinstance(node, VersionVertex)
        old_root = self.root.version
        old_root.alive = False
        self.version_count -= 1
        self._version_vertices.pop(old_root.version_id, None)
        self.windows = [w for w in self.windows
                        if w.window_id > old_root.window.window_id]
        self.root = node
        if node is not None:
            node.parent = None
            node.parent_edge = EDGE_CHILD
            if spliced:
                self._strip_emitted_assumptions(node, spliced, on_stale)
            return node.version
        return None

    def _strip_emitted_assumptions(
            self, subtree: Vertex, spliced: list[GroupVertex],
            on_stale: Optional[Callable[[WindowVersion], None]]) -> None:
        """Drop the spliced-out groups from every surviving version's
        assumptions (their outcome is final and their consumption, if
        any, is in the global ledger)."""
        gone = {vertex.group.group_id for vertex in spliced}
        completed_spliced = [vertex.group for vertex in spliced
                             if vertex.group.state is GroupState.COMPLETED]
        for version in self.collect_versions(subtree):
            stale = any(group.overlaps_seqs(version.used_seqs)
                        for group in completed_spliced
                        if group in version.assumes_completed)
            if any(g.group_id in gone for g in version.assumes_completed):
                version.assumes_completed = tuple(
                    g for g in version.assumes_completed
                    if g.group_id not in gone)
            if any(g.group_id in gone for g in version.assumes_abandoned):
                version.assumes_abandoned = tuple(
                    g for g in version.assumes_abandoned
                    if g.group_id not in gone)
            if stale and on_stale is not None:
                on_stale(version)

    @property
    def is_exhausted(self) -> bool:
        return self.root is None

    def max_unresolved_end(self) -> int:
        """Largest end position among this tree's windows (overlap test)."""
        ends = [w.end_pos for w in self.windows if w.end_pos is not None]
        return max(ends) if ends else 0
