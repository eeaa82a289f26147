"""Cross-query optimizer for the StreamHub.

A hub serving N attachments over one feed still paid N× the matching
cost: every attachment re-sorted nothing (PR 4 deduped that) but
re-split, re-classified and re-matched every event from scratch.  This
module makes the fan-out superlinear for query families that share
structure, in three stacked layers:

1. **Type-indexed routing** (:class:`RoutingIndex`): one ``etype →
   interested attachments`` index over each plan's ``relevant_types``.
   Each released chunk is classified once; attachments provably
   indifferent to an event never see it.  Skipping is only performed
   where it cannot change results: attachments whose window
   decomposition is *data-driven* (``OnPredicate`` start + ``TimeScope``
   scope, with a start predicate that declares its event type).
   Count/slide windows are positional — dropping an event would shift
   every later window — so those attachments stay on the offer-all
   path, and their sharing happens one level down, inside a
   :class:`SharedGroup` whose type index skips per *member* instead of
   per attachment.
2. **Kernel interning** (in :mod:`repro.matching.kernel`): identical
   predicate specs compile to one shared kernel with a process-unique
   ``kernel_id``, so "same predicate" is an int comparison.  Kernels
   whose spec references no earlier binding are ``binding_free``; the
   group memoizes their per-event truth value across queries and
   overlapping windows (:meth:`SharedGroup._kernel_true`).
3. **NFA prefix sharing** (:class:`SharedGroup`): attachments whose
   compiled element tables agree on window spec, policies and a common
   element/guard prefix are grouped under *one* splitter and *one*
   shared prefix stepper per window.  The stepper advances a single
   :class:`~repro.matching.nfa.NFAPartialMatch` over the longest common
   prefix; a member leaves the shared trajectory only when something
   member-specific happens — its suffix element binds (fork a private
   detector seeded from the shared bindings), its boundary guard fires
   (fork a fresh private detector), or its whole pattern is the prefix
   (complete directly, full deduplication).

Safety: each layer disables itself whenever its preconditions fail.

* Sharing requires ``FIRST`` selection, ``max_matches=1``, no
  consumption (consumption couples windows across queries through the
  per-query ledger), no anchoring, no derive, a compiled plan and fully
  interned kernels, and an ``EverySlide``/``CountScope`` window.
  Anything else — spectre engines, UDF queries, interpreted plans
  (``REPRO_COMPILE=0``), Kleene-consuming policies — attaches exactly
  as before.
* Per-attachment isolation is preserved: every member keeps its own
  result counters, window numbering, sinks, queue and admission
  watermark; the *identities* of emitted complex events equal an
  independent run (``ComplexEvent.identity()`` is window-id free, and
  member-local window ids equal the alone run's numbering).
* ``share=False`` on the hub or ``REPRO_SHARE=0`` in the environment
  switches every layer off for differential testing.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from heapq import merge as heap_merge
from typing import Any, Callable, Iterable, Optional

from repro.events.complex_event import ComplexEvent
from repro.events.event import Event
from repro.matching.kernel import (
    KIND_ATOM,
    KIND_KLEENE,
    KIND_SET,
    NEVER_KERNEL,
    ElementKernel,
    QueryPlan,
    kernel_id,
)
from repro.matching.nfa import NFADetector, NFAPartialMatch
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.patterns.query import Query
from repro.middleware.sinks import SinkDispatchMiddleware
from repro.sequential.engine import SequentialResult
from repro.streaming.session import Session
from repro.windows.specs import CountScope, EverySlide, OnPredicate, TimeScope
from repro.windows.splitter import Splitter
from repro.windows.window import Window

_NONE_POLICY = ConsumptionPolicy.none()
_EMPTY_EVENTS: tuple[Event, ...] = ()


def share_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the sharing flag: explicit argument wins, then the
    ``REPRO_SHARE`` environment variable, default on."""
    if override is not None:
        return override
    value = os.environ.get("REPRO_SHARE", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# plan signatures
# ---------------------------------------------------------------------------


def _element_sig(element: ElementKernel) -> Optional[tuple]:
    """Structural identity of one compiled element, or ``None`` when any
    kernel is not interned (opaque predicate / interpreted plan)."""
    if element.kind == KIND_SET:
        ids = tuple((name, kernel_id(m)) for name, m in element.members)
        if any(kid is None for _name, kid in ids):
            return None
        return (KIND_SET, ids)
    kid = kernel_id(element.matcher)
    if kid is None:
        return None
    return (element.kind, element.name, kid)


def _guard_sig(guards: tuple) -> Optional[tuple]:
    ids = tuple(kernel_id(m) for m in guards)
    if any(kid is None for kid in ids):
        return None
    return ids


def plan_signature(plan: QueryPlan) -> Optional[tuple]:
    """Per-position ``(element, guards)`` identity tuple, or ``None``
    when the plan contains any non-interned kernel."""
    sig = []
    for element, guards in zip(plan.elements, plan.guards):
        esig = _element_sig(element)
        gsig = _guard_sig(guards)
        if esig is None or gsig is None:
            return None
        sig.append((esig, gsig))
    return tuple(sig)


def member_signature(query: Query, engine: str) -> Optional[tuple]:
    """The query's sharing signature, or ``None`` when it must take the
    independent (unshared) path.  This is the safety gate for layer (c);
    every condition here corresponds to a semantic coupling that would
    break per-attachment ≡ alone-run parity if shared."""
    if engine != "sequential":
        return None  # speculative engines have their own window lifecycle
    plan = query.plan
    opts = query.nfa_options
    if plan is None or not plan.compiled or opts is None:
        return None  # UDF query or interpreted escape hatch
    if opts.max_matches != 1 or opts.anchored or opts.has_derive:
        return None
    if query.selection is not SelectionPolicy.FIRST:
        return None
    if not query.consumption.is_none:
        return None  # consumption couples windows through the ledger
    window = query.window
    if not isinstance(window.start, EverySlide) or \
            not isinstance(window.scope, CountScope):
        return None  # predicate/time windows carry opaque start closures
    return plan_signature(plan)


def routed_types_for(query: Query) -> Optional[frozenset]:
    """Event types the hub may route to this attachment exclusively, or
    ``None`` for the offer-all path.

    Hub-level skipping is only safe when the attachment's window
    decomposition cannot depend on the skipped events: predicate-opened,
    time-scoped windows whose start predicate declares the single event
    type it accepts (``predicate.relevant_etype``, as interned kernels
    and the helpers in this repo stamp) — positions never matter, and an
    event outside ``relevant_types`` can neither open a window, extend a
    match, trip a guard, nor be consumed."""
    plan = query.plan
    if plan is None or not plan.compiled or plan.relevant_types is None:
        return None
    window = query.window
    if not isinstance(window.start, OnPredicate) or \
            not isinstance(window.scope, TimeScope):
        return None
    start_type = getattr(window.start.predicate, "relevant_etype", None)
    if start_type is None or start_type not in plan.relevant_types:
        return None
    return plan.relevant_types


# ---------------------------------------------------------------------------
# layer (a): the hub-level routing index
# ---------------------------------------------------------------------------


class RoutingIndex:
    """Incrementally maintained ``etype → interested attachment names``.

    Entries with ``types=None`` live on the *offer-all* list (their
    events are never filtered).  The index is rebuilt incrementally on
    attach/detach; :meth:`snapshot` and :meth:`rebuild` exist so the
    differential suite can assert *index state == from-scratch rebuild*
    after every mutation."""

    def __init__(self) -> None:
        self._by_type: dict[str, list[str]] = {}
        self._types_of: dict[str, Optional[frozenset]] = {}
        self._offer_all: set[str] = set()

    def add(self, name: str, types: Optional[frozenset]) -> None:
        if name in self._types_of:
            raise ValueError(f"routing entry {name!r} already present")
        self._types_of[name] = types
        if types is None:
            self._offer_all.add(name)
            return
        for etype in types:
            self._by_type.setdefault(etype, []).append(name)

    def remove(self, name: str) -> None:
        types = self._types_of.pop(name, None)
        self._offer_all.discard(name)
        if types is None:
            return
        for etype in types:
            names = self._by_type.get(etype)
            if names is not None:
                names.remove(name)
                if not names:
                    del self._by_type[etype]

    @property
    def has_routed(self) -> bool:
        return bool(self._by_type)

    def interested(self, etype: str) -> list[str]:
        """Routed attachments interested in ``etype`` (offer-all
        attachments are not listed — they receive everything)."""
        return self._by_type.get(etype, [])

    def buckets(self, events: Iterable[Event]) -> dict[str, list[Event]]:
        """Classify a released chunk once: per routed attachment, the
        sub-chunk it should see."""
        out: dict[str, list[Event]] = {}
        by_type = self._by_type
        for event in events:
            names = by_type.get(event.etype)
            if not names:
                continue
            for name in names:
                bucket = out.get(name)
                if bucket is None:
                    out[name] = [event]
                else:
                    bucket.append(event)
        return out

    def snapshot(self) -> tuple:
        """Canonical, comparison-friendly state."""
        return (
            frozenset(self._offer_all),
            frozenset((etype, frozenset(names))
                      for etype, names in self._by_type.items()),
        )

    @classmethod
    def rebuild(cls, entries: Iterable[tuple[str, Optional[frozenset]]]
                ) -> "RoutingIndex":
        """A from-scratch index over ``(name, types)`` pairs — the test
        oracle for the incremental maintenance."""
        index = cls()
        for name, types in entries:
            index.add(name, types)
        return index


# ---------------------------------------------------------------------------
# layer (c): shared detector groups
# ---------------------------------------------------------------------------

_TRACKING = 0
_PRIVATE = 1
_DONE = 2


class GroupMember:
    """One attachment's membership in a :class:`SharedGroup`.

    Owns everything per-attachment: the result counters, the
    member-local window numbering (equal to the alone run's), and the
    pending-match buffer the hub drains after every group ingest."""

    __slots__ = ("uid", "name", "query", "plan", "sig", "group",
                 "attachment", "admission_position", "live",
                 "result", "_window_seq", "_pending")

    def __init__(self, uid: int, name: str, query: Query, sig: tuple,
                 group: "SharedGroup") -> None:
        self.uid = uid
        self.name = name
        self.query = query
        self.plan = query.plan
        self.sig = sig
        self.group = group
        self.attachment = None  # backref set by StreamHub.attach
        self.admission_position: Optional[int] = None
        self.live = True
        self.result = SequentialResult()
        self._window_seq = 0
        self._pending: list[ComplexEvent] = []

    @property
    def size(self) -> int:
        return self.plan.size

    def _emit(self, window_id: int, constituents: tuple[Event, ...]) -> None:
        self.result.groups_completed += 1
        match = ComplexEvent(query_name=self.query.name, window_id=window_id,
                             constituents=constituents, attributes={})
        self.result.complex_events.append(match)
        self._pending.append(match)

    def drain_pending(self) -> list[ComplexEvent]:
        pending, self._pending = self._pending, []
        return pending


class _MemberRun:
    """One member's state inside one shared window run."""

    __slots__ = ("member", "wid", "state", "detector", "belem", "bguards")

    def __init__(self, member: GroupMember, wid: int, p: int) -> None:
        self.member = member
        self.wid = wid
        self.state = _TRACKING
        self.detector: Optional[NFADetector] = None
        if member.size > p:
            self.belem = member.plan.elements[p]
            self.bguards = member.plan.guards[p]
        else:
            self.belem = None  # the whole pattern IS the prefix
            self.bguards = ()


class _ClusterPlan:
    """Cached per-cluster compilation: common prefix length, the prefix
    stepping plan (member elements[:p] plus a never-matching sentinel so
    a trailing Kleene prefix keeps absorbing instead of normalizing to
    "complete"), and the union relevance filter."""

    __slots__ = ("p", "prefix_plan", "last_kleene", "union_types")

    def __init__(self, cluster: list[GroupMember]) -> None:
        if len(cluster) == 1:
            self.p = 0
            self.prefix_plan = None
            self.last_kleene = False
        else:
            sigs = [m.sig for m in cluster]
            p = 0
            limit = min(len(sig) for sig in sigs)
            first = sigs[0]
            while p < limit and all(sig[p] == first[p] for sig in sigs[1:]):
                p += 1
            assert p >= 1, "clusters are keyed by their first element"
            self.p = p
            base = cluster[0].plan
            sentinel = ElementKernel(KIND_ATOM, "__never__", NEVER_KERNEL,
                                     (), 1)
            self.prefix_plan = QueryPlan(
                base.pattern, base.elements[:p] + (sentinel,),
                base.guards[:p] + ((),), None, True)
            self.last_kleene = base.elements[p - 1].kind == KIND_KLEENE
        union: Optional[set] = set()
        for member in cluster:
            types = member.plan.relevant_types
            if types is None:
                union = None
                break
            union.update(types)
        self.union_types = frozenset(union) if union is not None else None


def _fork_match(shared: NFAPartialMatch, member: GroupMember
                ) -> NFAPartialMatch:
    """A member-private partial match seeded from the shared prefix
    trajectory.  Kleene bindings are lists — copied, so the shared match
    keeps absorbing without mutating the fork."""
    match = NFAPartialMatch(0, member.plan, _NONE_POLICY)
    match.pos = shared.pos
    match.bindings = {
        name: (value[:] if value.__class__ is list else value)
        for name, value in shared.bindings.items()
    }
    match.bound_order = list(shared.bound_order)
    return match


def _continuation_detector(member: GroupMember,
                           match: NFAPartialMatch) -> NFADetector:
    """An NFA detector resumed mid-window from a seeded partial match —
    from here on the member runs exactly its alone-run automaton."""
    detector = NFADetector(
        member.query.pattern, selection=SelectionPolicy.FIRST,
        consumption=_NONE_POLICY, max_matches=1, anchor=None,
        derive=None, plan=member.plan)
    detector._active = [match]
    detector._next_match_id = 1
    return detector


def _fresh_detector(member: GroupMember) -> NFADetector:
    return NFADetector(
        member.query.pattern, selection=SelectionPolicy.FIRST,
        consumption=_NONE_POLICY, max_matches=1, anchor=None,
        derive=None, plan=member.plan)


@dataclass(frozen=True)
class SharingStats:
    """Hub-level sharing counters (part of ``HubStats``)."""

    enabled: bool
    groups: int
    shared_attachments: int
    windows_shared: int
    prefix_events_saved: int
    memo_hits: int
    memo_misses: int

    def to_dict(self) -> dict:
        """JSON-safe snapshot (all fields are already scalars)."""
        return {
            "enabled": self.enabled,
            "groups": self.groups,
            "shared_attachments": self.shared_attachments,
            "windows_shared": self.windows_shared,
            "prefix_events_saved": self.prefix_events_saved,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }


class SharedGroup:
    """One splitter + one type index + one shared prefix stepper serving
    every member with the same window spec.

    The group ingests the hub's released events exactly once (positions
    are group-local; ``origin`` maps them back to hub positions).  Each
    closed window is processed one-shot — the same moment a standalone
    ``SequentialSession`` would process it — for the members admitted at
    or before its start.  Members are clustered by their first element's
    signature: clusters of one run a plain private detector over the
    member's relevant event positions (the type index makes that scan
    sparse); clusters of two or more advance one shared prefix match and
    fork member-private continuations only at the suffix boundary."""

    def __init__(self, window_spec) -> None:
        self.window_spec = window_spec
        self.members: list[GroupMember] = []
        self.origin: Optional[int] = None  # hub position of local pos 0
        self._next: Optional[int] = None   # next hub position to ingest
        self.splitter: Optional[Splitter] = None
        self._types: dict[str, list[int]] = {}
        self._last_processed = -1
        self._last_ts = float("-inf")
        self._uids = 0
        self._cluster_cache: dict[tuple, _ClusterPlan] = {}
        self._memo: dict[tuple, bool] = {}
        # observability
        self.windows_shared = 0
        self.prefix_events_saved = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # -- membership --------------------------------------------------------

    def add_member(self, name: str, query: Query, sig: tuple) -> GroupMember:
        self._uids += 1
        member = GroupMember(self._uids, name, query, sig, self)
        self.members.append(member)
        self._cluster_cache.clear()
        return member

    def admit(self, member: GroupMember, position: int) -> None:
        """The hub admitted ``member`` at (slide-aligned) ``position``."""
        member.admission_position = position
        if self.origin is None:
            self.origin = position
            self._next = position
            self.splitter = Splitter(self.window_spec)

    def remove(self, member: GroupMember) -> None:
        member.live = False
        if member in self.members:
            self.members.remove(member)
            self._cluster_cache.clear()

    # -- ingestion ---------------------------------------------------------

    def ingest(self, events: list[Event], first_position: int) -> None:
        """Feed a released chunk (hub positions ``first_position...``);
        process every window it closed.  Matches land in each member's
        pending buffer for the hub to deliver."""
        if self.origin is None or not self.members:
            return
        skip = self._next - first_position
        if skip >= len(events):
            return
        if skip > 0:
            events = events[skip:]
        self._memo.clear()
        splitter = self.splitter
        types = self._types
        first = len(splitter.stream)
        # safe as one batch: closed windows are only processed below,
        # after the whole chunk is in the stream
        splitter.ingest_many(events)
        for position, event in enumerate(events, first):
            positions = types.get(event.etype)
            if positions is None:
                types[event.etype] = [position]
            else:
                positions.append(position)
        self._next += len(events)
        self._last_ts = events[-1].timestamp
        closed = splitter.drain_closed()
        if closed:
            for window in closed:
                self._process_window(window)
                self._last_processed = window.window_id
            self._collect_garbage()

    def _collect_garbage(self) -> None:
        self.splitter.retire(self._last_processed)
        self.splitter.trim_to_live()
        horizon = self.splitter.stream.offset
        for etype, positions in self._types.items():
            if positions and positions[0] < horizon:
                del positions[:bisect_left(positions, horizon)]

    # -- finishing ---------------------------------------------------------

    def finish_member(self, member: GroupMember) -> list[ComplexEvent]:
        """End-of-stream for one member (hub flush or mid-stream detach):
        run its remaining (open/truncated) windows privately — exactly
        what a standalone session's ``flush`` does — then drop it."""
        out = member.drain_pending()
        if member.live:
            for window in self._live_windows(member):
                end, length = window.end_pos, len(self.splitter.stream)
                end = length if end is None else min(end, length)
                wid = member._window_seq
                member._window_seq += 1
                member.result.windows += 1
                events = self._events_between(
                    window.start_pos, end, member.plan.relevant_types)
                self._run_private(member, wid, events)
        self.remove(member)
        out.extend(member.drain_pending())
        return out

    def _live_windows(self, member: GroupMember) -> list[Window]:
        """Windows not processed yet that ``member`` takes part in (it
        joined at or before their start), in start order: the session
        scaffold's cursor rule plus the per-member admission filter."""
        if member.admission_position is None or self.splitter is None:
            return []
        splitter = self.splitter
        floor = member.admission_position - self.origin
        return [window for window in
                splitter.windows[splitter.live_index(self._last_processed):]
                if window.start_pos >= floor]

    def member_watermark(self, member: GroupMember) -> float:
        """Start of ``member``'s earliest live window, else the last
        ingested timestamp."""
        live = self._live_windows(member)
        return live[0].start_event.timestamp if live else self._last_ts

    # -- window processing -------------------------------------------------

    def _process_window(self, window: Window) -> None:
        start_hub = self.origin + window.start_pos
        participants = [
            member for member in self.members
            if member.admission_position is not None
            and member.admission_position <= start_hub
        ]
        if not participants:
            return
        wids: dict[int, int] = {}
        for member in participants:
            wids[member.uid] = member._window_seq
            member._window_seq += 1
            member.result.windows += 1
        clusters: dict[tuple, list[GroupMember]] = {}
        for member in participants:
            clusters.setdefault(member.sig[0], []).append(member)
        for cluster in clusters.values():
            key = tuple(member.uid for member in cluster)
            cplan = self._cluster_cache.get(key)
            if cplan is None:
                cplan = _ClusterPlan(cluster)
                self._cluster_cache[key] = cplan
            if cplan.p == 0:
                member = cluster[0]
                events = self._events_between(
                    window.start_pos, window.end_pos,
                    cplan.union_types)
                self._run_private(member, wids[member.uid], events)
                size = window.end_pos - window.start_pos
                self._account_prefilter(cluster, window, cplan, size)
            else:
                self._run_cluster(window, cluster, cplan, wids)

    def _account_prefilter(self, cluster: list[GroupMember], window: Window,
                           cplan: _ClusterPlan, span: int) -> None:
        if cplan.union_types is None:
            return
        scanned = sum(
            len(self._positions_between(t, window.start_pos, window.end_pos))
            for t in cplan.union_types)
        for member in cluster:
            member.result.events_prefiltered += max(0, span - scanned)

    def _positions_between(self, etype: str, start: int, end: int
                           ) -> list[int]:
        positions = self._types.get(etype)
        if not positions:
            return []
        low = bisect_left(positions, start)
        high = bisect_left(positions, end)
        return positions[low:high]

    def _events_between(self, start: int, end: int,
                        types: Optional[frozenset]) -> Iterable[Event]:
        """The window slice, restricted to ``types`` via the group's
        type index (sparse iteration) when a filter is available."""
        stream = self.splitter.stream
        if types is None:
            return stream.slice(start, end)
        slices = [self._positions_between(etype, start, end)
                  for etype in types]
        slices = [s for s in slices if s]
        if not slices:
            return _EMPTY_EVENTS
        if len(slices) == 1:
            positions = slices[0]
        else:
            positions = heap_merge(*slices)
        return [stream[position] for position in positions]

    # -- private (unshared) member run ------------------------------------

    def _run_private(self, member: GroupMember, wid: int,
                     events: Iterable[Event]) -> None:
        detector = _fresh_detector(member)
        result = member.result
        for event in events:
            if detector.done:
                break
            result.events_fed += 1
            feedback = detector.process(event)
            if feedback.is_empty:
                continue
            if feedback.created:
                result.groups_created += len(feedback.created)
            for completion in feedback.completed:
                member._emit(wid, completion.constituents)
        detector.close()

    # -- shared prefix run -------------------------------------------------

    def _kernel_true(self, matcher: Callable, event: Event,
                     bindings) -> bool:
        if getattr(matcher, "binding_free", False):
            key = (matcher.kernel_id, event.seq)
            memo = self._memo
            cached = memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                return cached
            value = bool(matcher(event, bindings))
            memo[key] = value
            self.memo_misses += 1
            return value
        return matcher(event, bindings)

    def _element_accepts(self, element: ElementKernel, event: Event,
                         bindings) -> bool:
        if element.kind == KIND_SET:
            return any(self._kernel_true(m, event, bindings)
                       for _name, m in element.members)
        return self._kernel_true(element.matcher, event, bindings)

    def _complete_prefix_members(self, shared: NFAPartialMatch,
                                 tracking: list[_MemberRun],
                                 scanned: int) -> bool:
        """The prefix just became satisfied: members whose whole pattern
        is the prefix complete right now (minimal-match semantics)."""
        changed = False
        snapshot: Optional[tuple[Event, ...]] = None
        for run in tracking:
            if run.belem is not None or run.state != _TRACKING:
                continue
            if snapshot is None:
                snapshot = tuple(e for _name, e in shared.bound_order)
            run.member._emit(run.wid, snapshot)
            run.member.result.events_fed += scanned
            run.state = _DONE
            changed = True
        return changed

    def _run_cluster(self, window: Window, cluster: list[GroupMember],
                     cplan: _ClusterPlan, wids: dict[int, int]) -> None:
        p = cplan.p
        prefix_plan = cplan.prefix_plan
        last_kleene = cplan.last_kleene
        runs = [_MemberRun(m, wids[m.uid], p) for m in cluster]
        tracking = list(runs)
        privates: list[_MemberRun] = []
        shared: Optional[NFAPartialMatch] = None
        self.windows_shared += 1
        scanned = 0
        events = self._events_between(window.start_pos, window.end_pos,
                                      cplan.union_types)
        for event in events:
            scanned += 1
            # 1. member-private continuations (forked in earlier events)
            if privates:
                alive: list[_MemberRun] = []
                for run in privates:
                    detector = run.detector
                    feedback = detector.process(event)
                    run.member.result.events_fed += 1
                    if not feedback.is_empty:
                        if feedback.created:
                            run.member.result.groups_created += \
                                len(feedback.created)
                        for completion in feedback.completed:
                            run.member._emit(run.wid,
                                             completion.constituents)
                    if detector.done:
                        run.state = _DONE
                    else:
                        alive.append(run)
                privates = alive
            # 2. the shared prefix trajectory.  ``events_fed`` is
            # attributed in bulk when a run leaves the tracking set (and
            # at window end for runs that never leave) — per-event
            # attribution would reintroduce the O(members) loop this
            # whole cluster walk exists to avoid.
            if tracking:
                if shared is not None and shared.violates_guard(event):
                    shared = None  # same-event re-creation happens below
                if shared is not None:
                    pos = shared.pos
                    if pos >= p:
                        satisfied, static = True, True
                    elif last_kleene and pos == p - 1 and \
                            shared._satisfied(pos):
                        satisfied, static = True, False
                    else:
                        satisfied = static = False
                    if satisfied:
                        changed = False
                        bindings = shared.bindings
                        for run in tracking:
                            element = run.belem
                            if element is None:
                                continue  # completed at the transition
                            if static and run.bguards:
                                killed = False
                                for guard in run.bguards:
                                    if self._kernel_true(guard, event,
                                                         bindings):
                                        killed = True
                                        break
                                if killed:
                                    # alone run: guard abandons the match,
                                    # then this same event may create anew
                                    run.member.result.events_fed += scanned
                                    detector = _fresh_detector(run.member)
                                    feedback = detector.process(event)
                                    if feedback.created:
                                        run.member.result.groups_created \
                                            += len(feedback.created)
                                    for completion in feedback.completed:
                                        run.member._emit(
                                            run.wid,
                                            completion.constituents)
                                    if detector.done:
                                        run.state = _DONE
                                    else:
                                        run.detector = detector
                                        run.state = _PRIVATE
                                    changed = True
                                    continue
                            if self._element_accepts(element, event,
                                                     bindings):
                                fork = _fork_match(shared, run.member)
                                if not fork.step(event):
                                    continue  # defensive; cannot happen
                                run.member.result.events_fed += scanned
                                if fork.is_complete:
                                    run.member._emit(
                                        run.wid,
                                        tuple(e for _n, e
                                              in fork.bound_order))
                                    run.state = _DONE
                                else:
                                    run.detector = _continuation_detector(
                                        run.member, fork)
                                    run.state = _PRIVATE
                                changed = True
                        live = sum(1 for run in tracking
                                   if run.state == _TRACKING)
                        if not static and live:
                            shared.step(event)  # Kleene keeps absorbing
                        if live:
                            self.prefix_events_saved += live - 1
                        if changed:
                            tracking = [run for run in tracking
                                        if run.state == _TRACKING]
                            privates.extend(run for run in runs
                                            if run.state == _PRIVATE
                                            and run not in privates)
                    else:
                        shared.step(event)
                        self.prefix_events_saved += len(tracking) - 1
                        if shared.pos >= p or (
                                last_kleene and shared.pos == p - 1
                                and shared._satisfied(shared.pos)):
                            if self._complete_prefix_members(
                                    shared, tracking, scanned):
                                tracking = [run for run in tracking
                                            if run.state == _TRACKING]
                if shared is None and tracking:
                    if prefix_plan.first_accepts(event):
                        shared = NFAPartialMatch(0, prefix_plan,
                                                 _NONE_POLICY)
                        absorbed = shared.step(event)
                        assert absorbed, "first_accepts implies a binding"
                        for run in tracking:
                            run.member.result.groups_created += 1
                        if shared.pos >= p or (
                                last_kleene and shared.pos == p - 1
                                and shared._satisfied(shared.pos)):
                            if self._complete_prefix_members(
                                    shared, tracking, scanned):
                                tracking = [run for run in tracking
                                            if run.state == _TRACKING]
            if not tracking and not privates:
                break
        for run in tracking:
            run.member.result.events_fed += scanned
        for run in privates:
            run.detector.close()
        if cplan.union_types is not None:
            span = window.end_pos - window.start_pos
            for member in cluster:
                member.result.events_prefiltered += max(0, span - scanned)


# ---------------------------------------------------------------------------
# the shared member's Session facade
# ---------------------------------------------------------------------------


class MemberSession(Session):
    """A :class:`~repro.streaming.session.Session` facade over a
    :class:`GroupMember` so the hub's :class:`~repro.hub.core.Attachment`
    machinery (sinks, queues, flush/detach lifecycle, stats) works
    unchanged for shared attachments.

    Events are *not* pushed through this session — the group ingests
    them once for everyone; the hub calls :meth:`deliver` with the
    member's matches after every group ingest.  ``flush``/``close``
    delegate end-of-stream to the group (truncated trailing windows run
    privately, exactly like a standalone flush).  Match delivery (user
    middleware, then sink dispatch with isolation) runs through the
    same ``on_match``/``on_error`` chains as
    :class:`~repro.streaming.builder.PipelineSession` — only ingestion
    hooks are absent, because shared attachments never see per-session
    ingestion (ingestion-hooking middleware disqualifies an attachment
    from sharing; the hub enforces that at attach time)."""

    def __init__(self, member: GroupMember, sinks: tuple,
                 middleware: tuple = ()) -> None:
        stack = list(middleware)
        if sinks:
            stack.append(SinkDispatchMiddleware(sinks))
        super().__init__(eager=True, gc=False, middleware=stack)
        self.member = member
        self.sinks = sinks
        self._staged: list[ComplexEvent] = []

    # events flow through the group, never through this session
    def _ingest_many(self, events) -> None:
        raise AssertionError(
            "shared attachments are fed by their SharedGroup")

    def _finish(self) -> None:
        self._staged.extend(self.member.group.finish_member(self.member))

    def _drain(self) -> list[ComplexEvent]:
        matches, self._staged = self._staged, []
        return matches

    def deliver(self, matches: list[ComplexEvent]) -> list[ComplexEvent]:
        """Hub-internal: deliver freshly validated matches (sinks and
        any on_match/on_error middleware)."""
        self._staged.extend(matches)
        out = self._drain()
        if self._chain_match is not None:
            out = self._deliver_matches(out)
        self.matches_emitted += len(out)
        return out

    def result(self) -> SequentialResult:
        return self.member.result

    def consumed_seqs(self) -> frozenset[int]:
        return frozenset()  # sharing requires a consumption-free policy

    def _release(self) -> None:
        self.member.group.remove(self.member)

    @property
    def watermark(self) -> float:
        return self.member.group.member_watermark(self.member)
