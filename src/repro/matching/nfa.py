"""Generic automaton-based detector for AST patterns.

This detector compiles a :class:`~repro.patterns.ast.Sequence` into a
position-indexed automaton and runs it with *skip-till-next-match*
semantics: events that cannot advance a partial match are skipped silently;
only negation guards can kill a match mid-window.

The same compiled automaton is used in two roles:

* inside SPECTRE as a drop-in generic detector for arbitrary queries, and
* as the core of the T-REX baseline (``repro.trex``), which — like the
  original T-REX — "automatically translates queries into state machines"
  instead of hand-optimised UDFs (Sec. 4.2.3).

The automaton runs off a :class:`~repro.matching.kernel.QueryPlan`:
every pattern element carries an int *kind code* (table dispatch instead
of per-step ``isinstance``) and a matcher that is either a fused
generated kernel (``compile=True``, the default) or the interpreted
``Atom.matches`` (the ``compile=False`` escape hatch).  The detector
itself is on an allocation diet: events that provably change nothing
return one shared empty ``Feedback``, nothing copies the active-match
list unless a removal actually happens, and match creation is decided by
the plan's first-element check instead of a probe ``NFAPartialMatch``.

Semantics notes (documented choices where the paper is silent):

* A satisfied ``KleenePlus`` prefers *progress*: if an event matches both
  the Kleene atom and the next element, the next element wins.
* A trailing ``KleenePlus`` matches minimally (completes on its first
  binding).
* A negation guard placed before element *i* is active from the moment
  element *i-1* is satisfied until element *i* receives its first binding.
* When a completion consumes events, every other partial match containing
  a consumed event is abandoned (an event belongs to at most one pattern
  instance).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.events.event import Event
from repro.matching.base import (
    EMPTY_FEEDBACK, Completion, Detector, Feedback, PartialMatch)
from repro.matching.kernel import (
    KIND_ATOM,
    KIND_KLEENE,
    KIND_SET,
    CompiledPattern,
    QueryPlan,
    build_plan,
    compile_pattern,
)
from repro.patterns.ast import PatternElement
from repro.patterns.policies import ConsumptionPolicy, SelectionPolicy

__all__ = [
    "CompiledPattern",
    "compile_pattern",
    "DeriveFn",
    "NFADetector",
    "NFAPartialMatch",
]

DeriveFn = Callable[[Mapping[str, Any]], Mapping[str, Any]]


class NFAPartialMatch(PartialMatch):
    """Mutable run of the automaton (one candidate pattern instance)."""

    __slots__ = ("match_id", "pos", "bindings", "bound_order", "_plan",
                 "_policy")

    def __init__(self, match_id: int, plan: QueryPlan,
                 policy: ConsumptionPolicy) -> None:
        self.match_id = match_id
        self.pos = 0
        self.bindings: dict[str, Any] = {}
        self.bound_order: list[tuple[str, Event]] = []
        self._plan = plan
        self._policy = policy

    # -- element-local helpers ------------------------------------------

    def _satisfied(self, index: int) -> bool:
        element = self._plan.elements[index]
        kind = element.kind
        if kind == KIND_ATOM:
            return element.name in self.bindings
        if kind == KIND_KLEENE:
            return bool(self.bindings.get(element.name))
        bindings = self.bindings
        return all(name in bindings for name, _m in element.members)

    def _bind(self, index: int, event: Event) -> bool:
        """Try to bind ``event`` into the element at ``index``."""
        element = self._plan.elements[index]
        kind = element.kind
        bindings = self.bindings
        if kind == KIND_ATOM:
            name = element.name
            if name not in bindings and element.matcher(event, bindings):
                bindings[name] = event
                self.bound_order.append((name, event))
                return True
            return False
        if kind == KIND_KLEENE:
            if element.matcher(event, bindings):
                name = element.name
                bindings.setdefault(name, []).append(event)
                self.bound_order.append((name, event))
                return True
            return False
        for name, matcher in element.members:
            if name not in bindings and matcher(event, bindings):
                bindings[name] = event
                self.bound_order.append((name, event))
                return True
        return False

    def _normalize(self) -> None:
        """Advance ``pos`` past satisfied non-Kleene elements.

        A satisfied Kleene element stays current so that it can keep
        absorbing events, except when it is the last element (minimal
        match — completion is checked by the detector right after).
        """
        plan = self._plan
        size = plan.size
        while self.pos < size and self._satisfied(self.pos):
            if plan.elements[self.pos].kind == KIND_KLEENE and \
                    self.pos < size - 1:
                break
            self.pos += 1

    # -- stepping --------------------------------------------------------

    def violates_guard(self, event: Event) -> bool:
        """Does ``event`` trigger an active negation guard?"""
        plan = self._plan
        if self.pos >= plan.size:
            return False
        guards = plan.guards[self.pos]
        if not guards:
            return False
        if self._satisfied(self.pos):
            return False  # guard expires once the element has a binding
        bindings = self.bindings
        for matcher in guards:
            if matcher(event, bindings):
                return True
        return False

    def step(self, event: Event) -> bool:
        """Feed one event; return ``True`` if the match absorbed it."""
        plan = self._plan
        pos = self.pos
        if pos >= plan.size:
            return False  # already complete
        if plan.elements[pos].kind == KIND_KLEENE and \
                pos + 1 < plan.size and self._satisfied(pos):
            # prefer progress over absorption
            if self._bind(pos + 1, event):
                self.pos = pos + 1
                self._normalize()
                return True
        if self._bind(pos, event):
            self._normalize()
            return True
        return False

    @property
    def is_complete(self) -> bool:
        plan = self._plan
        pos = self.pos
        if pos >= plan.size:
            return True
        return (pos == plan.size - 1
                and plan.elements[pos].kind == KIND_KLEENE
                and self._satisfied(pos))

    # -- PartialMatch interface ------------------------------------------

    @property
    def delta(self) -> int:
        """Events still required: unmet share of the current element plus
        all mandatory counts of later elements (precomputed suffix)."""
        plan = self._plan
        pos = self.pos
        if pos >= plan.size:
            return 0
        element = plan.elements[pos]
        if element.kind == KIND_SET:
            bindings = self.bindings
            remaining = sum(1 for name, _m in element.members
                            if name not in bindings)
        else:
            remaining = 0 if self._satisfied(pos) else 1
        return remaining + plan.suffix_mandatory[pos]

    @property
    def consumable(self) -> list[Event]:
        return [event for name, event in self.bound_order
                if self._policy.consumes(name)]

    @property
    def constituents(self) -> tuple[Event, ...]:
        return tuple(event for _name, event in self.bound_order)

    def contains_any(self, events: set[int]) -> bool:
        """Does the match bind any event whose seq is in ``events``?"""
        return any(event.seq in events for _n, event in self.bound_order)


class NFADetector(Detector):
    """Automaton detector for one window version.

    Parameters
    ----------
    pattern:
        The pattern AST (any element; wrapped into a Sequence).
    selection, consumption:
        Policies; see :mod:`repro.patterns.policies`.
    max_matches:
        Stop after this many completions per window (``None`` = no limit).
        The paper's evaluation queries detect the *first* match per window.
    anchor:
        If given, matches may only be created by this exact event (the
        window's start event).  Used by ``FROM <predicate>`` windows whose
        opening event is the first pattern constituent — if a predecessor
        window consumed the anchor, the window can never match.
    derive:
        Optional callable computing the complex event's payload from the
        completed bindings.
    plan:
        A precompiled :class:`~repro.matching.kernel.QueryPlan`; queries
        pass their shared plan here so every window reuses one
        compilation.  Built on the fly from ``pattern`` when omitted
        (``compile`` then selects fused kernels vs the interpreted
        escape hatch).
    """

    def __init__(self, pattern: PatternElement,
                 selection: SelectionPolicy = SelectionPolicy.FIRST,
                 consumption: ConsumptionPolicy | None = None,
                 max_matches: Optional[int] = 1,
                 anchor: Optional[Event] = None,
                 derive: Optional[DeriveFn] = None,
                 plan: Optional[QueryPlan] = None,
                 compile: Optional[bool] = None) -> None:
        self._plan = plan if plan is not None else \
            build_plan(pattern, compiled=compile)
        self._selection = selection
        self._policy = consumption or ConsumptionPolicy.none()
        self._max_matches = max_matches
        self._anchor = anchor
        self._derive = derive
        self._active: list[NFAPartialMatch] = []
        self._next_match_id = 0
        self._completions = 0
        self._closed = False

    @property
    def plan(self) -> QueryPlan:
        return self._plan

    @property
    def delta_max(self) -> int:
        return self._plan.mandatory_total

    @property
    def done(self) -> bool:
        if self._closed:
            return True
        if self._max_matches is None:
            return False
        return self._completions >= self._max_matches and not self._active

    # -- helpers ----------------------------------------------------------

    def _may_create(self, event: Event) -> bool:
        if self._anchor is not None and event.seq != self._anchor.seq:
            return False
        if self._selection is SelectionPolicy.FIRST and self._active:
            return False
        return self._plan.first_accepts(event)

    def _create_match(self, event: Event, feedback: Feedback) -> None:
        match = NFAPartialMatch(self._next_match_id, self._plan,
                                self._policy)
        self._next_match_id += 1
        absorbed = match.step(event)
        assert absorbed, "first_accepts succeeded but binding failed"
        self._active.append(match)
        feedback.created.append(match)
        if self._policy.consumes(match.bound_order[0][0]):
            feedback.added.append((match, event))

    def _complete(self, match: NFAPartialMatch, feedback: Feedback) -> None:
        constituents = match.constituents
        consumed = tuple(match.consumable)
        attributes = dict(self._derive(match.bindings)) if self._derive else {}
        feedback.completed.append(Completion(
            match=match, constituents=constituents, consumed=consumed,
            attributes=attributes))
        self._completions += 1
        self._active.remove(match)
        if consumed:
            consumed_seqs = {event.seq for event in consumed}
            for other in list(self._active):
                if other.contains_any(consumed_seqs):
                    self._active.remove(other)
                    feedback.abandoned.append(other)
        if self._max_matches is not None and \
                self._completions >= self._max_matches:
            # selection budget exhausted: nothing further may match
            for leftover in self._active:
                feedback.abandoned.append(leftover)
            self._active = []

    # -- Detector interface -----------------------------------------------

    def process(self, event: Event) -> Feedback:
        """Process one event.

        Returns the shared ``EMPTY_FEEDBACK`` when the event provably
        changed nothing (the common case under skip-till-next-match);
        callers must treat feedback objects as read-only.
        """
        if self._closed:
            raise RuntimeError("detector already closed")
        if self.done:
            return EMPTY_FEEDBACK
        relevant = self._plan.relevant_types
        if relevant is not None and event.etype not in relevant:
            return EMPTY_FEEDBACK  # type-level skip: O(1), no allocation

        feedback: Optional[Feedback] = None
        active = self._active
        if active:
            # 1. negation guards (collect first; copy nothing when clean)
            doomed: Optional[list[NFAPartialMatch]] = None
            for match in active:
                if match.violates_guard(event):
                    if doomed is None:
                        doomed = []
                    doomed.append(match)
            if doomed:
                feedback = Feedback()
                for match in doomed:
                    active.remove(match)
                    feedback.abandoned.append(match)

            # 2. LAST selection: a fresher candidate replaces an
            #    un-started match's initial binding.
            if self._selection is SelectionPolicy.LAST and active:
                feedback = self._rebind_last(event, feedback)

            # 3. extend active matches
            if self._selection is SelectionPolicy.EACH:
                for match in list(active):
                    if match not in active:
                        continue  # abandoned by an earlier completion
                    if feedback is None:
                        feedback = self._extend(match, event, None)
                    else:
                        self._extend(match, event, feedback)
                    if self.done:
                        return feedback or EMPTY_FEEDBACK
            else:
                # one extension per event is enough outside EACH; any
                # mutation (completion) is followed by the break, so
                # iterating the live list is safe
                for match in active:
                    before = len(match.bound_order)
                    if match.step(event):
                        if feedback is None:
                            feedback = Feedback()
                        self._note_step(match, event, before, feedback)
                        if self.done:
                            return feedback
                        break

        # 4. create a new match where selection allows
        if self._may_create(event):
            if feedback is None:
                feedback = Feedback()
            self._create_match(event, feedback)
            newest = self._active[-1]
            if newest.is_complete:  # single-element patterns
                self._complete(newest, feedback)
        return feedback if feedback is not None else EMPTY_FEEDBACK

    def _extend(self, match: NFAPartialMatch, event: Event,
                feedback: Optional[Feedback]) -> Optional[Feedback]:
        before = len(match.bound_order)
        if match.step(event):
            if feedback is None:
                feedback = Feedback()
            self._note_step(match, event, before, feedback)
        return feedback

    def _note_step(self, match: NFAPartialMatch, event: Event,
                   before: int, feedback: Feedback) -> None:
        if len(match.bound_order) > before:
            name, _event = match.bound_order[-1]
            if self._policy.consumes(name):
                feedback.added.append((match, event))
        if match.is_complete:
            self._complete(match, feedback)

    def _rebind_last(self, event: Event,
                     feedback: Optional[Feedback]) -> Optional[Feedback]:
        """LAST selection: drop an initial-position match if the new event
        could start a fresh one (the later candidate is preferred)."""
        if not self._plan.first_accepts(event):
            return feedback
        doomed: Optional[list[NFAPartialMatch]] = None
        for match in self._active:
            if len(match.bound_order) == 1 and not match.is_complete:
                if doomed is None:
                    doomed = []
                doomed.append(match)
        if doomed:
            if feedback is None:
                feedback = Feedback()
            for match in doomed:
                self._active.remove(match)
                feedback.abandoned.append(match)
        return feedback

    def close(self) -> Feedback:
        if self._closed:
            return EMPTY_FEEDBACK
        self._closed = True
        if not self._active:
            return EMPTY_FEEDBACK
        feedback = Feedback()
        feedback.abandoned.extend(self._active)
        self._active = []
        return feedback
