"""Query → kernel compilation: the interpreted hot path, specialized.

The paper's T-REX baseline "automatically translates queries into state
machines" (Sec. 4.2.3); this module finishes that thought and translates
them into *specialized kernels*.  Three costs dominate the per-event
interpretation tax that every engine pays:

1. **Predicate trees** — a DEFINE condition executes as a chain of
   nested closures (``_Or`` → ``_And`` → ``_Comparison`` → ``resolve``),
   each call re-discovering the comparison operator and attribute keys.
   :func:`compile_atom_matcher` fuses an atom's type check and its whole
   predicate tree into **one generated code object** with the operators,
   attribute keys and literals constant-folded into it.
2. **isinstance dispatch** — the generic NFA detector re-classifies
   every pattern element (`Atom`? `KleenePlus`? `SetPattern`?) on every
   ``step``/``_satisfied``/``delta`` call.  :class:`QueryPlan` tags each
   element with an int *kind code* once, at compile time, so the
   detector runs table-dispatched.
3. **Re-filtering per window** — with sliding windows every event is
   offered to every overlapping window, and each offer re-evaluates
   "can this event matter at all?".  The plan precomputes the query's
   *relevant type set* (event types that can bind any pattern element
   or trip any negation guard); an :class:`EventClassifier` fed by the
   splitter classifies each event **once at ingestion**, and every
   window skips irrelevant events with one list index — in O(1),
   without calling the detector, without allocating a ``Feedback``.

Skip-till-next-match semantics make type-level skipping safe: an event
that no positive element and no guard atom can ever bind neither
extends, creates, nor kills a partial match — processing it is always a
no-op.  Prefiltering is automatically disabled (``relevant_types is
None``) when any atom accepts *any* type (``etype=None``, e.g. every
parsed DEFINE symbol), because then no event is provably irrelevant.

Compilation is per *query*, not per window: one :class:`QueryPlan` is
built by :func:`~repro.patterns.query.make_query` and shared by every
detector instance the query ever creates.

The ``compile=False`` escape hatch (or ``REPRO_COMPILE=0`` in the
environment) keeps the interpreted predicates — the kernels then simply
delegate to :meth:`Atom.matches` and prefiltering is off — which is what
the differential test suite and the interpreted CI leg run against.

Missing attributes (documented choice)
--------------------------------------
A comparison whose operand is missing — an unbound symbol reference,
an event lacking the referenced attribute, or an attribute carrying
``None`` (a JSON null) — evaluates to **False** (a clean non-match)
instead of raising.  This matches SQL's NULL comparison semantics, and
it is what keeps one malformed event from killing a long-running
session.  Note the consequence for negation: ``NOT (x > 5)`` on an
event without ``x`` is *True* (the inner comparison is false, its
negation matches).
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.events.event import Event
from repro.patterns.ast import (
    Atom,
    KleenePlus,
    Negation,
    PatternElement,
    SetPattern,
    Sequence,
    atoms_of,
)
from repro.patterns.predicates import MISSING

Matcher = Callable[[Event, Mapping[str, Any]], bool]

# element kind codes (table dispatch in the NFA partial match)
KIND_ATOM = 0
KIND_KLEENE = 1
KIND_SET = 2

# shared empty bindings for first-element probes (never mutated)
_EMPTY_BINDINGS: Mapping[str, Any] = {}


def compile_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the compile flag: explicit argument wins, then the
    ``REPRO_COMPILE`` environment variable (the CI escape hatch),
    default on."""
    if override is not None:
        return override
    value = os.environ.get("REPRO_COMPILE", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# pattern normalization (split positives from negation guards)
# ---------------------------------------------------------------------------


class CompiledPattern:
    """A Sequence split into positive elements and negation guards."""

    __slots__ = ("positives", "guards")

    def __init__(self, positives: tuple[PatternElement, ...],
                 guards: tuple[tuple[Atom, ...], ...]) -> None:
        self.positives = positives
        self.guards = guards

    @property
    def mandatory_total(self) -> int:
        return sum(element.mandatory_count() for element in self.positives)


def compile_pattern(pattern: PatternElement) -> CompiledPattern:
    """Normalize any AST node into a :class:`CompiledPattern`."""
    if not isinstance(pattern, Sequence):
        pattern = Sequence((pattern,))
    positives: list[PatternElement] = []
    guards: list[list[Atom]] = []
    pending_negations: list[Atom] = []
    for element in pattern.elements:
        if isinstance(element, Negation):
            pending_negations.append(element.atom)
            continue
        positives.append(element)
        guards.append(list(pending_negations))
        pending_negations = []
    if pending_negations:
        raise ValueError("trailing Negation has no following element")
    return CompiledPattern(tuple(positives),
                           tuple(tuple(g) for g in guards))


# ---------------------------------------------------------------------------
# predicate spec → generated kernel
# ---------------------------------------------------------------------------
#
# Structured predicates (the combinators in repro.patterns.predicates and
# the parser's DEFINE condition nodes) carry a small declarative spec on
# the closure they return:
#
#   ("const", bool)
#   ("cmp", operand, op, operand)     op in < <= > >= == !=
#   ("between", attr, low, high)      strict low < value < high
#   ("and", (spec, ...)) / ("or", (spec, ...)) / ("not", spec)
#
# with operands
#
#   ("attr", name)            attribute of the event under test
#   ("bound", symbol, attr)   attribute of an earlier-bound atom
#                             (Kleene bindings use the most recent event)
#   ("lit", value)            literal / constant-folded parameter
#
# The emitter below turns one spec (plus the atom's etype constraint)
# into a single generated function, preserving the interpreted
# evaluation semantics exactly: short-circuit AND/OR, missing operand →
# comparison false.


def predicate_spec(predicate: Callable) -> Optional[tuple]:
    """The declarative spec a structured predicate carries, else None."""
    return getattr(predicate, "_kernel_spec", None)


class _Emitter:
    """Generates the body of one fused kernel function."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, Any] = {"_M": MISSING}
        self._temps = 0

    def const(self, value: Any) -> str:
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- operands ----------------------------------------------------------

    def operand(self, side: tuple, indent: int) -> tuple[str, bool]:
        """Emit operand evaluation; return (expression, may_be_missing).

        Absent attributes and ``None`` values both surface as the
        ``_M`` sentinel — a null participates in no comparison.
        """
        tag = side[0]
        if tag == "lit":
            return self.const(side[1]), False
        if tag == "attr":
            var = self.temp()
            self.line(indent,
                      f"{var} = _a.get({self.const(side[1])}, _M)")
            self.line(indent, f"if {var} is None:")
            self.line(indent + 1, f"{var} = _M")
            return var, True
        assert tag == "bound"
        _, symbol, attr = side
        var = self.temp()
        self.line(indent, f"{var} = bindings.get({self.const(symbol)})")
        self.line(indent, f"if {var} is None:")
        self.line(indent + 1, f"{var} = _M")
        self.line(indent, "else:")
        self.line(indent + 1, f"if {var}.__class__ is list:")
        self.line(indent + 2, f"{var} = {var}[-1]")
        self.line(indent + 1,
                  f"{var} = {var}.attributes.get({self.const(attr)}, _M)")
        self.line(indent + 1, f"if {var} is None:")
        self.line(indent + 2, f"{var} = _M")
        return var, True

    # -- condition nodes ---------------------------------------------------

    def emit(self, spec: tuple, target: str, indent: int) -> None:
        """Emit statements assigning the spec's truth value to `target`."""
        tag = spec[0]
        if tag == "const":
            self.line(indent, f"{target} = {bool(spec[1])}")
        elif tag == "cmp":
            _, lhs, op, rhs = spec
            if (lhs[0] == "lit" and lhs[1] is None) or \
                    (rhs[0] == "lit" and rhs[1] is None):
                self.line(indent, f"{target} = False")  # null never matches
                return
            left, left_opt = self.operand(lhs, indent)
            right, right_opt = self.operand(rhs, indent)
            checks = []
            if left_opt:
                checks.append(f"{left} is not _M")
            if right_opt:
                checks.append(f"{right} is not _M")
            checks.append(f"({left} {op} {right})")
            self.line(indent, f"{target} = " + " and ".join(checks))
        elif tag == "between":
            _, attr, low, high = spec
            var = self.temp()
            self.line(indent, f"{var} = _a.get({self.const(attr)}, _M)")
            self.line(indent,
                      f"{target} = {var} is not _M and {var} is not None "
                      f"and ({self.const(low)} < {var} < "
                      f"{self.const(high)})")
        elif tag == "not":
            self.emit(spec[1], target, indent)
            self.line(indent, f"{target} = not {target}")
        elif tag == "and":
            parts = spec[1]
            self.emit(parts[0], target, indent)
            for part in parts[1:]:
                self.line(indent, f"if {target}:")
                indent += 1
                self.emit(part, target, indent)
        elif tag == "or":
            parts = spec[1]
            self.emit(parts[0], target, indent)
            for part in parts[1:]:
                self.line(indent, f"if not {target}:")
                indent += 1
                self.emit(part, target, indent)
        else:  # unknown node: structured predicates never produce this
            raise ValueError(f"unknown predicate spec node: {tag!r}")


# ---------------------------------------------------------------------------
# kernel interning
# ---------------------------------------------------------------------------
#
# The multi-query hub wants to recognize "these two queries evaluate the
# same predicate" without comparing ASTs at fan-out time.  Interning makes
# that an identity/int comparison:
#
# * The generated *source* already separates shape from parameters — the
#   emitter names constants ``_cN`` positionally and keeps their values in
#   the exec namespace, so two specs with the same structure but different
#   literals produce byte-identical source.  One compiled code object is
#   cached per shape (``_CODE_CACHE``) and re-executed with each param
#   vector.
# * One *matcher instance* is cached per ``(spec, etype)`` equivalence
#   class (``_MATCHER_CACHE``): the spec tuples are canonical (parsers and
#   combinators constant-fold params into ``("lit", v)`` leaves), so tuple
#   equality is predicate equivalence.  Every interned matcher carries a
#   process-unique ``kernel_id`` int and a ``binding_free`` flag (no
#   ``("bound", ...)`` operand — its result depends only on the event, so
#   the hub may memoize it per event across queries and windows).
#
# Specs with unhashable literals fall back to a private (non-interned)
# kernel that still carries a fresh ``kernel_id`` — sharing simply never
# triggers for it.


_KERNEL_IDS = itertools.count(1)
_INTERN_LOCK = threading.Lock()
_CODE_CACHE: dict[str, Any] = {}
_MATCHER_CACHE: dict[tuple, Matcher] = {}


def spec_is_binding_free(spec: tuple) -> bool:
    """Does the spec reference no earlier-bound symbols?"""
    tag = spec[0]
    if tag in ("const", "between"):
        return True
    if tag == "cmp":
        return spec[1][0] != "bound" and spec[3][0] != "bound"
    if tag == "not":
        return spec_is_binding_free(spec[1])
    if tag in ("and", "or"):
        return all(spec_is_binding_free(part) for part in spec[1])
    return False


def _stamp(kernel: Matcher, spec: tuple, etype: Optional[str]) -> Matcher:
    kernel.kernel_id = next(_KERNEL_IDS)  # type: ignore[attr-defined]
    kernel.binding_free = spec_is_binding_free(spec)  # type: ignore[attr-defined]
    kernel.spec = spec  # type: ignore[attr-defined]
    kernel.etype = etype  # type: ignore[attr-defined]
    return kernel


def _build_spec_matcher(spec: tuple, etype: Optional[str]) -> Matcher:
    """Generate one fused ``(event, bindings) -> bool`` kernel."""
    if spec[0] == "const":
        constant = bool(spec[1])
        if etype is None:
            return (lambda event, bindings: constant) if constant else \
                (lambda event, bindings: False)
        if not constant:
            return lambda event, bindings: False

        def type_only(event: Event, bindings: Mapping[str, Any],
                      _et: str = etype) -> bool:
            return event.etype == _et

        return type_only

    emitter = _Emitter()
    emitter.line(0, "def _kernel(event, bindings):")
    if etype is not None:
        emitter.line(1, f"if event.etype != {emitter.const(etype)}:")
        emitter.line(2, "return False")
    emitter.line(1, "_a = event.attributes")
    emitter.emit(spec, "_r", 1)
    emitter.line(1, "return _r")
    source = "\n".join(emitter.lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro-kernel>", "exec")
        _CODE_CACHE[source] = code
    namespace = dict(emitter.namespace)
    exec(code, namespace)  # noqa: S102 - building the kernel is the point
    kernel = namespace["_kernel"]
    kernel.__kernel_source__ = source
    return kernel


def compile_spec_matcher(spec: tuple,
                         etype: Optional[str]) -> Matcher:
    """The interned kernel for ``(spec, etype)``.

    Identical specs across queries return the *same* function object, so
    plan equivalence checks reduce to comparing ``kernel_id`` ints.
    """
    try:
        key = (spec, etype)
        with _INTERN_LOCK:
            kernel = _MATCHER_CACHE.get(key)
            if kernel is None:
                kernel = _stamp(_build_spec_matcher(spec, etype), spec, etype)
                _MATCHER_CACHE[key] = kernel
        return kernel
    except TypeError:  # unhashable literal somewhere in the spec
        return _stamp(_build_spec_matcher(spec, etype), spec, etype)


def intern_stats() -> dict:
    """Size of the intern tables (observability/debugging)."""
    with _INTERN_LOCK:
        return {"shapes": len(_CODE_CACHE), "kernels": len(_MATCHER_CACHE)}


def compile_atom_matcher(atom: Atom, compiled: bool = True) -> Matcher:
    """The atom's fused kernel, or its interpreted ``matches`` fallback.

    Falls back to :meth:`Atom.matches` when the predicate is an opaque
    callable (hand-written lambda) that carries no spec.  Only the
    compiled path yields interned kernels (with ``kernel_id``); the
    fallback is a plain bound method, which is what makes interpreted
    plans automatically unshareable at the hub level.
    """
    if compiled:
        spec = predicate_spec(atom.predicate)
        if spec is not None:
            return compile_spec_matcher(spec, atom.etype)
    return atom.matches


def kernel_id(matcher: Optional[Matcher]) -> Optional[int]:
    """The matcher's intern id, or ``None`` for non-interned matchers."""
    return getattr(matcher, "kernel_id", None)


# the shared "never matches" kernel (sentinel element of prefix plans)
NEVER_KERNEL: Matcher = compile_spec_matcher(("const", False), None)


# ---------------------------------------------------------------------------
# the query plan
# ---------------------------------------------------------------------------


class ElementKernel:
    """One positive pattern element, pre-classified for table dispatch."""

    __slots__ = ("kind", "name", "matcher", "members", "mandatory")

    def __init__(self, kind: int, name: str, matcher: Optional[Matcher],
                 members: tuple[tuple[str, Matcher], ...],
                 mandatory: int) -> None:
        self.kind = kind
        self.name = name
        self.matcher = matcher
        self.members = members
        self.mandatory = mandatory


class QueryPlan:
    """Everything the NFA detector needs, computed once per query.

    Attributes
    ----------
    elements:
        One :class:`ElementKernel` per positive pattern element.
    guards:
        ``guards[i]`` — fused matchers of the negation atoms active
        while position *i* is current.
    suffix_mandatory:
        ``suffix_mandatory[i]`` — total mandatory count of the elements
        *after* position ``i`` (precomputed δ suffix sums).
    relevant_types:
        Event types that can bind any element or trip any guard, or
        ``None`` when prefiltering is unsafe/disabled.
    compiled:
        False for the interpreted escape hatch (``compile=False``).
    """

    __slots__ = ("pattern", "elements", "guards", "suffix_mandatory",
                 "mandatory_total", "relevant_types", "compiled", "size",
                 "_first_matchers")

    def __init__(self, pattern: PatternElement,
                 elements: tuple[ElementKernel, ...],
                 guards: tuple[tuple[Matcher, ...], ...],
                 relevant_types: Optional[frozenset],
                 compiled: bool) -> None:
        self.pattern = pattern
        self.elements = elements
        self.guards = guards
        self.size = len(elements)
        suffix: list[int] = []
        total = 0
        for element in reversed(elements):
            suffix.append(total)
            total += element.mandatory
        suffix.reverse()
        self.suffix_mandatory = tuple(suffix)
        self.mandatory_total = total
        self.relevant_types = relevant_types
        self.compiled = compiled
        first = elements[0]
        if first.kind == KIND_SET:
            self._first_matchers = tuple(m for _n, m in first.members)
        else:
            self._first_matchers = (first.matcher,)

    def first_accepts(self, event: Event) -> bool:
        """Could ``event`` start a fresh match?  Replaces the old
        per-event probe ``NFAPartialMatch`` allocation: a fresh match
        absorbs ``event`` iff some first-element matcher accepts it
        under empty bindings."""
        for matcher in self._first_matchers:
            if matcher(event, _EMPTY_BINDINGS):
                return True
        return False


def _relevant_types(pattern: PatternElement) -> Optional[frozenset]:
    """The set of event types that can matter to this pattern.

    ``None`` (no prefiltering) as soon as one atom — positive *or*
    negation guard — accepts any type: then no event is provably
    irrelevant.
    """
    types: set[str] = set()
    for atom in atoms_of(pattern):
        if atom.etype is None:
            return None
        types.add(atom.etype)
    return frozenset(types)


def build_plan(pattern: PatternElement, *,
               compiled: Optional[bool] = None) -> QueryPlan:
    """Compile a pattern AST into a :class:`QueryPlan`."""
    compiled = compile_enabled(compiled)
    normalized = compile_pattern(pattern)
    elements: list[ElementKernel] = []
    for element in normalized.positives:
        if isinstance(element, Atom):
            elements.append(ElementKernel(
                KIND_ATOM, element.name,
                compile_atom_matcher(element, compiled), (),
                element.mandatory_count()))
        elif isinstance(element, KleenePlus):
            elements.append(ElementKernel(
                KIND_KLEENE, element.name,
                compile_atom_matcher(element.atom, compiled), (),
                element.mandatory_count()))
        else:
            assert isinstance(element, SetPattern)
            members = tuple((atom.name, compile_atom_matcher(atom, compiled))
                            for atom in element.atoms)
            elements.append(ElementKernel(
                KIND_SET, "", None, members, element.mandatory_count()))
    guards = tuple(
        tuple(compile_atom_matcher(atom, compiled) for atom in guard_atoms)
        for guard_atoms in normalized.guards)
    relevant = _relevant_types(pattern) if compiled else None
    return QueryPlan(pattern, tuple(elements), guards, relevant, compiled)


def compile_query(query) -> QueryPlan:
    """The query's :class:`QueryPlan` (built on demand for AST queries).

    Raises ``ValueError`` for UDF queries — hand-written detectors have
    no pattern AST to compile (they are already specialized code).
    """
    plan = getattr(query, "plan", None)
    if plan is not None:
        return plan
    pattern = getattr(query, "pattern", None)
    if pattern is None:
        raise ValueError(
            f"query {query.name!r} has no pattern AST to compile "
            f"(hand-written UDF detectors are already specialized)")
    return build_plan(pattern)


# ---------------------------------------------------------------------------
# stream-level prefiltering
# ---------------------------------------------------------------------------


class EventClassifier:
    """Per-stream relevance flags, computed once per event at ingestion.

    The splitter (which sees every event exactly once) feeds
    :meth:`ingest`; every window processing pass then answers "can this
    event matter?" with a single list index, shared across all
    overlapping windows.  Positions are global stream positions;
    :meth:`trim` mirrors :meth:`EventStream.trim` so unbounded sessions
    stay in bounded memory.
    """

    __slots__ = ("relevant_types", "_flags", "_offset")

    def __init__(self, relevant_types: frozenset, offset: int = 0) -> None:
        self.relevant_types = relevant_types
        self._flags: list[bool] = []
        self._offset = offset

    def ingest(self, event: Event) -> None:
        self._flags.append(event.etype in self.relevant_types)

    def ingest_many(self, events: Iterable[Event]) -> None:
        relevant_types, flag = self.relevant_types, self._flags.append
        for event in events:
            flag(event.etype in relevant_types)

    def relevant(self, position: int) -> bool:
        index = position - self._offset
        if index < 0:
            raise IndexError(
                f"position {position} was trimmed (classifier offset "
                f"{self._offset})")
        return self._flags[index]

    def flags(self, start: int, end: int) -> list[bool]:
        """Relevance flags for positions ``[start, end)`` — fetched once
        per window so the per-event check is a bare ``zip`` step."""
        low = start - self._offset
        if low < 0:
            raise IndexError(
                f"position {start} was trimmed (classifier offset "
                f"{self._offset})")
        return self._flags[low:end - self._offset]

    def trim(self, upto_pos: int) -> int:
        """Drop flags below global position ``upto_pos``."""
        drop = min(upto_pos - self._offset, len(self._flags))
        if drop <= 0:
            return 0
        del self._flags[:drop]
        self._offset += drop
        return drop

    @property
    def retained(self) -> int:
        return len(self._flags)


def classifier_for(query) -> Optional[EventClassifier]:
    """A fresh classifier for the query's plan, or ``None`` when the
    query has no plan (UDF detector) or prefiltering is disabled."""
    plan = getattr(query, "plan", None)
    if plan is None or plan.relevant_types is None:
        return None
    return EventClassifier(plan.relevant_types)
