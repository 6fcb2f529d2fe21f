"""Join planning: compiled rules and body-literal ordering.

Matching a rule body against an interpretation is a multi-way join, and the
order in which the body literals are visited dominates the cost of the
backtracking search.  The planner applies the classic greedy heuristic used by
Datalog engines:

1. a literal whose arguments are (partially) **bound** — by constants, by the
   partial assignment, or by variables bound earlier in the plan — can use a
   hash index of :class:`~repro.engine.index.RelationIndex` and is strongly
   preferred over an unbound scan;
2. among equally bound literals, the one over the **smallest relation**
   (estimated by current relation cardinality) goes first, shrinking the
   intermediate result as early as possible;
3. negative literals always run last, once safety guarantees all their
   variables are bound, as pure ground-absence checks.

A :class:`CompiledRule` caches the normalised shape of a rule (head atoms,
positive and negative body atoms, the set of flexible terms per literal) so
repeated evaluation — fixpoint rounds, chase rounds, stability probes — pays
the analysis once.  :func:`compile_rule` memoises per rule object.

The join executor (:func:`enumerate_bindings`) runs every rule, pattern and
homomorphism check on interned rows: each literal probes the pattern hash
table of ``RelationIndex.rows_for`` keyed on the ids bound by the current
prefix, which turns the written-order nested loop of a naive matcher into an
index nested-loop join.  :func:`enumerate_matches` is its object-level edge.

Paper provenance: the planner is the engine-side realisation of the
homomorphism machinery of **Section 2** — matching a rule body (or query) is
computing the homomorphisms of a conjunction of literals into an
interpretation, ``q(I)``.  Every theorem-level computation rides on it: the
trigger discovery of the chase (**Lemma 8** bounds), the relevant grounding
of the Skolemization route (**Section 3.1**), the smaller-reduct-model
search of the stability check (**Definition 1**), and the sideways
information passing of the magic-set rewriting (:mod:`repro.query`), whose
bound/free adornments are aligned with this module's greedy order so that
rewritten programs probe exactly the hash indexes the planner would pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.atoms import Atom, Predicate
from ..core.terms import FunctionTerm, Null, Term
from ..obs.trace import get_tracer
from .index import Assignment, RelationIndex, is_flexible
from .intern import Row, SymbolTable
from .stats import EngineStatistics

__all__ = [
    "CompiledRule",
    "EncodedRule",
    "compile_rule",
    "encode_rule",
    "order_body",
    "enumerate_matches",
    "enumerate_bindings",
]


def _flexible_terms(atom: Atom) -> frozenset[Term]:
    """The variables and nulls occurring (at any depth) in *atom*."""
    found: set[Term] = set()
    stack: List[Term] = list(atom.terms)
    while stack:
        term = stack.pop()
        if is_flexible(term):
            found.add(term)
        elif hasattr(term, "arguments"):
            stack.extend(term.arguments)  # type: ignore[attr-defined]
    return frozenset(found)


@dataclass(frozen=True)
class CompiledRule:
    """A rule normalised for the engine: heads plus split, analysed body.

    Applicable to every rule shape of the paper — NTGDs (Section 2), normal
    rules of the Skolemized programs (Section 3.1), and the ground rules of
    reduct computations — via :func:`compile_rule`'s structural sniffing.
    """

    heads: tuple[Atom, ...]
    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...]
    source: object = field(default=None, compare=False, hash=False)
    #: flexible terms of each positive body atom, aligned with ``positive``.
    positive_terms: tuple[frozenset[Term], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.positive_terms:
            object.__setattr__(
                self,
                "positive_terms",
                tuple(_flexible_terms(atom) for atom in self.positive),
            )

    @property
    def body_terms(self) -> frozenset[Term]:
        found: set[Term] = set()
        for terms in self.positive_terms:
            found.update(terms)
        return frozenset(found)


def _split_rule(rule) -> tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[Atom, ...]]:
    """Normalise NTGDs, normal rules and literal sequences to (heads, pos, neg)."""
    if hasattr(rule, "body") and hasattr(rule, "head"):  # NTGD-shaped
        positive = tuple(lit.atom for lit in rule.body if lit.positive)
        negative = tuple(lit.atom for lit in rule.body if not lit.positive)
        head = rule.head
        heads = tuple(head) if isinstance(head, tuple) else (head,)
        return heads, positive, negative
    if hasattr(rule, "positive_body"):  # NormalRule-shaped
        return (rule.head,), tuple(rule.positive_body), tuple(rule.negative_body)
    raise TypeError(f"cannot compile rule object {rule!r}")


_COMPILE_CACHE: Dict[tuple[int, bool], CompiledRule] = {}
#: Cap on memoised plans; beyond it the cache is reset (compilation is cheap,
#: unbounded growth across many transient rule sets is not).
_COMPILE_CACHE_LIMIT = 4096


def compile_rule(
    rule,
    *,
    ignore_negation: bool = False,
    statistics: Optional[EngineStatistics] = None,
) -> CompiledRule:
    """Compile *rule* (NTGD or normal rule), memoised per rule object.

    With ``ignore_negation`` the negative body is dropped — the Σ⁺ shape
    needed by the positive-closure computation of the relevant grounding
    (Section 3.1) and by the positive-projection over-approximations used in
    the chase termination arguments.
    """
    if isinstance(rule, CompiledRule):
        return rule
    key = (id(rule), ignore_negation)
    cached = _COMPILE_CACHE.get(key)
    if cached is not None and cached.source is rule:
        return cached
    # Cache misses only: when the global tracer is on, rule compilation is
    # visible as an ``engine.compile_rule`` span (hits stay span-free — the
    # memoisation is the point, and the hot path must not allocate).
    tracer = get_tracer()
    span = (
        tracer.start("engine.compile_rule", ignore_negation=ignore_negation)
        if tracer.enabled
        else None
    )
    heads, positive, negative = _split_rule(rule)
    compiled = CompiledRule(
        heads, positive, () if ignore_negation else negative, source=rule
    )
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[key] = compiled
    if statistics is not None:
        statistics.rules_compiled += 1
    if span is not None:
        span.finish(
            positive=len(compiled.positive), negative=len(compiled.negative)
        )
    return compiled


def _bound_position_count(atom: Atom, bound: set[Term]) -> int:
    """How many argument positions of *atom* are resolvable given *bound* terms."""
    count = 0
    for term in atom.terms:
        if is_flexible(term):
            if term in bound:
                count += 1
        elif _flexible_terms_of_term(term) <= bound:
            # Constants are always bound; a function term counts once every
            # variable/null inside it is bound.
            count += 1
    return count


def _flexible_terms_of_term(term: Term) -> frozenset[Term]:
    found: set[Term] = set()
    stack: List[Term] = [term]
    while stack:
        current = stack.pop()
        if is_flexible(current):
            found.add(current)
        elif hasattr(current, "arguments"):
            stack.extend(current.arguments)  # type: ignore[attr-defined]
    return frozenset(found)


def order_body(
    compiled: CompiledRule,
    *,
    index: Optional[RelationIndex] = None,
    bound: frozenset[Term] = frozenset(),
    skip: int = -1,
) -> tuple[int, ...]:
    """A greedy join order over the positive body, as literal indices.

    Starting from the terms in *bound*, repeatedly pick the literal with the
    most bound argument positions, breaking ties by smallest estimated
    relation cardinality (``index.count``) and finally by written position for
    determinism.  ``skip`` excludes a literal (the delta literal of a
    semi-naive round, which is matched up front).

    The same most-bound-first discipline is mirrored by the sideways
    information passing strategy of the magic-set rewriting
    (:func:`repro.query.adornment.sips_order`), keeping the adornments of
    rewritten programs aligned with the access patterns chosen here.
    """
    remaining = [i for i in range(len(compiled.positive)) if i != skip]
    bound_terms = set(bound)
    plan: List[int] = []
    while remaining:
        def rank(i: int) -> tuple:
            atom = compiled.positive[i]
            bound_positions = _bound_position_count(atom, bound_terms)
            cardinality = index.count(atom.predicate) if index is not None else 0
            unbound = len(compiled.positive_terms[i] - bound_terms)
            return (-bound_positions, cardinality, unbound, i)

        best = min(remaining, key=rank)
        remaining.remove(best)
        plan.append(best)
        bound_terms.update(compiled.positive_terms[best])
    return tuple(plan)


# --------------------------------------------------------------------------
# The interned (row-plane) executor.
#
# An :class:`EncodedRule` lowers a :class:`CompiledRule` onto one symbol
# table's id space.  Term coding inside a positive body literal:
#
#   entry >= 0      the interned id of a fixed ground term (constants and
#                   variable-free function terms, interned at encode time);
#   entry <  0      slot ``-(entry + 1)``: a variable or pattern null bound
#                   during the join, or a *function slot* standing for a
#                   function term with flexibles inside.  A function slot
#                   binds to the stored id like any other slot; a destructure
#                   step then splits that id into ``(function, argument ids)``
#                   through ``SymbolTable.function_of`` and binds or compares
#                   the argument entries, which are coded the same way (a
#                   nested function term is one more function slot).
#
# Head and negative-literal terms use *specs*, which additionally know how
# to rebuild values the join never bound:
#
#   int >= 0            fixed id
#   int <  0            variable slot; unbound -> the head is not ground /
#                       the negative check is unsafe
#   (slot, null_id)     a pattern null: its binding if bound, else itself
#                       (nulls are ground data — an unbound head/negative
#                       null stands for itself, exactly as
#                       ``apply_substitution`` leaves it in place)
#   (name, (spec, ..))  a function term containing flexibles, rebuilt
#                       bottom-up through ``SymbolTable.encode_function``
#                       (the Skolem-head fast path: no term objects after
#                       the first occurrence)

_Spec = Union[int, Tuple[int, int], Tuple[str, tuple]]


def _resolve_spec(
    spec: _Spec, binding: Sequence[Optional[int]], symbols: SymbolTable
) -> Optional[int]:
    """The id *spec* denotes under *binding*, or ``None`` if not ground."""
    if type(spec) is int:
        if spec >= 0:
            return spec
        return binding[-spec - 1]
    first = spec[0]
    if type(first) is int:  # (slot, null_id): a pattern null falls back to itself
        value = binding[first]
        return value if value is not None else spec[1]
    argument_ids: List[int] = []
    for sub in spec[1]:
        value = _resolve_spec(sub, binding, symbols)
        if value is None:
            return None
        argument_ids.append(value)
    return symbols.encode_function(first, tuple(argument_ids))


class EncodedRule:
    """A :class:`CompiledRule` lowered onto one symbol table's id space.

    Flexible terms (variables and pattern nulls) across the positive body,
    the negative body and the heads are numbered into dense **slots** in
    first-occurrence order, followed by one function slot per distinct
    function term with flexibles inside a positive literal.  A join binding
    is then a flat ``list[Optional[int]]`` indexed by slot — no term-keyed
    dict is allocated anywhere between the storage boundary and the API
    edge.
    """

    __slots__ = (
        "compiled",
        "symbols",
        "slots",
        "slot_of",
        "functions",
        "width",
        "positive",
        "negatives",
        "head_specs",
        "_plans",
    )

    def __init__(self, compiled: CompiledRule, symbols: SymbolTable) -> None:
        self.compiled = compiled
        self.symbols = symbols
        self.slot_of: Dict[Term, int] = {}
        slots: List[Term] = []

        def number(term: Term) -> None:
            if is_flexible(term):
                if term not in self.slot_of:
                    self.slot_of[term] = len(slots)
                    slots.append(term)
            elif isinstance(term, FunctionTerm):
                for argument in term.arguments:
                    number(argument)

        for atom in (*compiled.positive, *compiled.negative, *compiled.heads):
            for term in atom.terms:
                number(term)
        self.slots = tuple(slots)

        #: function slot -> (function name, argument entries)
        self.functions: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        function_slot: Dict[Term, int] = {}

        def entry_of(term: Term) -> int:
            if is_flexible(term):
                return -self.slot_of[term] - 1
            if isinstance(term, FunctionTerm) and _flexible_terms_of_term(term):
                slot = function_slot.get(term)
                if slot is None:
                    slot = len(slots) + len(function_slot)
                    function_slot[term] = slot
                    self.functions[slot] = (
                        term.function,
                        tuple(entry_of(argument) for argument in term.arguments),
                    )
                return -slot - 1
            return symbols.encode_term(term)

        def spec_of(term: Term) -> _Spec:
            if is_flexible(term):
                slot = self.slot_of[term]
                if type(term) is Null:
                    return (slot, symbols.encode_term(term))
                return -slot - 1
            if isinstance(term, FunctionTerm) and _flexible_terms_of_term(term):
                return (
                    term.function,
                    tuple(spec_of(argument) for argument in term.arguments),
                )
            return symbols.encode_term(term)

        self.positive: Tuple[Tuple[Predicate, Tuple[int, ...]], ...] = tuple(
            (atom.predicate, tuple(entry_of(term) for term in atom.terms))
            for atom in compiled.positive
        )
        self.width = len(slots) + len(function_slot)
        self.negatives = tuple(
            (atom, atom.predicate, tuple(spec_of(term) for term in atom.terms))
            for atom in compiled.negative
        )
        self.head_specs = tuple(
            (atom.predicate, tuple(spec_of(term) for term in atom.terms))
            for atom in compiled.heads
        )
        #: (plan, initially-bound slots) -> compiled step list
        self._plans: Dict[tuple, tuple] = {}

    def new_binding(self) -> List[Optional[int]]:
        return [None] * self.width

    def build_head_rows(
        self, binding: Sequence[Optional[int]]
    ) -> List[Tuple[Predicate, Row]]:
        """The ground head rows this binding derives (non-ground heads skipped)."""
        symbols = self.symbols
        out: List[Tuple[Predicate, Row]] = []
        for predicate, specs in self.head_specs:
            row: List[int] = []
            for spec in specs:
                value = _resolve_spec(spec, binding, symbols)
                if value is None:
                    break
                row.append(value)
            else:
                out.append((predicate, tuple(row)))
        return out

    def build_positive_rows(
        self, binding: Sequence[Optional[int]]
    ) -> Tuple[Tuple[Predicate, Row], ...]:
        """The ground positive body under *binding*, as ``(predicate, row)``.

        Valid only for complete bindings (every slot of the positive body
        bound) — i.e. what a finished join enumeration yields.
        """
        return tuple(
            (
                predicate,
                tuple(
                    [entry if entry >= 0 else binding[-entry - 1] for entry in entries]
                ),
            )
            for predicate, entries in self.positive
        )

    def build_negative_rows(
        self, binding: Sequence[Optional[int]]
    ) -> Tuple[Tuple[Predicate, Row], ...]:
        """The ground negative body under *binding*, as ``(predicate, row)``."""
        symbols = self.symbols
        return tuple(
            (
                predicate,
                tuple([_resolve_spec(spec, binding, symbols) for spec in specs]),
            )
            for _, predicate, specs in self.negatives
        )

    def decode_binding(
        self,
        binding: Sequence[Optional[int]],
        partial: Optional[Mapping[Term, Term]] = None,
    ) -> Assignment:
        """The object-level :data:`Assignment` equivalent of *binding*."""
        result: Assignment = dict(partial) if partial else {}
        decode = self.symbols.decode_term
        for slot, term in enumerate(self.slots):
            value = binding[slot]
            if value is not None:
                result[term] = decode(value)
        return result

    def steps_for(
        self, plan: Tuple[int, ...], bound_slots: frozenset
    ) -> tuple:
        """The per-literal probe programme for *plan* given pre-bound slots.

        A **probe step** is ``(predicate, bound positions, key builders,
        static key, unbound (position, slot) pairs)``; builders reuse the
        literal entry coding (id or negative slot code).  A **destructure
        step** is ``(None, function slot, function name, argument entries,
        ())`` — same width, so the executor unpacks both kinds alike — and
        directly follows the step that bound its function slot;
        function slots bound up front (by a semi-naive delta literal) are
        destructured before the first probe.
        """
        cache_key = (plan, bound_slots)
        steps = self._plans.get(cache_key)
        if steps is not None:
            return steps
        bound = set(bound_slots)
        built: List[tuple] = []
        functions = self.functions

        def destructure(new_slots: Sequence[int]) -> None:
            for slot in dict.fromkeys(new_slots):
                shape = functions.get(slot)
                if shape is None:
                    continue
                name, entries = shape
                built.append((None, slot, name, entries, ()))
                fresh = [
                    -entry - 1
                    for entry in entries
                    if entry < 0 and -entry - 1 not in bound
                ]
                bound.update(fresh)
                destructure(fresh)

        destructure(sorted(bound_slots))
        for literal_index in plan:
            predicate, entries = self.positive[literal_index]
            positions: List[int] = []
            builders: List[int] = []
            unbound: List[Tuple[int, int]] = []
            static = True
            new_slots: List[int] = []
            for position, entry in enumerate(entries):
                if entry >= 0:
                    positions.append(position)
                    builders.append(entry)
                else:
                    slot = -entry - 1
                    if slot in bound:
                        positions.append(position)
                        builders.append(entry)
                        static = False
                    else:
                        # Repeats of a slot first seen in this literal also
                        # land here: the first occurrence binds, the rest
                        # compare (bind-or-compare below).
                        unbound.append((position, slot))
                        new_slots.append(slot)
            bound.update(new_slots)
            static_key = tuple(builders) if (static and positions) else None
            built.append(
                (predicate, tuple(positions), tuple(builders), static_key, tuple(unbound))
            )
            destructure(new_slots)
        steps = tuple(built)
        self._plans[cache_key] = steps
        return steps


_ENCODE_CACHE: Dict[Tuple[int, int], EncodedRule] = {}


def encode_rule(compiled: CompiledRule, symbols: SymbolTable) -> EncodedRule:
    """Lower *compiled* onto *symbols*, memoised per (rule, table) pair."""
    key = (id(compiled), id(symbols))
    cached = _ENCODE_CACHE.get(key)
    if cached is not None and cached.compiled is compiled and cached.symbols is symbols:
        return cached
    encoded = EncodedRule(compiled, symbols)
    if len(_ENCODE_CACHE) >= _COMPILE_CACHE_LIMIT:
        _ENCODE_CACHE.clear()
    _ENCODE_CACHE[key] = encoded
    return encoded


def check_negation_oracle(index: RelationIndex, negative_against: RelationIndex) -> None:
    """Reject a ``negative_against`` oracle interned on another symbol table.

    Rows of two tables carry unrelated ids, so absence checks against such
    an oracle would compare meaningless integers.
    """
    if negative_against.symbols is not index.symbols:
        raise ValueError(
            "negative_against is encoded on a different SymbolTable than the "
            "index; ids from two tables cannot be compared"
        )


def enumerate_bindings(
    encoded: EncodedRule,
    index: RelationIndex,
    *,
    binding: Optional[List[Optional[int]]] = None,
    negative_against=None,
    delta_rows: Optional[Sequence[Tuple[Predicate, Row]]] = None,
    delta_position: Optional[int] = None,
    statistics: Optional[EngineStatistics] = None,
) -> Iterator[List[Optional[int]]]:
    """Enumerate slot bindings matching the encoded body into *index*.

    This is ``q(I)`` of Section 2 — the homomorphisms of the body into the
    indexed interpretation — as an index nested-loop join in the greedy
    order of :func:`order_body`: every probe key, every candidate and every
    binding is a flat int structure (``RelationIndex.rows_for``).  With
    ``delta_rows``/``delta_position`` the literal at that position is
    matched only against the delta rows (the semi-naive restriction).
    Negative atoms are checked for absence against *negative_against*
    (default: *index*, which must share its symbol table) once the positive
    part is bound; a non-ground negative image raises ``ValueError``
    (unsafe pattern).  A rule with no positive literal runs a zero-step
    plan: only the negative check.  **Yields the live binding list** —
    callers that retain bindings across iterations must copy
    (``tuple(b)``).
    """
    compiled = encoded.compiled
    symbols = encoded.symbols
    check = negative_against if negative_against is not None else index
    if binding is None:
        binding = encoded.new_binding()
        bound_slots = bound_terms = frozenset()
    else:
        bound_slots = frozenset(
            slot for slot, value in enumerate(binding) if value is not None
        )
        bound_terms = frozenset(encoded.slots[slot] for slot in bound_slots)
    negatives = encoded.negatives
    rows_for = index.rows_for
    rows_of = index.rows_of

    def verify_negatives() -> bool:
        for atom, predicate, specs in negatives:
            row: List[int] = []
            for spec in specs:
                value = _resolve_spec(spec, binding, symbols)
                if value is None:
                    raise ValueError(
                        f"negative atom {atom} not fully bound (unsafe pattern)"
                    )
                row.append(value)
            if check.contains_row(predicate, tuple(row)):
                return False
        return True

    def run(steps: tuple, depth: int) -> Iterator[List[Optional[int]]]:
        if depth == len(steps):
            if verify_negatives():
                yield binding
            return
        predicate, positions, builders, static_key, unbound = steps[depth]
        if predicate is None:
            # Destructure step: (None, function slot, name, entries, ()).
            shape = symbols.function_of(binding[positions])
            if shape is None or shape[0] != builders or len(shape[1]) != len(static_key):
                return
            fresh: List[int] = []
            for entry, value in zip(static_key, shape[1]):
                if entry >= 0:
                    if entry != value:
                        break
                else:
                    slot = -entry - 1
                    current = binding[slot]
                    if current is None:
                        binding[slot] = value
                        fresh.append(slot)
                    elif current != value:
                        break
            else:
                yield from run(steps, depth + 1)
            for slot in fresh:
                binding[slot] = None
            return
        if positions:
            key = static_key
            if key is None:
                key = tuple(
                    entry if entry >= 0 else binding[-entry - 1]
                    for entry in builders
                )
            rows = rows_for(predicate, positions, key)
        else:
            rows = rows_of(predicate)
        if statistics is not None:
            statistics.tuples_scanned += len(rows)
        for row in rows:
            marks: Optional[List[int]] = None
            matched = True
            for position, slot in unbound:
                value = row[position]
                current = binding[slot]
                if current is None:
                    binding[slot] = value
                    if marks is None:
                        marks = [slot]
                    else:
                        marks.append(slot)
                elif current != value:
                    matched = False
                    break
            if matched:
                yield from run(steps, depth + 1)
            if marks is not None:
                for slot in marks:
                    binding[slot] = None

    if delta_position is None:
        plan = order_body(compiled, index=index, bound=bound_terms)
        yield from run(encoded.steps_for(plan, bound_slots), 0)
        return

    predicate, entries = encoded.positive[delta_position]
    plan = order_body(
        compiled,
        index=index,
        bound=bound_terms | compiled.positive_terms[delta_position],
        skip=delta_position,
    )
    steps = encoded.steps_for(
        plan,
        bound_slots
        | frozenset(-entry - 1 for entry in entries if entry < 0),
    )
    rows = delta_rows if delta_rows is not None else ()
    if statistics is not None:
        statistics.tuples_scanned += len(rows)
    for delta_predicate, row in rows:
        if delta_predicate != predicate:
            continue
        marks: List[int] = []
        matched = True
        for position, entry in enumerate(entries):
            value = row[position]
            if entry >= 0:
                if entry != value:
                    matched = False
                    break
            else:
                slot = -entry - 1
                current = binding[slot]
                if current is None:
                    binding[slot] = value
                    marks.append(slot)
                elif current != value:
                    matched = False
                    break
        if matched:
            yield from run(steps, 0)
        for slot in marks:
            binding[slot] = None


def enumerate_matches(
    compiled: CompiledRule,
    index: RelationIndex,
    *,
    partial: Optional[Mapping[Term, Term]] = None,
    negative_against: Optional[RelationIndex] = None,
    delta: Optional[Sequence[Atom]] = None,
    delta_position: Optional[int] = None,
    statistics: Optional[EngineStatistics] = None,
) -> Iterator[Assignment]:
    """Enumerate assignments matching the compiled body into *index*.

    The object-level edge of :func:`enumerate_bindings`: *partial* and the
    *delta* atoms are encoded on the way in, and every solution is decoded
    to an :data:`Assignment` (extending *partial*) at yield.
    *negative_against* must share the index's symbol table
    (``ValueError`` otherwise).
    """
    if negative_against is not None:
        check_negation_oracle(index, negative_against)
    symbols = index.symbols
    encoded = encode_rule(compiled, symbols)
    binding = None
    if partial:
        binding = encoded.new_binding()
        slot_of = encoded.slot_of
        for term, value in partial.items():
            slot = slot_of.get(term)
            if slot is not None:
                binding[slot] = symbols.encode_term(value)
    delta_rows = None
    if delta_position is not None:
        encode = symbols.encode_atom
        delta_rows = [(atom.predicate, encode(atom)) for atom in (delta or ())]
    decode_binding = encoded.decode_binding
    for live in enumerate_bindings(
        encoded,
        index,
        binding=binding,
        negative_against=negative_against,
        delta_rows=delta_rows,
        delta_position=delta_position,
        statistics=statistics,
    ):
        yield decode_binding(live, partial)
