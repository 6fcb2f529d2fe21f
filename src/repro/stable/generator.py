"""Candidate-model generation for the second-order stable model semantics.

Enumerating the stable models of ``(D, Σ)`` over a finite universe could in
principle be done by iterating over *all* interpretations, but that is
hopeless even for small schemas.  The generator instead exploits Lemma 7
(``M⁺ = T∞_{Σ,M}(D)`` for every stable model ``M``) and the following
consequence of the stability condition, proved in DESIGN.md and exercised by
the test suite:

    For every stable model ``M``, the set ``M⁺`` is reachable from ``D`` by
    repeatedly firing an *active, unsatisfied* trigger — a rule and body
    homomorphism whose positive body lies in the current set, whose negated
    atoms are absent from it, and whose head is not yet satisfied — adding the
    whole head image under *some* witness assignment of its existential
    variables, while staying inside ``M⁺``.  (If a maximal such firing
    sequence stopped strictly below ``M⁺``, the reached set would satisfy
    ``τ(D) ∧ τ(Σ)`` and witness ``s < p``, contradicting stability.)

The generator therefore performs a depth-first search over sets of atoms:
states are sets ``S ⊇ D`` of ground atoms over the universe; moves fire an
active unsatisfied trigger with every possible witness assignment (universe
constants, already-used nulls, plus fresh nulls under a canonical
symmetry-breaking order); states with no moves are exactly the classical
models of ``D ∧ Σ`` reachable this way, and are handed to the stability
checker.  The search is complete for stable models whose domain fits the
universe, and terminates because the state space is finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms, ground_matches
from ..core.interpretation import Interpretation
from ..core.rules import NTGD, RuleSet
from ..core.terms import GroundTerm, Null, Variable
from ..engine.index import RelationIndex
from ..errors import SolverLimitError
from .universe import Universe

__all__ = ["GenerationStatistics", "generate_candidate_models"]


@dataclass
class GenerationStatistics:
    """Counters describing one generation run (useful in benchmarks)."""

    states_visited: int = 0
    moves_explored: int = 0
    fixpoints_found: int = 0


def _canonical_key(atoms: frozenset[Atom]) -> str:
    """Canonical string of an atom set with nulls renamed by first occurrence."""
    renaming: dict[Null, str] = {}

    def term_key(term) -> str:
        if isinstance(term, Null):
            if term not in renaming:
                renaming[term] = f"_:{len(renaming)}"
            return renaming[term]
        return str(term)

    rendered = []
    for atom in sorted(atoms, key=lambda a: a.sort_key()):
        rendered.append(
            f"{atom.predicate.name}({','.join(term_key(t) for t in atom.terms)})"
        )
    return ";".join(rendered)


def _used_nulls(atoms: Iterable[Atom], universe: Universe) -> list[Null]:
    used = set()
    for atom in atoms:
        used.update(atom.nulls)
    return [null for null in universe.nulls if null in used]


def _witness_assignments(
    rule: NTGD,
    assignment: dict,
    atoms: frozenset[Atom],
    universe: Universe,
) -> Iterator[dict]:
    """All witness assignments of the rule's existential variables.

    Witnesses may be any universe constant, any null already occurring in the
    current set, or fresh nulls taken in canonical order (the ``i``-th unused
    null may only be used if the preceding unused nulls are used by the same
    assignment), which breaks the symmetry between interchangeable nulls.
    """
    existentials = sorted(rule.existential_variables, key=lambda v: v.name)
    if not existentials:
        yield dict(assignment)
        return
    used = _used_nulls(atoms, universe)
    unused = [null for null in universe.nulls if null not in set(used)]
    fresh_budget = unused[: len(existentials)]
    pool: list[GroundTerm] = list(universe.constants) + used + fresh_budget
    fresh_order = {null: position for position, null in enumerate(fresh_budget)}
    for values in itertools.product(pool, repeat=len(existentials)):
        fresh_used = sorted(
            {fresh_order[v] for v in values if isinstance(v, Null) and v in fresh_order}
        )
        # Canonical use of fresh nulls: they must form a prefix 0..j-1.
        if fresh_used != list(range(len(fresh_used))):
            continue
        extended = dict(assignment)
        extended.update(zip(existentials, values))
        yield extended


def _moves(
    rules: Sequence[NTGD],
    atoms: frozenset[Atom],
    index: RelationIndex,
    universe: Universe,
) -> Iterator[frozenset[Atom]]:
    """All successor states obtained by firing one active unsatisfied trigger."""
    for rule in rules:
        for match in ground_matches(rule.body, index):
            assignment = match.as_dict()
            satisfied = next(
                extend_homomorphisms(list(rule.head), index, partial=assignment), None
            )
            if satisfied is not None:
                continue
            for witness in _witness_assignments(rule, assignment, atoms, universe):
                added = frozenset(
                    apply_substitution(atom, witness) for atom in rule.head
                )
                if added <= atoms:
                    continue
                yield atoms | added


def generate_candidate_models(
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    universe: Universe,
    max_states: int = 500_000,
    statistics: Optional[GenerationStatistics] = None,
) -> Iterator[Interpretation]:
    """Enumerate the reachable fixpoint states (candidate stable models).

    Every yielded interpretation contains the database and satisfies Σ (it is
    a classical model); stability still has to be checked by the caller.  All
    stable models over the universe are among the yielded candidates.
    """
    rule_list = list(rules)
    stats = statistics if statistics is not None else GenerationStatistics()
    visited: set[str] = set()
    emitted: set[str] = set()
    stack: list[frozenset[Atom]] = [frozenset(database.atoms)]
    while stack:
        atoms = stack.pop()
        key = _canonical_key(atoms)
        if key in visited:
            continue
        visited.add(key)
        stats.states_visited += 1
        if len(visited) > max_states:
            raise SolverLimitError(
                "stable-model generation exceeded max_states; enlarge the budget "
                "or shrink the universe"
            )
        index = RelationIndex(atoms)
        successors = list(_moves(rule_list, atoms, index, universe))
        stats.moves_explored += len(successors)
        if not successors:
            stats.fixpoints_found += 1
            if key not in emitted:
                emitted.add(key)
                yield Interpretation(atoms)
            continue
        stack.extend(successors)
