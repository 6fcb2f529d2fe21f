"""Stable model semantics for normal disjunctive TGDs (Section 6).

For a database ``D`` and a set Σ of NDTGDs, ``SMS(D, Σ)`` is defined exactly
as for NTGDs, through the second-order formula ``SM[D, Σ]`` obtained by
applying ``τ_{p▷s}`` to every literal of ``D`` and Σ — the only difference is
that rule heads are disjunctions of (existentially quantified) conjunctions of
atoms, so satisfying a trigger means satisfying *some* disjunct.

The implementation mirrors :mod:`repro.stable`: a branching generator explores
candidate models (branching additionally over the chosen disjunct) and a
reduct-confined search decides stability.  It is used directly by the
disjunctive query languages of Section 7 and as the reference against which
the Lemma 13 translation is validated.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms, ground_matches
from ..engine.index import RelationIndex
from ..core.interpretation import Interpretation
from ..core.modelcheck import is_model_disjunctive
from ..core.queries import ConjunctiveQuery
from ..core.rules import NDTGD, DisjunctiveRuleSet
from ..core.terms import GroundTerm, Null
from ..errors import SolverLimitError
from ..stable.universe import Universe

__all__ = [
    "find_smaller_disjunctive_reduct_model",
    "is_disjunctive_stable_model",
    "enumerate_disjunctive_stable_models",
]


def _as_rules(rules: DisjunctiveRuleSet | Sequence[NDTGD]) -> DisjunctiveRuleSet:
    if isinstance(rules, DisjunctiveRuleSet):
        return rules
    return DisjunctiveRuleSet(tuple(rules))


def _positive(candidate: Interpretation | Iterable[Atom]) -> frozenset[Atom]:
    if isinstance(candidate, Interpretation):
        return candidate.positive
    return frozenset(candidate)


# --------------------------------------------------------------------------
# Stability
# --------------------------------------------------------------------------

def find_smaller_disjunctive_reduct_model(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: DisjunctiveRuleSet | Sequence[NDTGD],
    max_states: int = 200_000,
) -> Optional[frozenset[Atom]]:
    """Search for ``s < p`` satisfying ``τ(D) ∧ τ(Σ)`` for a disjunctive Σ.

    Paper provenance: the stability condition of **Definition 1**, applied to
    the disjunctive second-order formula ``SM[D, Σ]`` of **Section 6** —
    the candidate is stable iff no strictly smaller predicate interpretation
    ``s < p`` (with the candidate's atoms as the fixed ``p``) satisfies the
    translated database and rules.  Identical in spirit to the
    non-disjunctive checker (:func:`repro.stable.stability.find_smaller_reduct_model`),
    except that a violated trigger may be repaired by any disjunct: the
    branch set is the union over disjuncts of the head extensions available
    inside the candidate.  This is the reference oracle against which the
    **Lemma 13** disjunction-elimination translation is validated.
    """
    full = _positive(candidate)
    base = frozenset(database.atoms)
    if not base <= full:
        return None
    full_index = RelationIndex(full)
    rule_list = list(_as_rules(rules))
    visited: set[frozenset[Atom]] = set()

    def violated_trigger(current_index: RelationIndex):
        for rule in rule_list:
            for match in ground_matches(
                rule.body, current_index, negative_against=full_index
            ):
                assignment = match.as_dict()
                satisfied = False
                for disjunct in rule.disjuncts:
                    if next(
                        extend_homomorphisms(
                            list(disjunct), current_index, partial=assignment
                        ),
                        None,
                    ) is not None:
                        satisfied = True
                        break
                if not satisfied:
                    return rule, assignment
        return None

    def search(current: frozenset[Atom]) -> Optional[frozenset[Atom]]:
        if current in visited:
            return None
        visited.add(current)
        if len(visited) > max_states:
            raise SolverLimitError("disjunctive stability check exceeded max_states")
        current_index = RelationIndex(current)
        violation = violated_trigger(current_index)
        if violation is None:
            return current if current < full else None
        rule, assignment = violation
        for disjunct in rule.disjuncts:
            for extension in extend_homomorphisms(
                list(disjunct), full_index, partial=assignment
            ):
                added = frozenset(
                    apply_substitution(atom, extension) for atom in disjunct
                )
                result = search(current | added)
                if result is not None:
                    return result
        return None

    return search(base)


def is_disjunctive_stable_model(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: DisjunctiveRuleSet | Sequence[NDTGD],
) -> bool:
    """**Definition 1** lifted to NDTGDs (**Section 6**).

    The candidate is a disjunctive stable model of ``(D, Σ)`` iff it is a
    classical model of ``τ(D) ∧ τ(Σ)`` (every trigger satisfied by *some*
    disjunct) and no strictly smaller reduct model exists.
    """
    interpretation = (
        candidate
        if isinstance(candidate, Interpretation)
        else Interpretation(frozenset(candidate))
    )
    rule_set = _as_rules(rules)
    if not is_model_disjunctive(interpretation, database, rule_set):
        return False
    return (
        find_smaller_disjunctive_reduct_model(interpretation, database, rule_set) is None
    )


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------

def _canonical_key(atoms: frozenset[Atom]) -> str:
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


def _witnesses(
    existentials, assignment: dict, atoms: frozenset[Atom], universe: Universe
) -> Iterator[dict]:
    if not existentials:
        yield dict(assignment)
        return
    used = [null for null in universe.nulls if any(null in atom.nulls for atom in atoms)]
    unused = [null for null in universe.nulls if null not in set(used)]
    fresh = unused[: len(existentials)]
    pool: list[GroundTerm] = list(universe.constants) + used + fresh
    fresh_order = {null: position for position, null in enumerate(fresh)}
    for values in itertools.product(pool, repeat=len(existentials)):
        fresh_used = sorted(
            {fresh_order[v] for v in values if isinstance(v, Null) and v in fresh_order}
        )
        if fresh_used != list(range(len(fresh_used))):
            continue
        extended = dict(assignment)
        extended.update(zip(existentials, values))
        yield extended


def enumerate_disjunctive_stable_models(
    database: Database,
    rules: DisjunctiveRuleSet | Sequence[NDTGD],
    universe: Optional[Universe] = None,
    max_nulls: int = 1,
    max_states: int = 500_000,
) -> Iterator[Interpretation]:
    """``SMS(D, Σ)`` for NDTGDs over a finite universe (**Section 6**).

    A branching generator explores trigger repairs (branching additionally
    over the chosen disjunct and the existential witnesses drawn from the
    universe) and filters the fixpoints through the **Definition 1**
    stability check.  It feeds the DATALOG¬,∨ query languages used as the
    expressivity yardstick of **Theorems 15-18** (Section 7.2) and the
    **Lemma 13** validation benchmarks.
    """
    rule_set = _as_rules(rules)
    if universe is None:
        universe = Universe.for_database(database, max_nulls=max_nulls)
    visited: set[str] = set()
    emitted: set[str] = set()
    stack = [frozenset(database.atoms)]
    while stack:
        atoms = stack.pop()
        key = _canonical_key(atoms)
        if key in visited:
            continue
        visited.add(key)
        if len(visited) > max_states:
            raise SolverLimitError("disjunctive generation exceeded max_states")
        index = RelationIndex(atoms)
        successors: list[frozenset[Atom]] = []
        for rule in rule_set:
            for match in ground_matches(rule.body, index):
                assignment = match.as_dict()
                satisfied = False
                for disjunct in rule.disjuncts:
                    if next(
                        extend_homomorphisms(list(disjunct), index, partial=assignment),
                        None,
                    ) is not None:
                        satisfied = True
                        break
                if satisfied:
                    continue
                for position, disjunct in enumerate(rule.disjuncts):
                    existentials = sorted(
                        rule.existential_variables_of(position), key=lambda v: v.name
                    )
                    for witness in _witnesses(existentials, assignment, atoms, universe):
                        added = frozenset(
                            apply_substitution(atom, witness) for atom in disjunct
                        )
                        if not added <= atoms:
                            successors.append(atoms | added)
        if not successors:
            if key not in emitted:
                emitted.add(key)
                if (
                    find_smaller_disjunctive_reduct_model(atoms, database, rule_set)
                    is None
                ):
                    yield Interpretation(atoms)
            continue
        stack.extend(successors)
