"""Model checking for NTGDs and NDTGDs.

An interpretation ``I`` is a model of an NTGD ``σ`` if every homomorphism of
the body into ``I`` (positive literals present, negative literals absent)
extends to a homomorphism of the head into ``I``.  For an NDTGD at least one
head disjunct must be satisfiable by an extension.  This module provides the
satisfaction checks together with *violation* reporting (the triggers whose
head is not satisfied), which the chase and the stable-model generators build
upon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .atoms import Atom, Literal
from .database import Database
from ..engine.index import RelationIndex
from .homomorphism import extend_homomorphisms, ground_matches
from .interpretation import Interpretation
from .rules import NDTGD, NTGD, DisjunctiveRuleSet, RuleSet

__all__ = [
    "Trigger",
    "triggers",
    "active_triggers",
    "satisfies_rule",
    "satisfies_rules",
    "is_model",
    "violations",
    "satisfies_disjunctive_rule",
    "is_model_disjunctive",
]


@dataclass(frozen=True)
class Trigger:
    """A homomorphism of a rule body into a set of atoms.

    ``assignment`` binds every universally quantified variable of the rule;
    the trigger is *satisfied* in a target set if the assignment extends to a
    homomorphism of the head into the target, and *active* otherwise.
    """

    rule: NTGD
    assignment: tuple[tuple, ...]

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def ground_positive_body(self) -> tuple[Atom, ...]:
        assignment = self.as_dict()
        from .atoms import apply_substitution

        return tuple(
            apply_substitution(l.atom, assignment) for l in self.rule.positive_body
        )

    def ground_negative_body(self) -> tuple[Atom, ...]:
        assignment = self.as_dict()
        from .atoms import apply_substitution

        return tuple(
            apply_substitution(l.atom, assignment) for l in self.rule.negative_body
        )

    def __str__(self) -> str:
        binding = ", ".join(f"{k}->{v}" for k, v in self.assignment)
        return f"<{self.rule} | {binding}>"


def _index_of(atoms: Iterable[Atom] | Interpretation | Database | RelationIndex) -> RelationIndex:
    if isinstance(atoms, RelationIndex):
        return atoms
    if isinstance(atoms, Interpretation):
        return RelationIndex(atoms.positive)
    if isinstance(atoms, Database):
        return RelationIndex(atoms.atoms)
    return RelationIndex(atoms)


def triggers(
    rule: NTGD,
    atoms: Iterable[Atom] | Interpretation | Database | RelationIndex,
    negative_against: Optional[Iterable[Atom] | Interpretation | RelationIndex] = None,
) -> Iterator[Trigger]:
    """All triggers of *rule* over *atoms*.

    Negative body literals are checked against *negative_against* when given
    (this is how the immediate-consequence operator uses the final model as an
    oracle), and against *atoms* otherwise.
    """
    index = _index_of(atoms)
    check = _index_of(negative_against) if negative_against is not None else index
    for match in ground_matches(rule.body, index, negative_against=check):
        yield Trigger(rule, match.assignment)


def _head_satisfied(
    rule: NTGD, assignment: dict, index: RelationIndex
) -> bool:
    extensions = extend_homomorphisms(list(rule.head), index, partial=assignment)
    return next(extensions, None) is not None


def active_triggers(
    rule: NTGD,
    atoms: Iterable[Atom] | Interpretation | Database | RelationIndex,
    negative_against: Optional[Iterable[Atom] | Interpretation | RelationIndex] = None,
) -> Iterator[Trigger]:
    """Triggers whose head is *not* yet satisfied in *atoms* (chase-style)."""
    index = _index_of(atoms)
    check = _index_of(negative_against) if negative_against is not None else index
    for trigger in triggers(rule, index, negative_against=check):
        if not _head_satisfied(rule, trigger.as_dict(), index):
            yield trigger


def satisfies_rule(interpretation: Interpretation | Iterable[Atom], rule: NTGD) -> bool:
    """``I |= σ``."""
    index = _index_of(interpretation)
    for trigger in triggers(rule, index):
        if not _head_satisfied(rule, trigger.as_dict(), index):
            return False
    return True


def satisfies_rules(
    interpretation: Interpretation | Iterable[Atom], rules: RuleSet | Sequence[NTGD]
) -> bool:
    """``I |= Σ``."""
    index = _index_of(interpretation)
    return all(satisfies_rule_indexed(index, rule) for rule in rules)


def satisfies_rule_indexed(index: RelationIndex, rule: NTGD) -> bool:
    for trigger in triggers(rule, index):
        if not _head_satisfied(rule, trigger.as_dict(), index):
            return False
    return True


def is_model(
    interpretation: Interpretation,
    database: Database,
    rules: RuleSet | Sequence[NTGD],
) -> bool:
    """``I |= D ∧ Σ`` (database containment plus rule satisfaction)."""
    if not set(database.atoms) <= interpretation.positive:
        return False
    return satisfies_rules(interpretation, rules)


def violations(
    interpretation: Interpretation | Iterable[Atom], rules: RuleSet | Sequence[NTGD]
) -> Iterator[Trigger]:
    """All active (unsatisfied) triggers of *rules* in *interpretation*."""
    index = _index_of(interpretation)
    for rule in rules:
        yield from active_triggers(rule, index)


# --------------------------------------------------------------------------
# Disjunctive rules
# --------------------------------------------------------------------------

def satisfies_disjunctive_rule(
    interpretation: Interpretation | Iterable[Atom], rule: NDTGD
) -> bool:
    """``I |= σ`` for an NDTGD: some head disjunct must be extendable."""
    index = _index_of(interpretation)
    for match in ground_matches(rule.body, index):
        assignment = match.as_dict()
        satisfied = False
        for disjunct in rule.disjuncts:
            extensions = extend_homomorphisms(list(disjunct), index, partial=assignment)
            if next(extensions, None) is not None:
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def is_model_disjunctive(
    interpretation: Interpretation,
    database: Database,
    rules: DisjunctiveRuleSet | Sequence[NDTGD],
) -> bool:
    """``I |= D ∧ Σ`` for a disjunctive rule set."""
    if not set(database.atoms) <= interpretation.positive:
        return False
    return all(satisfies_disjunctive_rule(interpretation, rule) for rule in rules)
