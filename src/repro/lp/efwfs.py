"""The equality-friendly well-founded semantics (EFWFS) of Gottlob et al.

Section 1 of the paper discusses the EFWFS [21] as another Skolemization-free
approach to default negation for NTGDs.  Its key idea: the meaning of
``(D, Σ)`` is captured by the *set* of normal programs ``I(D, Σ)`` obtained by

1. unifying constants occurring in ``D`` (the unique name assumption is not
   adopted), and
2. replacing every NTGD by arbitrary ground *instances* — at least one for
   every assignment of its body variables — where existential variables are
   instantiated by constants;

the EFWF models of ``(D, Σ)`` are the well-founded models of those programs.
A query is entailed iff it holds in every EFWF model.

The instantiation space is infinite (arbitrary constants), so this module
works over a caller-supplied finite constant pool and enumerates a bounded
family of programs.  That is enough to reproduce the paper's two data points:
the EFWFS gives the expected answer for Example 2 but the unexpected one for
Example 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.queries import ConjunctiveQuery
from ..core.rules import NTGD, RuleSet
from ..core.terms import Constant, Variable
from ..errors import SolverLimitError
from .programs import NormalProgram, NormalRule
from .wfs import WellFoundedModel, well_founded_model

__all__ = ["efwfs_models", "efwfs_entails", "InstantiationChoice"]

_MAX_PROGRAMS = 50_000


@dataclass(frozen=True)
class InstantiationChoice:
    """One member of ``I(D, Σ)`` together with its well-founded model."""

    program: NormalProgram
    model: WellFoundedModel


def _partitions(items: Sequence[Constant]) -> Iterator[dict[Constant, Constant]]:
    """All ways of unifying the database constants (as quotient maps)."""
    items = list(items)
    if not items:
        yield {}
        return

    def rec(index: int, blocks: list[list[Constant]]) -> Iterator[list[list[Constant]]]:
        if index == len(items):
            yield [list(block) for block in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from rec(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from rec(index + 1, blocks)
        blocks.pop()

    for blocks in rec(0, []):
        mapping: dict[Constant, Constant] = {}
        for block in blocks:
            representative = sorted(block, key=lambda c: c.name)[0]
            for member in block:
                mapping[member] = representative
        yield mapping


def _body_assignments(
    rule: NTGD, pool: Sequence[Constant]
) -> Iterator[dict[Variable, Constant]]:
    variables = sorted(rule.body_variables, key=lambda v: v.name)
    for values in itertools.product(pool, repeat=len(variables)):
        yield dict(zip(variables, values))


def _head_instances(
    rule: NTGD, assignment: dict[Variable, Constant], pool: Sequence[Constant]
) -> list[list[NormalRule]]:
    """All ground instance groups for one body assignment.

    Each instance chooses constants for the existential variables; an instance
    contributes one normal rule per head atom (conjunctive heads are split).
    """
    existentials = sorted(rule.existential_variables, key=lambda v: v.name)
    positive = tuple(
        apply_substitution(literal.atom, assignment) for literal in rule.positive_body
    )
    negative = tuple(
        apply_substitution(literal.atom, assignment) for literal in rule.negative_body
    )
    groups: list[list[NormalRule]] = []
    for values in itertools.product(pool, repeat=len(existentials)):
        extended = dict(assignment)
        extended.update(zip(existentials, values))
        heads = [apply_substitution(atom, extended) for atom in rule.head]
        groups.append(
            [NormalRule(head, positive, negative, label=rule.label) for head in heads]
        )
    return groups


def efwfs_models(
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    extra_constants: Iterable[Constant] = (),
    unify_constants: bool = True,
    max_instances_per_assignment: int = 2,
    max_programs: int = _MAX_PROGRAMS,
) -> Iterator[InstantiationChoice]:
    """Enumerate (a bounded family of) EFWF models of ``(D, Σ)``.

    Paper provenance: the instantiation family ``I(D, Σ)`` of the EFWFS
    (**Section 1**, citing Gottlob et al. [21]) — constant unifications
    (step 1) times ground-instance selections (step 2), each member paired
    with its well-founded model.  The enumeration is bounded (finite pool,
    ``max_instances_per_assignment``, ``max_programs``) because the full
    family is infinite; the bounds are sufficient for the paper's two data
    points (**Examples 2 and 3**).

    Parameters
    ----------
    extra_constants:
        Constants beyond ``dom(D)`` the instantiation may use (the "Bob" and
        "John" of Example 3).
    unify_constants:
        Whether to also enumerate the constant unifications of step (1).
    max_instances_per_assignment:
        How many instances (per rule and body assignment) a program may pick;
        the paper only requires "at least one", and two suffices to exhibit
        the Example 3 anomaly.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(tuple(rules))
    produced = 0
    base_constants = sorted(database.constants, key=lambda c: c.name)
    unifications = _partitions(base_constants) if unify_constants else iter([{}])
    for unification in unifications:
        unified_atoms = [
            apply_substitution(atom, unification) for atom in database.atoms
        ]
        pool = sorted(
            set(unification.values() or base_constants)
            | set(extra_constants)
            | {c for atom in unified_atoms for c in atom.constants},
            key=lambda c: c.name,
        )
        if not pool:
            pool = sorted(set(extra_constants), key=lambda c: c.name)
        if not pool:
            continue
        # For every rule and body assignment gather the possible instance groups.
        per_assignment: list[list[list[NormalRule]]] = []
        for rule in rule_set:
            for assignment in _body_assignments(rule, pool):
                groups = _head_instances(rule, assignment, pool)
                choices: list[list[NormalRule]] = []
                for size in range(1, min(max_instances_per_assignment, len(groups)) + 1):
                    for combo in itertools.combinations(range(len(groups)), size):
                        choices.append(
                            [ground for i in combo for ground in groups[i]]
                        )
                per_assignment.append(choices)
        for selection in itertools.product(*per_assignment):
            program_rules = [NormalRule(atom) for atom in unified_atoms]
            for group in selection:
                program_rules.extend(group)
            program = NormalProgram(tuple(program_rules))
            yield InstantiationChoice(program, well_founded_model(program))
            produced += 1
            if produced >= max_programs:
                raise SolverLimitError(
                    "EFWFS enumeration exceeded max_programs; restrict the pool"
                )


def efwfs_entails(
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    query: ConjunctiveQuery,
    extra_constants: Iterable[Constant] = (),
    **kwargs,
) -> bool:
    """``(D, Σ)`` entails the Boolean query under the EFWFS.

    A positive literal holds iff it is true in the well-founded model; a
    negative literal ``not p(t)`` holds iff ``p(t)`` is false (not merely
    undefined).  The query is entailed iff it holds in every enumerated model.

    Paper provenance: **Section 1**'s comparison of the EFWFS against the
    paper's SMS — this function reproduces the expected answer for
    **Example 2** and the unexpected (over-cautious) one for **Example 3**,
    the anomaly motivating the second-order semantics.
    """
    for choice in efwfs_models(database, rules, extra_constants, **kwargs):
        model = choice.model
        # Evaluate the query three-valuedly: positives against true atoms,
        # negatives must be *false* (not undefined) to be certain.
        true_atoms = model.true
        certain = False
        for assignment_atoms in _query_matches(query, true_atoms):
            if all(model.value(a) == "false" for a in assignment_atoms):
                certain = True
                break
        if not certain:
            return False
    return True


def _query_matches(query: ConjunctiveQuery, true_atoms: frozenset[Atom]):
    """Yield, for every match of the positive part, the ground negative atoms."""
    from ..core.homomorphism import extend_homomorphisms
    from ..engine.index import RelationIndex

    index = RelationIndex(true_atoms)
    for assignment in extend_homomorphisms(list(query.positive_atoms), index):
        yield [apply_substitution(atom, assignment) for atom in query.negative_atoms]
