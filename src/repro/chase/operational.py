"""The chase-based operational stable model semantics of Baget et al. [3].

The paper discusses (Section 1) the operational semantics proposed by Baget,
Garreau, Mugnier and Rocher: a (possibly infinite) set of atoms ``M`` is a
stable model of ``(D ∧ Σ)`` if it can be obtained by chasing ``D`` with the
positive parts of the rules of Σ such that

* every rule application is **sound** — no negative body literal of the fired
  rule belongs to the final result ``M``; and
* the chase is **complete** — every applicable rule that is not blocked is
  eventually applied (i.e. its head is satisfied in ``M``).

Crucially, the chase always invents a *fresh null* for an existential
variable, never a constant; this is exactly why the semantics cannot capture
the intended meaning of Example 2 (``hasFather(alice, bob)`` can never appear
in any such model), which this module lets us demonstrate executably.

The implementation enumerates finite operational stable models by a
depth-first search over firing sequences; it terminates for weakly-acyclic
rule sets and accepts a step budget otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..classes.position_graph import is_weakly_acyclic
from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms
from ..engine.index import RelationIndex
from ..core.interpretation import Interpretation
from ..core.rules import NTGD, RuleSet
from ..core.terms import Null
from ..engine import compile_rule, enumerate_matches
from ..errors import SolverLimitError, UnsupportedClassError

__all__ = ["operational_stable_models", "is_operational_stable_model"]


def _as_rule_set(rules: RuleSet | Sequence[NTGD]) -> RuleSet:
    return rules if isinstance(rules, RuleSet) else RuleSet(tuple(rules))


def _canonical(atoms: frozenset[Atom]) -> str:
    """A canonical string for a set of atoms, renaming nulls by first occurrence."""
    renaming: dict[Null, str] = {}

    def term_key(term) -> str:
        if isinstance(term, Null):
            if term not in renaming:
                renaming[term] = f"_:{len(renaming)}"
            return renaming[term]
        return str(term)

    rendered = []
    for atom in sorted(atoms, key=lambda a: a.sort_key()):
        rendered.append(f"{atom.predicate.name}({','.join(term_key(t) for t in atom.terms)})")
    return ";".join(rendered)


def _active_triggers(
    rules: RuleSet, atoms: set[Atom], index: RelationIndex
) -> list[tuple[NTGD, dict, tuple[Atom, ...]]]:
    """Triggers that are applicable, not blocked (w.r.t. the current set), and unsatisfied.

    Bodies are matched through the engine's compiled join plans (negative
    literals checked for absence against the current set), so each search
    state pays an index nested-loop join rather than a full rescan.
    """
    found: list[tuple[NTGD, dict, tuple[Atom, ...]]] = []
    for rule in rules:
        compiled = compile_rule(rule)
        for assignment in enumerate_matches(compiled, index):
            if next(
                extend_homomorphisms(list(rule.head), index, partial=assignment), None
            ) is not None:
                continue
            negative = tuple(
                apply_substitution(atom, assignment) for atom in compiled.negative
            )
            found.append((rule, assignment, negative))
    return found


def is_operational_stable_model(
    candidate: Interpretation | frozenset[Atom],
    database: Database,
    rules: RuleSet | Sequence[NTGD],
) -> bool:
    """Completeness + soundness check of a candidate against the final set itself.

    The candidate must (i) contain the database, (ii) satisfy every rule whose
    negative literals are absent from the candidate (completeness), and (iii)
    be reproducible by sound rule applications — which, for a finite
    candidate produced by :func:`operational_stable_models`, reduces to the
    first two conditions plus derivability of every non-database atom.
    """
    atoms = (
        candidate.positive if isinstance(candidate, Interpretation) else frozenset(candidate)
    )
    if not set(database.atoms) <= atoms:
        return False
    rule_set = _as_rule_set(rules)
    index = RelationIndex(atoms)
    for rule in rule_set:
        for assignment in enumerate_matches(compile_rule(rule), index):
            if next(
                extend_homomorphisms(list(rule.head), index, partial=assignment), None
            ) is None:
                return False
    return True


def operational_stable_models(
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    max_steps: Optional[int] = None,
    max_models: Optional[int] = None,
) -> Iterator[Interpretation]:
    """Enumerate the finite operational (Baget et al.) stable models.

    The search branches over the order in which active triggers are fired
    (order matters because firing a rule may *block* another rule through its
    negative literals).  Existential variables are always witnessed by fresh
    nulls — this is the defining feature of the operational semantics.
    """
    rule_set = _as_rule_set(rules)
    if max_steps is None and not is_weakly_acyclic(rule_set):
        raise UnsupportedClassError(
            "operational enumeration needs weak acyclicity or an explicit max_steps"
        )
    seen_states: set[str] = set()
    produced: set[str] = set()
    null_counter = [0]
    emitted = [0]

    def fresh_null() -> Null:
        null_counter[0] += 1
        return Null(f"op{null_counter[0]}")

    def search(
        atoms: frozenset[Atom], forbidden: frozenset[Atom], steps: int
    ) -> Iterator[Interpretation]:
        if max_models is not None and emitted[0] >= max_models:
            return
        state_key = (_canonical(atoms), _canonical(forbidden))
        if state_key in seen_states:
            return
        seen_states.add(state_key)
        index = RelationIndex(atoms)
        triggers = _active_triggers(rule_set, set(atoms), index)
        if not triggers:
            # Fixpoint.  Soundness holds because `forbidden` collects the
            # negative atoms of every fired trigger and branches deriving a
            # forbidden atom are pruned; completeness holds because no
            # active (applicable, unblocked, unsatisfied) trigger remains.
            key = _canonical(atoms)
            if key not in produced:
                produced.add(key)
                emitted[0] += 1
                yield Interpretation(atoms)
            return
        if max_steps is not None and steps >= max_steps:
            raise SolverLimitError("operational chase exceeded its step budget")
        for rule, assignment, negative_atoms in triggers:
            extended = dict(assignment)
            for variable in sorted(rule.existential_variables, key=lambda v: v.name):
                extended[variable] = fresh_null()
            added = tuple(apply_substitution(atom, extended) for atom in rule.head)
            # Soundness: the negative atoms relied upon by this (and every
            # previously fired) trigger must never be derived later.
            new_forbidden = forbidden | frozenset(negative_atoms)
            if any(atom in new_forbidden for atom in added) or any(
                atom in atoms for atom in negative_atoms
            ):
                continue
            new_atoms = frozenset(atoms | set(added))
            yield from search(new_atoms, new_forbidden, steps + 1)

    yield from search(frozenset(database.atoms), frozenset(), 0)
