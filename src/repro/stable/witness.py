"""Witnesses (Definition 4) and the W-Stability problem (Proposition 11).

The witness for an interpretation ``I`` w.r.t. a rule ``σ`` collects, for
every homomorphism ``h`` of the body into ``I``, the set ``E`` of extensions
``µ ⊇ h`` mapping the head into ``I``.  The witness is *positive* when every
``E`` is non-empty; by Lemma 10, ``I |= Σ`` iff every witness is positive.

Proposition 11 shows that, once positive witnesses are available (they fall
out of the guess-and-check algorithm of Section 5.3 for free), checking the
stability condition ``M |= ¬∃s ((s < p) ∧ τ(D) ∧ τ(Σ))`` is in coNP: guess a
proper subset ``J ⊂ M⁺`` containing ``D`` and verify — reusing the witnesses —
that it satisfies the transformed rules.  The verification step implemented
here is the polynomial "check" of that algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms, ground_matches
from ..core.interpretation import Interpretation
from ..core.rules import NTGD, RuleSet
from ..engine.index import RelationIndex
from .stability import find_smaller_reduct_model

__all__ = [
    "WitnessEntry",
    "Witness",
    "compute_witness",
    "compute_witnesses",
    "all_witnesses_positive",
    "verify_subset_against_witnesses",
    "w_stability",
]


@dataclass(frozen=True)
class WitnessEntry:
    """One pair ``(h, E_h^σ)`` of Definition 4."""

    assignment: tuple[tuple, ...]
    extensions: tuple[tuple[tuple, ...], ...]

    @property
    def is_positive(self) -> bool:
        return bool(self.extensions)

    def assignment_dict(self) -> dict:
        return dict(self.assignment)

    def extension_dicts(self) -> list[dict]:
        return [dict(extension) for extension in self.extensions]


@dataclass(frozen=True)
class Witness:
    """The witness ``W_I^σ`` for an interpretation w.r.t. one rule."""

    rule: NTGD
    entries: tuple[WitnessEntry, ...]

    @property
    def is_positive(self) -> bool:
        """Positive = every body homomorphism has at least one head extension."""
        return all(entry.is_positive for entry in self.entries)

    @property
    def is_negative(self) -> bool:
        return not self.is_positive

    def __len__(self) -> int:
        return len(self.entries)


def _sorted_items(mapping: Mapping) -> tuple[tuple, ...]:
    return tuple(sorted(mapping.items(), key=lambda kv: str(kv[0])))


def compute_witness(
    rule: NTGD, interpretation: Interpretation | Iterable[Atom]
) -> Witness:
    """Compute ``W_I^σ`` exhaustively."""
    atoms = (
        interpretation.positive
        if isinstance(interpretation, Interpretation)
        else frozenset(interpretation)
    )
    index = RelationIndex(atoms)
    entries: list[WitnessEntry] = []
    for match in ground_matches(rule.body, index):
        assignment = match.as_dict()
        extensions = [
            _sorted_items(extension)
            for extension in extend_homomorphisms(
                list(rule.head), index, partial=assignment
            )
        ]
        entries.append(WitnessEntry(_sorted_items(assignment), tuple(extensions)))
    return Witness(rule, tuple(entries))


def compute_witnesses(
    rules: RuleSet | Sequence[NTGD], interpretation: Interpretation | Iterable[Atom]
) -> dict[int, Witness]:
    """The witnesses of every rule, keyed by rule position."""
    return {
        position: compute_witness(rule, interpretation)
        for position, rule in enumerate(rules)
    }


def all_witnesses_positive(witnesses: Mapping[int, Witness]) -> bool:
    """Lemma 10: ``I |= Σ`` iff every witness is positive."""
    return all(witness.is_positive for witness in witnesses.values())


def verify_subset_against_witnesses(
    subset: Iterable[Atom],
    model: Interpretation | Iterable[Atom],
    rules: RuleSet | Sequence[NTGD],
    witnesses: Mapping[int, Witness],
) -> bool:
    """The polynomial check of Proposition 11.

    Given a guessed ``J ⊆ M⁺`` (with ``D ⊆ J``), decide whether the total
    interpretation induced by ``J`` satisfies every transformed rule
    ``τ_{p▷s}(σ)``: body homomorphisms are read off the witnesses of ``M``
    (restricted to those whose positive body lies in ``J``; negative literals
    keep referring to ``M``), and each must admit an extension whose head
    image lies in ``J``.
    """
    subset_atoms = frozenset(subset)
    model_atoms = (
        model.positive if isinstance(model, Interpretation) else frozenset(model)
    )
    for position, rule in enumerate(rules):
        witness = witnesses[position]
        positive_body = [literal.atom for literal in rule.positive_body]
        for entry in witness.entries:
            assignment = entry.assignment_dict()
            body_image = [apply_substitution(atom, assignment) for atom in positive_body]
            if not all(atom in subset_atoms for atom in body_image):
                continue
            # Negative literals were already validated against M when the
            # witness entry was produced (they refer to p, which is fixed).
            satisfied = False
            for extension in entry.extension_dicts():
                head_image = [apply_substitution(atom, extension) for atom in rule.head]
                if all(atom in subset_atoms for atom in head_image):
                    satisfied = True
                    break
            if not satisfied:
                return False
    return True


def w_stability(
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    model: Interpretation | Iterable[Atom],
    witnesses: Optional[Mapping[int, Witness]] = None,
) -> bool:
    """The W-Stability problem: does ``M |= Φ_{D,Σ}`` hold?

    ``Φ_{D,Σ} = ¬∃s ((s < p) ∧ τ(D) ∧ τ(Σ))``.  The input model is assumed to
    be a model of ``(D ∧ Σ)`` with positive witnesses (as in the problem
    statement); the answer is ``True`` iff no strictly smaller reduct model
    exists.
    """
    interpretation = (
        model if isinstance(model, Interpretation) else Interpretation(frozenset(model))
    )
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(tuple(rules))
    if witnesses is None:
        witnesses = compute_witnesses(rule_set, interpretation)
    smaller = find_smaller_reduct_model(interpretation, database, rule_set)
    if smaller is None:
        return True
    # Sanity: the counterexample must pass the witness-based verification,
    # otherwise the two checkers disagree (exercised by the test suite).
    assert verify_subset_against_witnesses(smaller, interpretation, rule_set, witnesses)
    return False
