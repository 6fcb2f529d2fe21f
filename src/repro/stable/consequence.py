"""The immediate consequence operator ``T_{Σ,I}`` (Section 5.1).

Given a set ``Σ`` of NTGDs, a set ``S`` of atoms and an interpretation ``I``,
an atom ``p(t) ∈ I⁺`` is an *immediate consequence* for ``S`` and ``Σ``
relative to ``I`` if some rule ``σ`` and homomorphism ``h`` satisfy
``h(B(σ)) ⊆ S ∪ I⁻`` (positive body inside ``S``, negated atoms absent from
``I⁺``) and ``p(t) ∈ h(H(σ))``.  The operator

    T_{Σ,I}(S) = { p(t) ∈ I⁺ | p(t) is an immediate consequence }

is monotone in ``S``; its least fixpoint ``T∞_{Σ,I}(D)`` characterises the
positive part of every stable model (Lemma 7) and drives the size bound of
Lemma 8 / Proposition 9.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms
from ..core.interpretation import Interpretation
from ..core.rules import NTGD, RuleSet
from ..engine import RelationIndex, compile_rule, enumerate_matches

__all__ = [
    "immediate_consequences",
    "consequence_operator",
    "iterate_consequences",
    "least_fixpoint",
    "satisfies_lemma7",
]


def _positive_part(interpretation: Interpretation | Iterable[Atom]) -> frozenset[Atom]:
    if isinstance(interpretation, Interpretation):
        return interpretation.positive
    return frozenset(interpretation)


def immediate_consequences(
    current: Iterable[Atom],
    rules: RuleSet | Sequence[NTGD],
    interpretation: Interpretation | Iterable[Atom],
) -> frozenset[Atom]:
    """All immediate consequences for *current* and *rules* relative to *interpretation*.

    Only atoms of ``I⁺`` qualify, so head extensions are matched against the
    interpretation: for every body homomorphism into *current* (negatives
    checked against the interpretation), every head atom instance that lies in
    ``I⁺`` under some extension of the homomorphism is a consequence.
    """
    oracle = _positive_part(interpretation)
    oracle_index = RelationIndex(oracle)
    current_index = RelationIndex(current)
    produced: set[Atom] = set()
    for rule in rules:
        for assignment in enumerate_matches(
            compile_rule(rule), current_index, negative_against=oracle_index
        ):
            for head_atom in rule.head:
                for extension in extend_homomorphisms(
                    [head_atom], oracle_index, partial=assignment
                ):
                    produced.add(apply_substitution(head_atom, extension))
    return frozenset(produced)


def consequence_operator(
    rules: RuleSet | Sequence[NTGD],
    interpretation: Interpretation | Iterable[Atom],
):
    """``T_{Σ,I}`` as a unary callable over atom sets."""

    def operator(current: Iterable[Atom]) -> frozenset[Atom]:
        return immediate_consequences(current, rules, interpretation)

    return operator


def iterate_consequences(
    start: Database | Iterable[Atom],
    rules: RuleSet | Sequence[NTGD],
    interpretation: Interpretation | Iterable[Atom],
) -> list[frozenset[Atom]]:
    """The sequence ``T⁰, T¹, T², ...`` until the fixpoint (inclusive).

    ``T⁰ = S`` and ``Tⁱ⁺¹ = T_{Σ,I}(Tⁱ) ∪ Tⁱ`` following the paper's
    cumulative definition.
    """
    current = frozenset(start.atoms) if isinstance(start, Database) else frozenset(start)
    stages = [current]
    while True:
        next_stage = immediate_consequences(current, rules, interpretation) | current
        if next_stage == current:
            return stages
        stages.append(next_stage)
        current = next_stage


def least_fixpoint(
    start: Database | Iterable[Atom],
    rules: RuleSet | Sequence[NTGD],
    interpretation: Interpretation | Iterable[Atom],
) -> frozenset[Atom]:
    """``T∞_{Σ,I}(S)``: the least fixpoint of the cumulative operator."""
    return iterate_consequences(start, rules, interpretation)[-1]


def satisfies_lemma7(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: RuleSet | Sequence[NTGD],
) -> bool:
    """Check the Lemma 7 equation ``M⁺ = T∞_{Σ,M}(D)`` for a candidate model.

    Every stable model satisfies it; the converse fails (the ``s(a)`` /
    ``p(a,b), p(a,c)`` example after Lemma 7), which tests exercise.
    """
    positive = _positive_part(candidate)
    return least_fixpoint(database, rules, candidate) == positive
