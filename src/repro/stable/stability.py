"""The stability check: evaluating ``¬∃s ((s < p) ∧ τ(D) ∧ τ(Σ))`` on finite models.

Definition 1 calls an interpretation ``I`` a stable model of ``(D, Σ)`` when it
satisfies ``SM[D, Σ]``, i.e.

* ``I |= UNA[D] ∧ D ∧ Σ``  (a classical model respecting unique names), and
* there is **no** tuple of relations ``s < p`` — equivalently, no proper
  sub-interpretation ``J ⊊ I⁺`` with ``D ⊆ J`` — that satisfies the
  transformed theory ``τ_{p▷s}(D) ∧ τ_{p▷s}(Σ)``, in which positive literals
  refer to ``J`` while negative literals keep referring to ``I``.

The second condition is evaluated by a *reduct-confined chase*: starting from
``D`` we repeatedly pick a violated trigger of the transformed rules (positive
body inside the current set ``J``, negative body checked against the fixed
``I``) and branch over all ways of satisfying its head with atoms of ``I⁺``.
If some branch reaches a fixpoint strictly below ``I⁺``, that fixpoint is the
wanted smaller model; if every branch ends at ``I⁺`` (or dies because a head
cannot be satisfied inside ``I⁺``), no smaller model exists.  The procedure is
sound and complete because any smaller model ``J₀`` of the transformed theory
guides a branch that stays inside ``J₀``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms
from ..core.interpretation import Interpretation
from ..core.modelcheck import is_model
from ..core.rules import NTGD, RuleSet
from ..engine import EngineStatistics, RelationIndex, compile_rule, enumerate_matches
from ..errors import SolverLimitError

__all__ = [
    "find_smaller_reduct_model",
    "is_stable_model",
    "stability_counterexample",
]

_DEFAULT_MAX_STATES = 200_000


def _as_positive_part(candidate: Interpretation | Iterable[Atom]) -> frozenset[Atom]:
    if isinstance(candidate, Interpretation):
        return candidate.positive
    return frozenset(candidate)


def find_smaller_reduct_model(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    max_states: int = _DEFAULT_MAX_STATES,
    statistics: Optional[EngineStatistics] = None,
) -> Optional[frozenset[Atom]]:
    """Search for ``s < p`` satisfying ``τ(D) ∧ τ(Σ)`` inside the candidate.

    Returns the positive part of a strictly smaller reduct model, or ``None``
    when the candidate is stable (w.r.t. the second condition of SM[D, Σ]).
    Rule bodies are evaluated through the engine's compiled join plans;
    *statistics* (optional) accumulates the engine counters of the search.
    """
    full = _as_positive_part(candidate)
    base = frozenset(database.atoms)
    if not base <= full:
        # The candidate does not even contain the database; the caller's model
        # check will reject it, and the stability condition is moot.
        return None
    full_index = RelationIndex(full)
    rule_list = list(rules)
    compiled = [compile_rule(rule, statistics=statistics) for rule in rule_list]
    visited: set[frozenset[Atom]] = set()

    def violated_trigger(current_index: RelationIndex):
        for rule, compiled_rule in zip(rule_list, compiled):
            for assignment in enumerate_matches(
                compiled_rule,
                current_index,
                negative_against=full_index,
                statistics=statistics,
            ):
                satisfied = next(
                    extend_homomorphisms(
                        list(rule.head), current_index, partial=assignment
                    ),
                    None,
                )
                if satisfied is None:
                    return rule, assignment
        return None

    def search(current: frozenset[Atom]) -> Optional[frozenset[Atom]]:
        if current in visited:
            return None
        visited.add(current)
        if len(visited) > max_states:
            raise SolverLimitError(
                "stability check exceeded its state budget; the candidate model "
                "is too large for the reference checker"
            )
        current_index = RelationIndex(current)
        violation = violated_trigger(current_index)
        if violation is None:
            return current if current < full else None
        rule, assignment = violation
        for extension in extend_homomorphisms(
            list(rule.head), full_index, partial=assignment
        ):
            added = frozenset(apply_substitution(atom, extension) for atom in rule.head)
            result = search(current | added)
            if result is not None:
                return result
        return None

    return search(base)


def stability_counterexample(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    max_states: int = _DEFAULT_MAX_STATES,
) -> Optional[frozenset[Atom]]:
    """Alias of :func:`find_smaller_reduct_model` with a result-oriented name."""
    return find_smaller_reduct_model(candidate, database, rules, max_states)


def is_stable_model(
    candidate: Interpretation | Iterable[Atom],
    database: Database,
    rules: RuleSet | Sequence[NTGD],
    max_states: int = _DEFAULT_MAX_STATES,
) -> bool:
    """Definition 1: ``candidate`` is a stable model of ``(D, Σ)``.

    The unique name assumption of ``SM[D, Σ]`` is built into the term
    representation (distinct :class:`~repro.core.terms.Constant` objects denote
    distinct values), so only the model check and the stability condition need
    evaluating.
    """
    interpretation = (
        candidate
        if isinstance(candidate, Interpretation)
        else Interpretation(frozenset(candidate))
    )
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(tuple(rules))
    if not is_model(interpretation, database, rule_set):
        return False
    return (
        find_smaller_reduct_model(interpretation, database, rule_set, max_states) is None
    )
