"""Core data model: terms, atoms, rules, databases, interpretations, queries.

This subpackage implements Section 2 of the paper (the formal preliminaries)
plus the parsing and homomorphism machinery everything else is built on.
"""

from .atoms import Atom, Literal, Predicate, apply_substitution
from .database import Database
from .homomorphism import (
    embeds,
    extend_homomorphisms,
    ground_matches,
    has_homomorphism,
    homomorphisms,
)
from .interpretation import Interpretation
from .modelcheck import (
    Trigger,
    active_triggers,
    is_model,
    is_model_disjunctive,
    satisfies_disjunctive_rule,
    satisfies_rule,
    satisfies_rules,
    triggers,
    violations,
)
from .parser import (
    parse_atom,
    parse_database,
    parse_disjunctive_program,
    parse_disjunctive_rule,
    parse_literal,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from .queries import ConjunctiveQuery, atom_query, certain_answers
from .rules import NDTGD, NTGD, DisjunctiveRuleSet, RuleSet
from .terms import Constant, FunctionTerm, Null, NullFactory, Variable

__all__ = [
    "Atom",
    "Constant",
    "ConjunctiveQuery",
    "Database",
    "DisjunctiveRuleSet",
    "FunctionTerm",
    "Interpretation",
    "Literal",
    "NDTGD",
    "NTGD",
    "Null",
    "NullFactory",
    "Predicate",
    "RuleSet",
    "Trigger",
    "Variable",
    "active_triggers",
    "apply_substitution",
    "atom_query",
    "certain_answers",
    "embeds",
    "extend_homomorphisms",
    "ground_matches",
    "has_homomorphism",
    "homomorphisms",
    "is_model",
    "is_model_disjunctive",
    "parse_atom",
    "parse_database",
    "parse_disjunctive_program",
    "parse_disjunctive_rule",
    "parse_literal",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_term",
    "satisfies_disjunctive_rule",
    "satisfies_rule",
    "satisfies_rules",
    "triggers",
    "violations",
]
