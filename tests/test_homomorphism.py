"""Tests for the homomorphism engine, databases, interpretations and queries."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Constant, Database, Interpretation, Null, Variable, parse_atom, parse_query
from repro.core.atoms import Atom, Predicate
from repro.core.homomorphism import (
    embeds,
    ground_matches,
    has_homomorphism,
    homomorphisms,
)
from repro.engine import RelationIndex
from repro.errors import GroundingError

P = Predicate("p", 2)
Q = Predicate("q", 1)
X, Y = Variable("X"), Variable("Y")
a, b, c = Constant("a"), Constant("b"), Constant("c")
n = Null("n")


class TestMatching:
    """Single-atom homomorphisms: the term-matching rules of Section 2."""

    def test_variable_binds(self):
        assert list(homomorphisms([Q(X)], [Q(a)])) == [{X: a}]

    def test_variable_consistency(self):
        assert list(homomorphisms([Q(X)], [Q(b)], partial={X: a})) == []
        assert list(homomorphisms([Q(X)], [Q(a)], partial={X: a})) == [{X: a}]
        assert list(homomorphisms([P(X, X)], [P(a, b)])) == []

    def test_constant_identity(self):
        assert list(homomorphisms([Q(a)], [Q(a)])) == [{}]
        assert list(homomorphisms([Q(a)], [Q(b)])) == []

    def test_null_in_source_is_flexible(self):
        assert list(homomorphisms([Q(n)], [Q(a)])) == [{n: a}]

    def test_atom_predicate_mismatch(self):
        assert list(homomorphisms([Q(X)], [P(a, b)])) == []

    def test_atom_match(self):
        assert list(homomorphisms([P(X, Y)], [P(a, b)])) == [{X: a, Y: b}]


class TestHomomorphisms:
    def setup_method(self):
        self.target = [P(a, b), P(b, c), Q(a)]

    def test_single_atom(self):
        results = list(homomorphisms([P(X, Y)], self.target))
        assert len(results) == 2

    def test_join(self):
        results = list(homomorphisms([P(X, Y), P(Y, Z := Variable("Z"))], self.target))
        assert results == [{X: a, Y: b, Z: c}]

    def test_negative_literal_blocks(self):
        source = [P(X, Y).positive(), Q(Y).negated()]
        results = list(homomorphisms(source, self.target))
        # q(b) and q(c) are absent, so both p-matches survive.
        assert len(results) == 2
        source = [P(X, Y).positive(), Q(X).negated()]
        results = list(homomorphisms(source, self.target))
        # q(a) is present, killing the match with X = a.
        assert len(results) == 1

    def test_has_homomorphism(self):
        assert has_homomorphism([P(X, X)], [P(a, a)])
        assert not has_homomorphism([P(X, X)], [P(a, b)])

    def test_embeds_treats_nulls_as_variables(self):
        assert embeds([P(a, n)], [P(a, b)])
        assert not embeds([P(n, n)], [P(a, b)])

    def test_constants_map_to_themselves_only(self):
        assert not has_homomorphism([P(a, X)], [P(b, c)])

    def test_ground_matches_reports_negatives(self):
        rule_body = [P(X, Y).positive(), Q(Y).negated()]
        matches = list(ground_matches(rule_body, self.target))
        assert all(match.negative for match in matches)

    def test_partial_assignment_respected(self):
        results = list(homomorphisms([P(X, Y)], self.target, partial={X: b}))
        assert results == [{X: b, Y: c}]


class TestAtomIndex:
    def test_candidates_by_predicate(self):
        index = RelationIndex([P(a, b), Q(a)])
        assert list(index.candidates(Q)) == [Q(a)]
        assert len(index) == 2

    def test_duplicate_add_is_idempotent(self):
        index = RelationIndex()
        index.add(P(a, b))
        index.add(P(a, b))
        assert len(index) == 1


class TestDatabase:
    def test_rejects_nulls_and_variables(self):
        with pytest.raises(GroundingError):
            Database.of([P(a, n)])
        with pytest.raises(GroundingError):
            Database.of([P(a, X)])

    def test_set_operations(self):
        database = Database.of([P(a, b)]).with_atoms([Q(a)])
        assert len(database) == 2
        assert database.restrict([Q]).atoms == frozenset([Q(a)])
        assert len(database.without_atoms([Q(a)])) == 1

    def test_constants(self):
        assert Database.of([P(a, b)]).constants == {a, b}

    def test_union(self):
        assert len(Database.of([P(a, b)]) | Database.of([Q(a)])) == 2


class TestInterpretation:
    def test_domain_includes_atom_terms(self):
        interpretation = Interpretation.of([P(a, n)])
        assert n in interpretation.domain

    def test_literal_satisfaction(self):
        interpretation = Interpretation.of([P(a, b)])
        assert interpretation.satisfies_literal(P(a, b).positive())
        assert interpretation.satisfies_literal(P(a, c).negated())
        assert not interpretation.satisfies_literal(P(a, b).negated())

    def test_non_ground_literal_rejected(self):
        interpretation = Interpretation.of([P(a, b)])
        with pytest.raises(GroundingError):
            interpretation.satisfies_literal(P(a, X).positive())

    def test_subset_relations(self):
        small = Interpretation.of([P(a, b)])
        large = Interpretation.of([P(a, b), Q(a)])
        assert small.issubset_of(large)
        assert small.proper_subset_of(large)
        assert not large.issubset_of(small)


class TestQueryEvaluation:
    def test_boolean_query_positive(self):
        query = parse_query("? :- p(X, Y), not q(Y)")
        assert query.holds_in([P(a, b)])
        assert not query.holds_in([P(a, b), Q(b)])

    def test_answer_variables(self):
        query = parse_query("?(X) :- p(X, Y)")
        answers = query.answers([P(a, b), P(b, c)])
        assert answers == {(a,), (b,)}

    def test_answers_exclude_null_tuples(self):
        query = parse_query("?(Y) :- p(X, Y)")
        assert query.answers([P(a, n)]) == frozenset()

    def test_substitute_answer(self):
        query = parse_query("?(X) :- p(X, Y)")
        boolean = query.substitute_answer((a,))
        assert boolean.is_boolean
        assert boolean.holds_in([P(a, b)])
        assert not boolean.holds_in([P(b, c)])


@given(st.integers(min_value=0, max_value=12))
def test_chain_query_needs_full_chain(length):
    """p(c0,c1), ..., p(c_{k-1},c_k) embeds a k-step variable chain, k+1 does not."""
    constants = [Constant(f"c{i}") for i in range(length + 1)]
    atoms = [P(constants[i], constants[i + 1]) for i in range(length)]
    variables = [Variable(f"V{i}") for i in range(length + 2)]
    chain = [P(variables[i], variables[i + 1]) for i in range(length)]
    too_long = [P(variables[i], variables[i + 1]) for i in range(length + 1)]
    if length:
        assert has_homomorphism(chain, atoms)
        assert not has_homomorphism(too_long, atoms)
