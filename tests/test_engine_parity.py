"""Parity tests: the semi-naive rewire derives exactly the seed's atom sets.

Each test pits the engine-backed implementation (chase, positive closure,
relevant grounding, least model, well-founded model) against a naive reference
evaluator written the way the seed code worked — full rescans, written-order
bodies, no indexes — and asserts the results agree.  For chases of programs
with existential variables the comparison is up to homomorphic equivalence
(null names depend on firing order, which semi-naive evaluation legitimately
changes); for Datalog programs and for grounding/least-model computation the
atom sets must be identical.
"""

from __future__ import annotations

import pytest

from repro import parse_database, parse_program
from repro.chase import oblivious_chase, restricted_chase
from repro.core.homomorphism import embeds, extend_homomorphisms, ground_matches
from repro.engine import RelationIndex
from repro.generators import random_database
from repro.lp.grounding import ground_program, positive_closure
from repro.lp.programs import NormalProgram, NormalRule
from repro.lp.reduct import gelfond_lifschitz_reduct, least_model
from repro.lp.skolem import skolemize
from repro.lp.wfs import well_founded_model


# ---------------------------------------------------------------------------
# Naive reference implementations (the seed's evaluation strategy)
# ---------------------------------------------------------------------------


def naive_restricted_chase_atoms(database, rules):
    """The seed's restricted chase: full rescan of all matches every pass."""
    from repro.core.atoms import apply_substitution
    from repro.core.terms import NullFactory

    atoms = set(database.atoms)
    index = RelationIndex(atoms)
    nulls = NullFactory(prefix="n")
    progress = True
    while progress:
        progress = False
        for rule in rules:
            for match in list(ground_matches(rule.body, index)):
                assignment = match.as_dict()
                if next(
                    extend_homomorphisms(list(rule.head), index, partial=assignment),
                    None,
                ) is not None:
                    continue
                extended = dict(assignment)
                for variable in sorted(rule.existential_variables, key=lambda v: v.name):
                    extended[variable] = nulls.fresh()
                added = tuple(apply_substitution(atom, extended) for atom in rule.head)
                if any(atom not in atoms for atom in added):
                    progress = True
                atoms.update(added)
                index.update(added)
    return frozenset(atoms)


def naive_positive_closure(program, facts):
    derived = set(facts)
    for rule in program:
        if rule.is_fact and rule.head.is_ground:
            derived.add(rule.head)
    index = RelationIndex(derived)
    changed = True
    while changed:
        changed = False
        for rule in program:
            if rule.is_fact:
                continue
            for assignment in extend_homomorphisms(list(rule.positive_body), index):
                head = rule.substitute(assignment).head
                if head.is_ground and head not in derived:
                    derived.add(head)
                    index.add(head)
                    changed = True
    return frozenset(derived)


def naive_ground_program(program, facts):
    closure = naive_positive_closure(program, facts)
    index = RelationIndex(closure)
    rules = [NormalRule(atom) for atom in sorted(facts, key=lambda a: a.sort_key())]
    for rule in program:
        if rule.is_fact:
            if rule.head.is_ground:
                rules.append(rule)
            continue
        for assignment in extend_homomorphisms(list(rule.positive_body), index):
            instance = rule.substitute(assignment)
            if instance.is_ground:
                rules.append(instance)
    return {str(rule) for rule in rules}


def naive_least_model(program):
    derived = set()
    changed = True
    while changed:
        changed = False
        for rule in program:
            if rule.head in derived:
                continue
            if all(atom in derived for atom in rule.positive_body):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


# ---------------------------------------------------------------------------
# Fixtures: the programs named by the issue
# ---------------------------------------------------------------------------

TC_RULES = parse_program("e(X, Y), e(Y, Z) -> e(X, Z)")

FAMILY_RULES = parse_program(
    """
    person(X) -> exists Y. hasParent(X, Y)
    hasParent(X, Y) -> ancestor(X, Y)
    hasParent(X, Y), ancestor(Y, Z) -> ancestor(X, Z)
    """
)

FAMILY_DB = parse_database(
    """
    person(carol).
    person(dave).
    hasParent(carol, dave).
    """
)


class TestChaseParity:
    def test_datalog_chase_identical_atoms(self):
        database = parse_database("e(a, b). e(b, c). e(c, d). e(d, e).")
        expected = naive_restricted_chase_atoms(database, TC_RULES)
        assert restricted_chase(database, TC_RULES).atoms == expected

    def test_datalog_chase_identical_on_random_instances(self):
        from repro.core.atoms import Predicate

        for seed in (1, 2, 3):
            database = random_database(
                [Predicate("e", 2)], constants=8, facts=12, seed=seed
            )
            expected = naive_restricted_chase_atoms(database, TC_RULES)
            assert restricted_chase(database, TC_RULES).atoms == expected

    def test_existential_chase_homomorphically_equivalent(self):
        expected = naive_restricted_chase_atoms(FAMILY_DB, FAMILY_RULES)
        actual = restricted_chase(FAMILY_DB, FAMILY_RULES).atoms
        assert embeds(actual, expected) and embeds(expected, actual)

    def test_oblivious_chase_same_trigger_count(self):
        # The oblivious chase fires every trigger exactly once, so the number
        # of steps (and the constant part of the result) is order-independent.
        database = parse_database("e(a, b). e(b, c). e(c, d).")
        result = oblivious_chase(database, TC_RULES)
        assert result.atoms == naive_restricted_chase_atoms(database, TC_RULES)


class TestGroundingParity:
    def test_positive_closure_identical_transitive_closure(self):
        program = skolemize(TC_RULES)
        facts = parse_database("e(a, b). e(b, c). e(c, d).").atoms
        assert positive_closure(program, facts) == naive_positive_closure(program, facts)

    def test_positive_closure_identical_family_ontology(self):
        program = skolemize(FAMILY_RULES)
        assert positive_closure(program, FAMILY_DB.atoms) == naive_positive_closure(
            program, FAMILY_DB.atoms
        )

    def test_ground_program_identical_rule_sets(self):
        program = skolemize(FAMILY_RULES)
        grounded = ground_program(program, FAMILY_DB)
        assert {str(rule) for rule in grounded} == naive_ground_program(
            program, FAMILY_DB.atoms
        )

    def test_ground_program_identical_with_negation(self):
        rules = parse_program(
            """
            person(X) -> exists Y. hasFather(X, Y)
            hasFather(X, Y) -> sameAs(Y, Y)
            hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)
            """
        )
        database = parse_database("person(alice). person(bea).")
        program = skolemize(rules)
        grounded = ground_program(program, database)
        assert {str(rule) for rule in grounded} == naive_ground_program(
            program, database.atoms
        )


class TestGroundSolverParity:
    def _tc_ground(self):
        program = skolemize(TC_RULES)
        facts = parse_database("e(a, b). e(b, c). e(c, d).").atoms
        return ground_program(program, facts)

    def test_least_model_identical(self):
        grounded = self._tc_ground()
        reduct = gelfond_lifschitz_reduct(grounded, frozenset())
        assert least_model(reduct) == naive_least_model(reduct)

    def test_well_founded_model_on_negation_program(self):
        # p <- not q ; q <- not p ; r <- p ; r <- q : p, q undefined, r undefined.
        program = NormalProgram(
            tuple(
                NormalRule(head, positive, negative)
                for head, positive, negative in [
                    (_atom("p"), (), (_atom("q"),)),
                    (_atom("q"), (), (_atom("p"),)),
                    (_atom("r"), (_atom("p"),), ()),
                    (_atom("r"), (_atom("q"),), ()),
                ]
            )
        )
        model = well_founded_model(program)
        assert model.true == frozenset()
        assert model.undefined == {_atom("p"), _atom("q"), _atom("r")}


def _atom(name: str):
    from repro.core.atoms import Predicate

    return Predicate(name, 0)()


# ---------------------------------------------------------------------------
# Versioned storage parity: fork/add/remove/query interleavings
# ---------------------------------------------------------------------------


class TestVersionedStorageParity:
    """Property tests: a branch of a ``RelationIndex`` always agrees
    with a fresh naive ``RelationIndex`` built from the equivalent flat fact
    set, under any interleaving of fork/add/remove/query operations."""

    PREDICATES = None  # initialised lazily (Predicate import is local)

    @staticmethod
    def _universe():
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant

        p = Predicate("p", 1)
        q = Predicate("q", 2)
        constants = [Constant(f"c{i}") for i in range(5)]
        atoms = [p(c) for c in constants]
        atoms += [q(x, y) for x in constants for y in constants]
        return [p, q], constants, atoms

    @staticmethod
    def _check_branch(index, model):
        """The branch's full read surface against a naive reference index."""
        from repro.core.terms import Variable
        from repro.engine import RelationIndex

        reference = RelationIndex(sorted(model, key=lambda a: a.sort_key()))
        assert index.atoms() == reference.atoms()
        assert len(index) == len(reference)
        predicates = {atom.predicate for atom in model}
        X, Y = Variable("X"), Variable("Y")
        for predicate in predicates:
            assert set(index.candidates(predicate)) == set(
                reference.candidates(predicate)
            )
            assert index.count(predicate) == reference.count(predicate)
        for atom in model:
            assert atom in index
            # Fully bound lookup must find exactly the atom.
            assert set(index.candidates_for(atom)) == {atom}
            # Partially bound lookups agree with the reference tables.
            if atom.predicate.arity == 2:
                pattern = atom.predicate(atom.terms[0], Y)
                assert set(index.candidates_for(pattern)) == set(
                    reference.candidates_for(pattern)
                )
                pattern = atom.predicate(X, atom.terms[1])
                assert set(index.candidates_for(pattern)) == set(
                    reference.candidates_for(pattern)
                )

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_random_interleavings_match_flat_reference(self, seed):
        import random

        from repro.engine import RelationIndex

        rng = random.Random(seed)
        _, _, atoms = self._universe()
        root = RelationIndex(rng.sample(atoms, 8))
        branches = [(root, set(root.atoms()))]
        for _ in range(120):
            operation = rng.choice(["add", "add", "remove", "query", "fork"])
            position = rng.randrange(len(branches))
            index, model = branches[position]
            if operation == "add":
                atom = rng.choice(atoms)
                assert index.add(atom) == (atom not in model)
                model.add(atom)
            elif operation == "remove":
                # Bias towards present atoms so removal is exercised.
                pool = sorted(model, key=lambda a: a.sort_key()) or atoms
                atom = rng.choice(pool if rng.random() < 0.8 else atoms)
                assert index.remove(atom) == (atom in model)
                model.discard(atom)
            elif operation == "query":
                atom = rng.choice(atoms)
                assert (atom in index) == (atom in model)
                expected = {
                    other
                    for other in model
                    if other.predicate == atom.predicate
                    and other.terms[0] == atom.terms[0]
                }
                from repro.core.terms import Variable

                free = tuple(
                    Variable(f"V{i}")
                    for i in range(1, atom.predicate.arity)
                )
                pattern = atom.predicate(atom.terms[0], *free)
                assert set(index.candidates_for(pattern)) == expected
            elif operation == "fork" and len(branches) < 8:
                branches.append((index.fork(), set(model)))
        for index, model in branches:
            self._check_branch(index, model)

    def test_fork_is_isolated_from_later_parent_mutations(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import RelationIndex

        q = Predicate("q", 2)
        c = [Constant(f"c{i}") for i in range(4)]
        X = Variable("X")
        head = RelationIndex([q(c[0], c[1]), q(c[0], c[2])])
        head.candidates_for(q(c[0], X))  # warm the (q, {0}) table
        fork = head.fork()
        fork.add(q(c[0], c[3]))
        # Mutate the parent *after* forking: the fork must not see it.
        head.add(q(c[0], c[0]))
        head.remove(q(c[0], c[1]))
        assert set(fork.candidates_for(q(c[0], X))) == {
            q(c[0], c[1]), q(c[0], c[2]), q(c[0], c[3])
        }
        assert set(head.candidates_for(q(c[0], X))) == {
            q(c[0], c[2]), q(c[0], c[0])
        }

    def test_fork_of_fork_matches_flat_reference(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant
        from repro.engine import RelationIndex

        p = Predicate("p", 1)
        c = [Constant(f"c{i}") for i in range(4)]
        root = RelationIndex([p(c[0]), p(c[1])])
        child = root.fork()
        child.add(p(c[2]))
        child.remove(p(c[0]))
        grandchild = child.fork()
        grandchild.add(p(c[3]))
        grandchild.remove(p(c[1]))
        self._check_branch(grandchild, {p(c[2]), p(c[3])})
        self._check_branch(child, {p(c[1]), p(c[2])})
        self._check_branch(root, {p(c[0]), p(c[1])})


# ---------------------------------------------------------------------------
# Join executor parity: interned row-plane joins vs a naive full-scan matcher
# ---------------------------------------------------------------------------


def naive_match_term(pattern, target, assignment):
    """Structural term matching, the seed's way: variables and nulls bind,
    function terms recurse argument-wise, anything else compares equal."""
    from repro.core.terms import FunctionTerm, Null, Variable

    if isinstance(pattern, (Variable, Null)):
        bound = assignment.get(pattern)
        if bound is None:
            return {**assignment, pattern: target}
        return assignment if bound == target else None
    if isinstance(pattern, FunctionTerm):
        if (
            not isinstance(target, FunctionTerm)
            or pattern.function != target.function
            or len(pattern.arguments) != len(target.arguments)
        ):
            return None
        for sub_pattern, sub_target in zip(pattern.arguments, target.arguments):
            assignment = naive_match_term(sub_pattern, sub_target, assignment)
            if assignment is None:
                return None
        return assignment
    return assignment if pattern == target else None


def naive_matches(
    compiled, atoms, *, partial=None, negative_against=None, delta=None,
    delta_position=None,
):
    """Every assignment of a compiled body into *atoms*: written-order full
    scans, no index, negative images tested for absence from
    *negative_against* (default: *atoms*).  The literal at *delta_position*
    ranges over *delta* only (the semi-naive restriction)."""
    from repro.core.atoms import apply_substitution

    atoms = list(atoms)
    oracle = set(negative_against if negative_against is not None else atoms)
    found = []

    def extend(depth, assignment):
        if depth == len(compiled.positive):
            if not any(
                apply_substitution(atom, assignment) in oracle
                for atom in compiled.negative
            ):
                found.append(assignment)
            return
        pattern = compiled.positive[depth]
        for candidate in delta if depth == delta_position else atoms:
            if candidate.predicate != pattern.predicate:
                continue
            current = assignment
            for term, value in zip(pattern.terms, candidate.terms):
                current = naive_match_term(term, value, current)
                if current is None:
                    break
            if current is not None:
                extend(depth + 1, current)

    extend(0, dict(partial or {}))
    return found


class TestInternedExecutorParity:
    """The interned (row-plane) executor enumerates exactly the assignment
    set of :func:`naive_matches` — every positive shape (plain, function
    terms with variables inside, empty bodies), negation and delta mode."""

    @staticmethod
    def _both_ways(rule, index, oracle_atoms, **kwargs):
        from repro.engine.planner import compile_rule, enumerate_matches

        compiled = compile_rule(rule) if not hasattr(rule, "positive") else rule
        # The oracle interns on the index's table (the global default).
        oracle = RelationIndex(oracle_atoms) if oracle_atoms is not None else None
        engine_run = [
            dict(m)
            for m in enumerate_matches(
                compiled, index, negative_against=oracle, **kwargs
            )
        ]
        naive_run = naive_matches(
            compiled, index.atoms(), negative_against=oracle_atoms, **kwargs
        )
        freeze = lambda m: frozenset(m.items())
        assert {freeze(m) for m in engine_run} == {freeze(m) for m in naive_run}
        return engine_run

    def test_positive_join_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        e = Predicate("e", 2)
        c = [Constant(f"c{i}") for i in range(5)]
        atoms = [e(c[i], c[(i * 3 + 1) % 5]) for i in range(5)]
        atoms += [e(c[0], c[2]), e(c[2], c[4])]
        index = RelationIndex(atoms)
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        rule = CompiledRule(heads=(), positive=(e(X, Y), e(Y, Z)), negative=())
        matches = self._both_ways(rule, index, list(index.atoms()))
        assert matches  # the workload is non-trivial

    def test_negation_and_null_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Null, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        p, q = Predicate("p", 2), Predicate("q", 1)
        c = [Constant(f"c{i}") for i in range(4)]
        n = Null("n1")
        atoms = [p(c[0], c[1]), p(c[1], c[2]), p(c[2], n), q(c[1])]
        index = RelationIndex(atoms)
        X, Y = Variable("X"), Variable("Y")
        # Pattern nulls bind like variables in the positive body, and the
        # negative image must agree between executors too.
        rule = CompiledRule(heads=(), positive=(p(X, Y),), negative=(q(X),))
        matches = self._both_ways(rule, index, list(index.atoms()))
        assert all(m[X] != c[1] for m in matches)
        assert any(m[Y] == n for m in matches)

    def test_delta_mode_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        e = Predicate("e", 2)
        c = [Constant(f"c{i}") for i in range(6)]
        atoms = [e(c[i], c[i + 1]) for i in range(5)]
        index = RelationIndex(atoms)
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        rule = CompiledRule(heads=(), positive=(e(X, Y), e(Y, Z)), negative=())
        delta = [e(c[2], c[3]), e(c[4], c[5])]
        for position in (0, 1):
            self._both_ways(
                rule,
                index,
                list(index.atoms()),
                delta=delta,
                delta_position=position,
            )

    def test_skolem_function_heads_round_trip(self):
        """Encoded head building constructs ground function terms through
        ``SymbolTable.encode_function`` — the atoms must equal the object
        path's ``apply_substitution`` output."""
        from repro.core.atoms import Predicate, apply_substitution
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine import RelationIndex, fixpoint
        from repro.lp.programs import NormalRule

        e, s = Predicate("e", 2), Predicate("s", 2)
        c = [Constant(f"c{i}") for i in range(4)]
        X, Y = Variable("X"), Variable("Y")
        rule = NormalRule(s(X, FunctionTerm("sk", (X, Y))), (e(X, Y),), ())
        facts = [e(c[i], c[i + 1]) for i in range(3)]
        result = fixpoint([rule], facts)
        expected = {
            s(a.terms[0], FunctionTerm("sk", (a.terms[0], a.terms[1])))
            for a in facts
        }
        assert {atom for atom in result.atoms() if atom.predicate == s} == expected

    def test_nested_function_patterns_and_shared_variables(self):
        """``f(g(X), Y)`` destructures twice; ``X`` repeated across a
        function position and a plain position binds once and compares."""
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine.planner import CompiledRule

        p, q = Predicate("p", 2), Predicate("q", 1)
        a, b = Constant("a"), Constant("b")
        X, Y = Variable("X"), Variable("Y")

        def f(*args):
            return FunctionTerm("f", args)

        def g(*args):
            return FunctionTerm("g", args)

        atoms = [
            p(f(g(a), b), a),  # matches
            p(f(g(b), a), b),  # matches
            p(f(g(a), b), b),  # X differs between the two positions
            p(f(FunctionTerm("h", (a,)), b), a),  # wrong inner function
            p(f(g(a)), a),  # wrong outer arity
            p(g(g(a), b), a),  # wrong outer function
            p(a, a),  # a constant at the function position
            q(a),
        ]
        index = RelationIndex(atoms)
        nested = CompiledRule(heads=(), positive=(p(f(g(X), Y), X),), negative=())
        matches = self._both_ways(nested, index, None)
        assert {(m[X], m[Y]) for m in matches} == {(a, b), (b, a)}
        joined = CompiledRule(
            heads=(), positive=(q(X), p(f(g(X), Y), X)), negative=()
        )
        assert [m[Y] for m in self._both_ways(joined, index, None)] == [b]
        delta = [p(f(g(a), b), a), p(f(g(a), b), b), p(a, a)]
        for position in (0, 1):
            self._both_ways(
                joined, index, None, delta=delta, delta_position=position
            )
        self._both_ways(nested, index, None, partial={Y: a})

    def test_constant_at_function_position_never_matches(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine.planner import CompiledRule

        p = Predicate("p", 1)
        b = Constant("b")
        X = Variable("X")
        # The constant ``f`` and ``b`` share no id with ``f(b)``; only the
        # stored function term destructures.
        index = RelationIndex([p(Constant("f")), p(b), p(FunctionTerm("f", (b,)))])
        rule = CompiledRule(heads=(), positive=(p(FunctionTerm("f", (X,))),), negative=())
        assert self._both_ways(rule, index, None) == [{X: b}]

    def test_empty_body_with_negative_literal(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant
        from repro.engine import fixpoint
        from repro.engine.planner import CompiledRule
        from repro.lp.programs import NormalRule

        q, r = Predicate("q", 1), Predicate("r", 1)
        a = Constant("a")
        rule = CompiledRule(heads=(r(a),), positive=(), negative=(q(a),))
        assert self._both_ways(rule, RelationIndex([r(a)]), None) == [{}]
        assert self._both_ways(rule, RelationIndex([q(a)]), None) == []
        program = [NormalRule(r(a), (), (q(a),))]
        assert r(a) in fixpoint(program)
        assert r(a) not in fixpoint(program, [q(a)])

    def test_foreign_table_negation_oracle_raises(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import SymbolTable, fixpoint
        from repro.engine.planner import CompiledRule, enumerate_matches
        from repro.lp.programs import NormalRule

        p, q = Predicate("p", 1), Predicate("q", 1)
        X = Variable("X")
        index = RelationIndex([p(Constant("a"))])
        foreign = RelationIndex(symbols=SymbolTable())
        rule = CompiledRule(heads=(), positive=(p(X),), negative=(q(X),))
        with pytest.raises(ValueError, match="SymbolTable"):
            list(enumerate_matches(rule, index, negative_against=foreign))
        with pytest.raises(ValueError, match="SymbolTable"):
            fixpoint(
                [NormalRule(q(X), (p(X),), (q(X),))],
                index=index,
                negative_against=foreign,
            )


# ---------------------------------------------------------------------------
# Incremental maintenance parity: repaired views vs from-scratch evaluation
# ---------------------------------------------------------------------------


class TestMaintenanceParity:
    """Property tests: a :class:`~repro.engine.MaterializedView` repaired
    through any interleaving of base-fact additions and deletions always
    equals a from-scratch stratified evaluation over the equivalent flat
    fact set — counting strata, DRed strata and cross-stratum negation
    alike.  Programs come from the same generator as the magic-set parity
    suite."""

    @staticmethod
    def _workload(seed: int):
        from repro.core.atoms import Atom, Predicate
        from repro.core.terms import Constant
        from repro.generators import random_database, random_stratified_datalog

        rules = random_stratified_datalog(
            layers=3,
            predicates_per_layer=2,
            negation_probability=0.4,
            recursion_probability=0.6,
            seed=seed,
        )
        predicates = [Predicate(f"s0_{i}", 2) for i in range(2)]
        database = random_database(predicates, constants=5, facts=14, seed=seed)
        universe = [
            Atom(p, (Constant(f"c{i}"), Constant(f"c{j}")))
            for p in predicates
            for i in range(5)
            for j in range(5)
        ]
        return rules, database, universe

    @pytest.mark.parametrize("seed", [0, 7, 13, 29])
    def test_random_add_remove_interleavings_match_scratch(self, seed):
        import random

        from repro.engine import MaterializedView
        from repro.query import evaluate_stratified

        rules, database, universe = self._workload(seed)
        rng = random.Random(seed)
        facts = set(database.atoms)
        view = MaterializedView(rules, facts)
        for _ in range(30):
            roll = rng.random()
            if roll < 0.4 and facts:
                atom = rng.choice(sorted(facts, key=lambda a: a.sort_key()))
                facts.discard(atom)
                view.apply_delta(deletions=[atom])
            elif roll < 0.8:
                atom = rng.choice(universe)
                facts.add(atom)
                view.apply_delta(additions=[atom])
            else:
                # Mixed batch: one addition and one deletion in one apply.
                added = rng.choice(universe)
                pool = sorted(facts - {added}, key=lambda a: a.sort_key())
                removed = rng.choice(pool) if pool else None
                facts.add(added)
                deletions = []
                if removed is not None:
                    facts.discard(removed)
                    deletions.append(removed)
                view.apply_delta(additions=[added], deletions=deletions)
            assert view.atoms() == evaluate_stratified(rules, facts).atoms()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_view_delta_reports_exact_net_change(self, seed):
        import random

        from repro.engine import MaterializedView

        rules, database, universe = self._workload(seed)
        rng = random.Random(seed * 31)
        facts = set(database.atoms)
        view = MaterializedView(rules, facts)
        for _ in range(20):
            before = view.atoms()
            atom = rng.choice(universe)
            if atom in facts:
                facts.discard(atom)
                delta = view.apply_delta(deletions=[atom])
            else:
                facts.add(atom)
                delta = view.apply_delta(additions=[atom])
            after = view.atoms()
            assert delta.added == after - before
            assert delta.removed == before - after
