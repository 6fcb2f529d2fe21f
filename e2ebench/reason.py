"""The reasoning jobs: the paper's decision procedures as batch work.

No service, HTTP or WAL is involved; each job runs in the generator process
and is checked against its own oracle:

* ``sms`` — SMS-QAns under the cautious semantics: the father example
  (``not abnormal`` is certain, ``max_nulls`` = number of persons), Theorem 1
  on seeded random weakly-acyclic programs (LP stable models == second-order
  stable models of the Skolemized program) and the Theorem 6 reduction on a
  satisfiable 2-QBF (the verdict must be "satisfiable");
* ``closure`` — a cold ``QuerySession`` answering the all-pairs
  ``reachable`` query on 16x48 chains (exactly 16*48*49/2 tuples, each
  checked);
* ``chase`` — ``restricted_chase`` of a seeded database under a fixed
  weakly-acyclic program (it must terminate within ``chase_size_bound``).

:class:`ReasonTrace` installs the outside-in timers for the traced run on the
names the stable-model engine calls at run time, so the generator's and the
stability checker's time are told apart.
"""

from __future__ import annotations

import time

from common import Layers, RULES_TEXT

FATHER_RULES = """
person(X) -> exists Y. hasFather(X, Y)
hasFather(X, Y) -> sameAs(Y, Y)
hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)
"""
FATHER_PERSONS = 2
#: Theorem 1 programs per job (random weakly-acyclic, 2 layers x 2 predicates)
THEOREM1_PROGRAMS = 8
CLOSURE_CHAINS = 16
CLOSURE_LENGTH = 48
#: the chase program is fixed; only the database is drawn from the seed
CHASE_PROGRAM_SEED = 7
CHASE_CONSTANTS = 60
CHASE_FACTS = 3000


class Jobs:
    """Builds every job input from one seed, runs jobs, checks oracles."""

    def __init__(self, seed: int, plant_wrong: bool = False) -> None:
        from repro import parse_database, parse_program, parse_query
        from repro.core.atoms import Atom, Predicate
        from repro.core.queries import ConjunctiveQuery
        from repro.core.terms import Constant, Variable
        from repro.encodings import QbfLiteral, TwoQbfExists
        from repro.generators import (
            random_database,
            random_weakly_acyclic_program,
        )

        self.plant_wrong = plant_wrong
        self.father_rules = parse_program(FATHER_RULES)
        self.father_database = parse_database(
            " ".join(f"person(p{i})." for i in range(FATHER_PERSONS))
        )
        self.father_query = parse_query(
            "? :- "
            + ", ".join(f"not abnormal(p{i})" for i in range(FATHER_PERSONS))
        )
        self.theorem1 = []
        for offset in range(THEOREM1_PROGRAMS):
            program_seed = seed * THEOREM1_PROGRAMS + offset
            program = random_weakly_acyclic_program(
                layers=2, predicates_per_layer=2, seed=program_seed
            )
            database = random_database(
                sorted(program.extensional_predicates(), key=lambda p: p.name),
                constants=2,
                facts=3,
                seed=program_seed,
            )
            self.theorem1.append((program, database))
        self.qbf = TwoQbfExists(
            ("x",),
            ("y",),
            (
                (QbfLiteral("x"), QbfLiteral("y")),
                (QbfLiteral("x"), QbfLiteral("y", False)),
            ),
        )
        self.closure_rules = parse_program(RULES_TEXT)
        link = Predicate("link", 2)
        self.closure_facts = [
            Atom(link, (Constant(f"c{c}_{i}"), Constant(f"c{c}_{i + 1}")))
            for c in range(CLOSURE_CHAINS)
            for i in range(CLOSURE_LENGTH)
        ]
        x, y = Variable("X"), Variable("Y")
        self.closure_query = ConjunctiveQuery(
            (Atom(Predicate("reachable", 2), (x, y)).positive(),), (x, y)
        )
        self.closure_expected = {
            (f"c{c}_{i}", f"c{c}_{j}")
            for c in range(CLOSURE_CHAINS)
            for i in range(CLOSURE_LENGTH + 1)
            for j in range(i + 1, CLOSURE_LENGTH + 1)
        }
        self.chase_program = random_weakly_acyclic_program(
            layers=5,
            predicates_per_layer=4,
            negation_probability=0.0,
            seed=CHASE_PROGRAM_SEED,
        )
        self.chase_database = random_database(
            sorted(
                self.chase_program.extensional_predicates(),
                key=lambda p: p.name,
            ),
            constants=CHASE_CONSTANTS,
            facts=CHASE_FACTS,
            seed=seed,
        )

    # ------------------------------------------------------------------ jobs
    def sms(self, layers: "Layers | None" = None) -> list:
        """Runs the SMS-QAns jobs; returns the names of failed oracles."""
        from repro.encodings import decide_exists_forall_sms
        from repro.lp import lp_stable_models, skolemize
        from repro.stable import Universe, certain_answer, enumerate_stable_models

        failures = []
        universe = Universe.for_database(
            self.father_database, max_nulls=FATHER_PERSONS
        )
        if not certain_answer(
            self.father_database,
            self.father_rules,
            self.father_query,
            universe=universe,
        ):
            failures.append("father: not abnormal is not certain")
        for program, database in self.theorem1:
            if layers is not None:
                with layers.span("lp.stable_models"):
                    lp = lp_stable_models(database, program)
            else:
                lp = lp_stable_models(database, program)
            so = [
                model.positive
                for model in enumerate_stable_models(
                    database,
                    skolemize(program).as_rule_set(),
                    universe=Universe.for_database(database, max_nulls=0),
                )
            ]
            if _canonical(lp) != _canonical(so):
                failures.append("theorem 1: LP models != SO models")
        verdict = decide_exists_forall_sms(self.qbf)
        if self.plant_wrong:
            verdict = not verdict
        if verdict is not True:
            failures.append("theorem 6: satisfiable 2-QBF decided unsatisfiable")
        return failures

    def closure(self) -> list:
        from repro.query import QuerySession

        session = QuerySession(self.closure_facts, self.closure_rules)
        answers = session.answers(self.closure_query)
        got = {(str(a), str(b)) for a, b in answers}
        if got != self.closure_expected:
            return [
                f"closure: {len(got)} tuples, expected "
                f"{len(self.closure_expected)}"
            ]
        return []

    def chase(self) -> tuple:
        """Returns ``(failures, atoms produced)``."""
        from repro.chase import chase_size_bound, restricted_chase

        result = restricted_chase(self.chase_database, self.chase_program)
        bound = chase_size_bound(self.chase_database, self.chase_program)
        failures = []
        if not result.terminated or len(result.atoms) > bound:
            failures.append("chase: did not terminate within chase_size_bound")
        return failures, len(result.atoms)

    def fixpoint(self) -> tuple:
        """Raw ``engine.fixpoint`` on the closure input: (seconds, stats)."""
        from repro.engine import EngineStatistics, fixpoint

        statistics = EngineStatistics()
        t0 = time.perf_counter()
        fixpoint(self.closure_rules, self.closure_facts, statistics=statistics)
        return time.perf_counter() - t0, statistics


def _canonical(models) -> set:
    return {frozenset(str(atom) for atom in model) for model in models}


class ReasonTrace:
    """Outside-in timers on the stable-model engine's run-time names."""

    def __init__(self) -> None:
        import repro.stable.engine as stable_engine

        self.layers = Layers()
        self.generation = []  # GenerationStatistics of every enumeration
        self.candidates = 0
        self.stable = 0
        layers = self.layers
        generate = stable_engine.generate_candidate_models
        check = stable_engine.find_smaller_reduct_model

        def counted_generate(*args, **kwargs):
            self.generation.append(kwargs.get("statistics"))
            for candidate in generate(*args, **kwargs):
                self.candidates += 1
                yield candidate

        def counted_check(*args, **kwargs):
            smaller = check(*args, **kwargs)
            if smaller is None:
                self.stable += 1
            return smaller

        layers.install(
            stable_engine,
            "generate_candidate_models",
            layers.wrap_iterator("stable.generate", counted_generate),
        )
        layers.install(
            stable_engine,
            "find_smaller_reduct_model",
            layers.wrap("stable.check", counted_check),
        )

    def restore(self) -> None:
        self.layers.restore()

    def counters(self) -> dict:
        stats = [s for s in self.generation if s is not None]
        return {
            "states_visited": sum(s.states_visited for s in stats),
            "moves_explored": sum(s.moves_explored for s in stats),
            "candidates": self.candidates,
            "stable": self.stable,
        }
