"""End-to-end reproduction of every example in the paper.

Each test corresponds to an artifact in DESIGN.md's experiment index;
the benchmark scripts print the same content, these tests assert it.
"""

from repro.generators import workloads
from repro.inference import (
    BruteForceProver,
    ClosureEngine,
    NonEmptySpec,
    build_countermodel,
)
from repro.nfd import parse_nfd, satisfies, satisfies_all, translate
from repro.paths import parse_path, relation_paths
from repro.values import check_instance


class TestSection2Instance:
    """The cis550/cis500 instance and Examples 2.1-2.5."""

    def test_instance_satisfies_the_intro_constraints(self):
        assert satisfies_all(workloads.course_instance(),
                             workloads.course_sigma())

    def test_intro_inference_books_by_sid_time(self):
        """The introduction's motivating question: given sid and time,
        is the set of books unique?  'The answer is affirmative.'"""
        engine = ClosureEngine(workloads.course_schema(),
                               workloads.course_sigma())
        assert engine.implies(
            parse_nfd("Course:[students:sid, time -> books]"))


class TestSection22LogicTranslations:
    def test_example_2_2(self):
        text = translate(parse_nfd(
            "Course:[books:isbn -> books:title]")).to_text()
        assert text == (
            "∀c1 ∈ Course ∀c2 ∈ Course\n"
            "∀b1 ∈ c1.books ∀b2 ∈ c2.books\n"
            "(b1.isbn = b2.isbn → b1.title = b2.title)"
        )

    def test_example_2_3(self):
        text = translate(parse_nfd(
            "Course:students:[sid -> grade]")).to_text()
        assert text == (
            "∀c ∈ Course\n"
            "∀s1 ∈ c.students ∀s2 ∈ c.students\n"
            "(s1.sid = s2.sid → s1.grade = s2.grade)"
        )


class TestSection21University:
    def test_schools_do_not_share_course_numbers(self):
        engine = ClosureEngine(workloads.university_schema(),
                               workloads.university_sigma())
        # the disjoint-or-equal consequence: cnum determines scourses...
        # directly check the instance satisfies and a violating one not.
        instance = workloads.university_instance()
        assert satisfies_all(instance, workloads.university_sigma())
        shared = instance.with_relation("Courses", [
            {"school": "engineering",
             "scourses": [{"cnum": "cis550", "time": 10}]},
            {"school": "arts",
             "scourses": [{"cnum": "cis550", "time": 11}]},
        ])
        assert not satisfies_all(shared, workloads.university_sigma())
        assert engine.implies(parse_nfd(
            "Courses:[scourses:cnum -> school]"))


class TestFigure1:
    def test_the_figure_violates_the_nfd(self):
        assert not satisfies(workloads.figure1_instance(),
                             workloads.figure1_nfd())


class TestSection31Derivation:
    def test_closure_proves_the_claim(self):
        engine = ClosureEngine(workloads.section_3_1_schema(),
                               workloads.section_3_1_sigma())
        assert engine.implies(parse_nfd("R:A:[B -> E]"))

    def test_brute_force_agrees(self):
        prover = BruteForceProver(workloads.section_3_1_schema(),
                                  workloads.section_3_1_sigma())
        assert prover.implies(parse_nfd("R:A:[B -> E]"))


class TestExample32:
    def test_transitivity_fails_with_empty_sets(self):
        instance = workloads.example_3_2_instance()
        assert satisfies(instance, parse_nfd("R:[A -> B:C]"))
        assert satisfies(instance, parse_nfd("R:[B:C -> D]"))
        assert not satisfies(instance, parse_nfd("R:[A -> D]"))

    def test_prefix_fails_with_empty_sets(self):
        instance = workloads.example_3_2_instance()
        assert satisfies(instance, parse_nfd("R:[B:C -> E]"))
        assert not satisfies(instance, parse_nfd("R:[B -> E]"))

    def test_gated_engine_respects_the_example(self):
        schema = workloads.example_3_2_schema()
        spec = NonEmptySpec.for_schema(schema,
                                       except_paths=[parse_path("R:B")])
        sigma = [parse_nfd("R:[A -> B:C]"), parse_nfd("R:[B:C -> D]"),
                 parse_nfd("R:[B:C -> E]")]
        engine = ClosureEngine(schema, sigma, nonempty=spec)
        assert not engine.implies(parse_nfd("R:[A -> D]"))
        assert not engine.implies(parse_nfd("R:[B -> E]"))


class TestAppendixA:
    def _check(self, schema, sigma, lhs_texts, expected_closure):
        engine = ClosureEngine(schema, sigma)
        lhs = {parse_path(t) for t in lhs_texts}
        closed = engine.closure(parse_path("R"), lhs)
        assert {str(p) for p in closed} == expected_closure
        instance = build_countermodel(engine, parse_path("R"), lhs)
        check_instance(instance)
        assert satisfies_all(instance, sigma)
        for q in relation_paths(schema, "R"):
            from repro.nfd import NFD
            nfd = NFD(parse_path("R"), lhs, q)
            assert satisfies(instance, nfd) == (q in closed), q
        return instance

    def test_example_a1(self):
        self._check(
            workloads.example_a1_schema(), workloads.example_a1_sigma(),
            ["B"],
            {"B", "B:C", "D", "E:F", "H", "H:J"},
        )

    def test_example_a2(self):
        self._check(
            workloads.example_a2_schema(), workloads.example_a2_sigma(),
            ["A:B:C"],
            {"A:B:C", "A:B", "A:B:D", "A:B:E:F"},
        )
